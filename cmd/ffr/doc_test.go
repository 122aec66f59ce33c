package main

import (
	"context"
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"maps"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/cli"
)

// registeredFlags returns the flag set a subcommand defines, by running it
// with -h: it registers its flags, Parse prints the list and stops.
func registeredFlags(t *testing.T, name string, fn func(*cli.Cmd) error) *flag.FlagSet {
	t.Helper()
	c := cli.New(context.Background(), name, []string{"-h"}, io.Discard, io.Discard)
	if code := c.Run(fn); code != 0 {
		t.Fatalf("ffr %s -h exited %d", name, code)
	}
	return c.Flags
}

// TestCLIReference keeps docs/CLI.md and the binary in step. Every flag a
// subcommand registers must have a row in its "## ffr <cmd>" section — or,
// for the telemetry flags, in the observability table with the command in
// its Commands column — every documented flag must still be registered,
// and every documented command must exist.
func TestCLIReference(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "docs", "CLI.md"))
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)

	// Split the reference into its "## " sections.
	sections := map[string]string{}
	var title string
	for _, line := range strings.SplitAfter(doc, "\n") {
		if strings.HasPrefix(line, "## ") {
			title = strings.TrimSpace(strings.TrimPrefix(line, "## "))
		}
		sections[title] += line
	}
	flagRow := regexp.MustCompile("(?m)^\\| `-([a-z0-9-]+)[ `]")

	// Observability table rows: | `-flag ...` | cmd, cmd | meaning |.
	shared := map[string]string{}
	for _, m := range regexp.MustCompile("(?m)^\\| `-([a-z0-9-]+)[ `][^|]*\\|([^|]*)\\|").FindAllStringSubmatch(sections["Observability flags"], -1) {
		shared[m[1]] = m[2]
	}
	if len(shared) == 0 {
		t.Fatal("docs/CLI.md has no observability table")
	}

	registered := map[string]func(*cli.Cmd) error{}
	for _, cmd := range commands {
		registered[cmd.name] = cmd.run
		section, ok := sections["ffr "+cmd.name]
		if !ok {
			t.Errorf("docs/CLI.md has no '## ffr %s' section", cmd.name)
			continue
		}
		documented := map[string]bool{}
		for _, m := range flagRow.FindAllStringSubmatch(section, -1) {
			documented[m[1]] = true
		}
		flags := registeredFlags(t, cmd.name, cmd.run)
		flags.VisitAll(func(f *flag.Flag) {
			if documented[f.Name] {
				delete(documented, f.Name)
				return
			}
			who, ok := shared[f.Name]
			if !ok {
				t.Errorf("ffr %s -%s has no row in docs/CLI.md", cmd.name, f.Name)
			} else if who = strings.TrimSpace(who); who != "all" && !regexp.MustCompile(`\b`+cmd.name+`\b`).MatchString(who) {
				t.Errorf("ffr %s -%s: the observability table lists it for %q only", cmd.name, f.Name, who)
			}
		})
		for name := range documented {
			t.Errorf("docs/CLI.md documents ffr %s -%s, which the command does not define", cmd.name, name)
		}
	}
	for name, who := range shared {
		for _, cmd := range strings.Split(who, ",") {
			cmd = strings.TrimSpace(cmd)
			if cmd == "all" {
				continue
			}
			if fn := registered[cmd]; fn == nil {
				t.Errorf("observability table lists -%s for unknown command %q", name, cmd)
			} else if registeredFlags(t, cmd, fn).Lookup(name) == nil {
				t.Errorf("observability table lists -%s for ffr %s, which does not define it", name, cmd)
			}
		}
	}
	for title := range sections {
		if name, ok := strings.CutPrefix(title, "ffr "); ok && registered[name] == nil {
			t.Errorf("docs/CLI.md documents '## %s', which is not a registered command", title)
		}
	}
}

// goSource calls visit with the slash-separated path below the repository
// root and the text of every Go test file in it (tests) or of every other Go
// file (!tests).
func goSource(t *testing.T, tests bool, visit func(rel, src string)) {
	t.Helper()
	root := filepath.Join("..", "..")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") != tests {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		visit(filepath.ToSlash(rel), string(src))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestOneCheckpointMatcher: which checkpoint belongs to a campaign, when it
// is written and what it pins is decided in internal/fault (the Ledger) and
// nowhere else. No other non-test package outside bench/ — which only
// round-trips a finished file — loads or saves a campaign checkpoint or
// fingerprints a plan, so a second matcher cannot reappear unnoticed.
func TestOneCheckpointMatcher(t *testing.T) {
	call := regexp.MustCompile(`\bfault\.(LoadCheckpoint|SaveCheckpoint)\(|\bPlanFingerprint\(`)
	inFault := false
	goSource(t, false, func(rel, src string) {
		if strings.HasPrefix(rel, "bench/") {
			return
		}
		m := call.FindString(src)
		switch {
		case m == "":
		case path.Dir(rel) == "internal/fault":
			inFault = true
		default:
			t.Errorf("%s calls %s…); only internal/fault may", rel, m)
		}
	})
	if !inFault {
		t.Fatal("found no plan fingerprinting in internal/fault: the guard matches nothing")
	}
}

// TestFacadeLayout: the root package repro is the walkthroughs' API, and
// nothing else in the module goes through it. No non-test Go file outside
// the root package imports "repro" (cmd/ffr and bench/ import the internal
// packages they call), and every exported name the facade files declare is
// written as repro.<Name> in a walkthrough, the package docs or bench/, so
// a name that loses its last caller is deleted with it.
func TestFacadeLayout(t *testing.T) {
	declared := map[string]bool{}
	declare := func(id *ast.Ident) {
		if id.IsExported() {
			declared[id.Name] = true
		}
	}
	goSource(t, false, func(rel, src string) {
		f, err := parser.ParseFile(token.NewFileSet(), rel, src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		if path.Dir(rel) == "." {
			if rel == "ffr.go" || rel == "serving.go" {
				for _, decl := range f.Decls {
					switch d := decl.(type) {
					case *ast.FuncDecl:
						if d.Recv == nil {
							declare(d.Name)
						}
					case *ast.GenDecl:
						for _, spec := range d.Specs {
							switch s := spec.(type) {
							case *ast.TypeSpec:
								declare(s.Name)
							case *ast.ValueSpec:
								for _, n := range s.Names {
									declare(n)
								}
							}
						}
					}
				}
			}
			return
		}
		for _, imp := range f.Imports {
			if imp.Path.Value == `"repro"` {
				t.Errorf("%s imports the repro facade; outside the root package import the internal packages", rel)
			}
		}
	})
	if len(declared) == 0 {
		t.Fatal("found no names declared in ffr.go or serving.go: the guard matches nothing")
	}
	root := filepath.Join("..", "..")
	callers := []string{"example_test.go", "ffr_test.go", "doc.go", "README.md"}
	for _, dir := range []string{"docs", "bench"} {
		err := filepath.WalkDir(filepath.Join(root, dir), func(p string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() {
				rel, _ := filepath.Rel(root, p)
				callers = append(callers, rel)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	use := regexp.MustCompile(`\brepro\.([A-Z]\w*)`)
	for _, rel := range callers {
		src, err := os.ReadFile(filepath.Join(root, rel))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range use.FindAllStringSubmatch(string(src), -1) {
			delete(declared, m[1])
		}
	}
	for _, name := range slices.Sorted(maps.Keys(declared)) {
		t.Errorf("repro.%s has no caller in the walkthroughs, the package docs or bench/; delete it", name)
	}
}

// TestOneGoldenSimulator: outside bench/, non-test source builds an
// interpreter engine (sim.NewEngine) in one place only, the SET effect table
// in internal/fault. Every golden run (ffr sim's included) goes through
// corpus.Materialize on the campaign's compiled kernel, so the effect table
// is the one production survivor of the interpreter.
func TestOneGoldenSimulator(t *testing.T) {
	var got []string
	goSource(t, false, func(rel, src string) {
		if !strings.HasPrefix(rel, "bench/") && strings.Contains(src, "sim.NewEngine(") {
			got = append(got, rel)
		}
	})
	if want := []string{"internal/fault/modelexec.go"}; !slices.Equal(got, want) {
		t.Fatalf("sim.NewEngine is called in %v, want only %v", got, want)
	}
}

// TestEnvironmentReference: the environment is read in internal/cli and
// nowhere else in non-test source, and the variables read there are
// exactly the FFR_* names docs/CLI.md documents.
func TestEnvironmentReference(t *testing.T) {
	read := map[string]bool{}
	envCall := regexp.MustCompile(`(Getenv|LookupEnv|Environ)\(("(\w+)")?`)
	goSource(t, false, func(rel, src string) {
		for _, m := range envCall.FindAllStringSubmatch(src, -1) {
			if path.Dir(rel) != "internal/cli" {
				t.Errorf("%s reads the environment (%s); only internal/cli may", rel, m[0])
			}
			if !strings.HasPrefix(m[3], "FFR_") {
				t.Errorf("%s: environment read %s is not a literal FFR_* name", rel, m[0])
			}
			read[m[3]] = true
		}
	})
	if len(read) == 0 {
		t.Fatal("found no environment reads in the source")
	}

	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "CLI.md"))
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	for _, name := range regexp.MustCompile(`FFR_[A-Z0-9_]+`).FindAllString(string(doc), -1) {
		documented[name] = true
		if !read[name] {
			t.Errorf("docs/CLI.md mentions %s, which nothing reads", name)
		}
	}
	for name := range read {
		if !documented[name] {
			t.Errorf("environment variable %s is not documented in docs/CLI.md", name)
		}
	}
}

// TestFuzzSmokeListsEveryTarget: make fuzz-smoke runs every Fuzz* target in
// the tree, each on its own `$(FUZZ) -fuzz=<name> ./<pkg>` line, and names
// no target that does not exist.
func TestFuzzSmokeListsEveryTarget(t *testing.T) {
	var defined []string
	fuzzFunc := regexp.MustCompile(`(?m)^func (Fuzz\w+)\(`)
	goSource(t, true, func(rel, src string) {
		for _, m := range fuzzFunc.FindAllStringSubmatch(src, -1) {
			defined = append(defined, m[1]+" ./"+path.Dir(rel))
		}
	})
	if len(defined) == 0 {
		t.Fatal("found no Fuzz* targets in the source")
	}

	mk, err := os.ReadFile(filepath.Join("..", "..", "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	_, recipe, ok := strings.Cut(string(mk), "\nfuzz-smoke:\n")
	if !ok {
		t.Fatal("the Makefile has no fuzz-smoke target")
	}
	var listed []string
	run := regexp.MustCompile(`^\t\$\(FUZZ\) -fuzz=(\w+) (\./\S+)$`)
	for _, line := range strings.Split(recipe, "\n") {
		if !strings.HasPrefix(line, "\t") {
			break
		}
		m := run.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("fuzz-smoke line %q is not `$(FUZZ) -fuzz=<name> ./<pkg>`", line)
			continue
		}
		listed = append(listed, m[1]+" "+m[2])
	}

	slices.Sort(defined)
	slices.Sort(listed)
	for _, target := range defined {
		if !slices.Contains(listed, target) {
			t.Errorf("fuzz target %s is not run by make fuzz-smoke", target)
		}
	}
	for _, target := range listed {
		if !slices.Contains(defined, target) {
			t.Errorf("make fuzz-smoke runs %s, which is not a fuzz target", target)
		}
	}
	if !t.Failed() && !slices.Equal(defined, listed) {
		t.Errorf("make fuzz-smoke runs a target twice:\n%s", strings.Join(listed, "\n"))
	}
}
