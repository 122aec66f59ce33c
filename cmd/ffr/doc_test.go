package main

import (
	"context"
	"flag"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"maps"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
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

// sourceFiles calls visit with the slash-separated path below the
// repository root and the text of every .go and .md file in it. It skips
// dot-directories, where bench's scratch files come and go while the tests
// run, and reads nothing else, so every source guard sees the same files.
func sourceFiles(t *testing.T, visit func(rel, src string)) {
	t.Helper()
	root := filepath.Join("..", "..")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if ext := filepath.Ext(path); d.IsDir() || ext != ".go" && ext != ".md" {
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

// goSource calls visit with every Go test file (tests) or every other Go
// file (!tests) that sourceFiles walks.
func goSource(t *testing.T, tests bool, visit func(rel, src string)) {
	t.Helper()
	sourceFiles(t, func(rel, src string) {
		if path.Ext(rel) == ".go" && strings.HasSuffix(rel, "_test.go") == tests {
			visit(rel, src)
		}
	})
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
	var used []string
	use := regexp.MustCompile(`\brepro\.([A-Z]\w*)`)
	sourceFiles(t, func(rel, src string) {
		switch rel {
		case "example_test.go", "ffr_test.go", "doc.go", "README.md":
			used = append(used, src)
		default:
			if strings.HasPrefix(rel, "docs/") || strings.HasPrefix(rel, "bench/") {
				used = append(used, src)
			}
		}
		if path.Ext(rel) != ".go" || strings.HasSuffix(rel, "_test.go") {
			return
		}
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
	for _, src := range used {
		for _, m := range use.FindAllStringSubmatch(src, -1) {
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

// uncalledAllowed lists the exported names below internal/ that keep no
// production caller on purpose, each with the reason: references and
// probes that tests in more than one package share, so no one package's
// _test.go file can hold them. An entry that is gone, or that has gained a
// caller, fails TestEveryExportHasACaller, so the list cannot go stale.
var uncalledAllowed = map[string]string{
	"sim.NewScalarEngine":        "the one-lane boolean oracle, independent of the packed engines, that the sim and fault tests share",
	"sim.RunScalar":              "runs the one-lane oracle over a stimulus for the sim and fault tests",
	"sim.ScalarEngine.FlipFF":    "injects an upset into the one-lane oracle for the fault tests",
	"sim.Engine.FlipFF":          "injects an upset into the interpreter, the full-replay reference of the sim, fault, corpus and circuit tests",
	"sim.Engine.ForceFF":         "injects a stuck-at into the interpreter for the fault tests' full-replay reference",
	"sim.KernelEngine.FFWord":    "reads a kernel's flip-flop state, which the sim and corpus tests hold to the interpreter's",
	"ml/tree.Orders.Reused":      "counts the nodes that took an earlier fit's sort orders, which the tree and ensemble tests hold to what boosting should reuse",
	"circuit.MACBench.LaneStats": "reads one lane's statistics readout, which the circuit tests check and the fault tests' packet-list oracle compares against golden",
	"netlist.Parse":              "the fuzzed inverse of netlist.Write, which ffr gen uses; the netlist, features, sim and circuit tests read netlists back with it",
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// uncalledExports type-checks every non-test package of the module (cmd/ffr,
// bench/ and the root facade among them) and the root walkthroughs
// example_test.go and ffr_test.go, and returns the exported package-level
// funcs, types, vars and consts and the exported methods declared under
// internal/ that no non-test file uses, as "<dir below internal>.<Name>" or
// "<dir>.<Type>.<Method>". A use inside the declaring package counts: such a
// name has a production caller, and unexporting it would rename code
// without deleting any. A method that satisfies an interface the module or
// a standard package it imports declares, or an interface type written in
// the source (an inline constraint or a type assertion), may be called
// through that interface and is not listed. It also returns how many names
// it examined.
func uncalledExports(t *testing.T) (uncalled []string, examined int) {
	t.Helper()
	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // import path -> files
	sourceFiles(t, func(rel, src string) {
		if path.Ext(rel) != ".go" {
			return
		}
		pkg := path.Join("repro", path.Dir(rel))
		if strings.HasSuffix(rel, "_test.go") {
			if rel != "example_test.go" && rel != "ffr_test.go" {
				return
			}
			pkg += "_test"
		}
		// Check the files this platform builds: a file for another GOARCH
		// (mlp's kernels_other.go beside kernels_amd64.go) redeclares names.
		match, err := build.Default.MatchFile(filepath.Join("..", "..", path.Dir(rel)), path.Base(rel))
		if err != nil {
			t.Fatal(err)
		}
		if !match {
			return
		}
		f, err := parser.ParseFile(fset, rel, src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files[pkg] = append(files[pkg], f)
	})

	// The standard packages come from their export data, which one go list
	// call finds for all of them (importer.Default runs go list per package).
	var stdPaths []string
	for _, pkgFiles := range files {
		for _, f := range pkgFiles {
			for _, spec := range f.Imports {
				p, err := strconv.Unquote(spec.Path.Value)
				if _, ok := files[p]; err == nil && !ok && !slices.Contains(stdPaths, p) {
					stdPaths = append(stdPaths, p)
				}
			}
		}
	}
	out, err := exec.Command("go", append([]string{"list", "-export", "-f", "{{.ImportPath}} {{.Export}}"}, stdPaths...)...).Output()
	if err != nil {
		t.Fatalf("go list -export: %v", err)
	}
	exports := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		p, export, _ := strings.Cut(line, " ")
		exports[p] = export
	}
	std := importer.ForCompiler(fset, "gc", func(p string) (io.ReadCloser, error) { return os.Open(exports[p]) })

	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Uses: map[*ast.Ident]types.Object{}}
	checked := map[string]*types.Package{}
	var load importerFunc
	load = func(p string) (*types.Package, error) {
		if pkg := checked[p]; pkg != nil {
			return pkg, nil
		}
		src, ok := files[p]
		if !ok {
			return std.Import(p)
		}
		pkg, err := (&types.Config{Importer: load}).Check(p, fset, src, info)
		checked[p] = pkg
		return pkg, err
	}
	for _, p := range slices.Sorted(maps.Keys(files)) {
		if _, err := load(p); err != nil {
			t.Fatal(err)
		}
	}

	// The objects some non-test file uses.
	used := map[types.Object]bool{}
	for _, obj := range info.Uses {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		used[obj] = true
	}

	// The interfaces a method may be called through, by method name.
	ifaces := map[string][]*types.Interface{}
	addIface := func(typ types.Type) {
		if it, ok := typ.Underlying().(*types.Interface); ok {
			for m := range it.Methods() {
				ifaces[m.Name()] = append(ifaces[m.Name()], it)
			}
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	for _, tv := range info.Types {
		if tv.IsType() {
			addIface(tv.Type)
		}
	}
	seen := map[*types.Package]bool{}
	var declare func(pkg *types.Package)
	declare = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range pkg.Imports() {
			declare(imp)
		}
	}
	for _, pkg := range checked {
		declare(pkg)
	}
	viaInterface := func(recv types.Type, method string) bool {
		for _, it := range ifaces[method] {
			if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
				return true
			}
		}
		return false
	}

	for p, pkg := range checked {
		dir, ok := strings.CutPrefix(p, "repro/internal/")
		if !ok {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			if obj.Exported() {
				examined++
				if !used[obj] {
					uncalled = append(uncalled, dir+"."+name)
				}
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for m := range named.Methods() {
				if !m.Exported() {
					continue
				}
				examined++
				if !used[m] && !viaInterface(named, m.Name()) {
					uncalled = append(uncalled, dir+"."+name+"."+m.Name())
				}
			}
		}
	}
	slices.Sort(uncalled)
	return uncalled, examined
}

// exportProblems compares the names uncalledExports lists with an
// allowlist: one message for each listed name the allowlist lacks, and one
// for each entry that is no longer listed.
func exportProblems(uncalled []string, allowed map[string]string) []string {
	var problems []string
	for _, name := range uncalled {
		if _, ok := allowed[name]; !ok {
			problems = append(problems, name+" has no caller outside tests; delete it, move it into a _test.go file, or allowlist it with a reason")
		}
	}
	for _, name := range slices.Sorted(maps.Keys(allowed)) {
		if !slices.Contains(uncalled, name) {
			problems = append(problems, "the allowlist names "+name+", which is gone or has a production caller; drop the entry")
		}
	}
	return problems
}

// TestEveryExportHasACaller: every exported name declared under internal/
// has a caller in non-test code (cmd/ffr, bench/, the root facade and its
// walkthroughs, or the rest of its own package), or an entry in
// uncalledAllowed, so API surface that only tests use does not pile up.
// Delete such a name, or move it into its package's export_test.go or into
// the test that uses it.
func TestEveryExportHasACaller(t *testing.T) {
	uncalled, examined := uncalledExports(t)
	if examined == 0 {
		t.Fatal("found no exported names under internal/: the guard matches nothing")
	}
	for _, p := range exportProblems(uncalled, uncalledAllowed) {
		t.Error(p)
	}
}

// TestExportProblems: the guard names an uncalled name the allowlist lacks,
// and an allowlist entry that is gone or has gained a caller.
func TestExportProblems(t *testing.T) {
	got := exportProblems([]string{"fault.Kept", "fault.New"}, map[string]string{"fault.Kept": "why", "fault.Stale": "why"})
	if len(got) != 2 || !strings.HasPrefix(got[0], "fault.New has no caller") || !strings.Contains(got[1], "names fault.Stale, which is gone") {
		t.Errorf("exportProblems = %q", got)
	}
	if got := exportProblems([]string{"fault.Kept"}, map[string]string{"fault.Kept": "why"}); len(got) != 0 {
		t.Errorf("an allowlisted name is reported: %q", got)
	}
}
