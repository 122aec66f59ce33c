package cpuid_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestAssemblyIsVEXOnly reads every *_amd64.s file of the module and fails
// on an instruction that names an X or Y register without its VEX form (a
// mnemonic that does not start with V): a legacy-SSE instruction among AVX
// code costs a state transition each time it runs. One MOVQ AX, X7 that
// loaded a constant made the k-NN distance loop 6.6× slower (246 against 37
// ns a block). A macro's body is read at its #define, not where it is used.
func TestAssemblyIsVEXOnly(t *testing.T) {
	vector := regexp.MustCompile(`\b[XY]([0-9]|1[0-5])\b`)
	define := regexp.MustCompile(`^#define\s+(\w+)(\([^)]*\))?`)
	root := filepath.Join("..", "..")
	files := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_amd64.s") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		files++
		macros := map[string]bool{}
		for n, line := range strings.Split(string(src), "\n") {
			code, _, _ := strings.Cut(line, "//")
			code = strings.TrimSuffix(strings.TrimSpace(code), `\`)
			if m := define.FindStringSubmatch(code); m != nil {
				macros[m[1]] = true
				code = code[len(m[0]):]
			} else if strings.HasPrefix(code, "#") {
				continue
			}
			for _, stmt := range strings.Split(code, ";") {
				fields := strings.Fields(stmt)
				if len(fields) > 0 && strings.HasSuffix(fields[0], ":") {
					fields = fields[1:] // a label
				}
				if len(fields) == 0 {
					continue
				}
				op, _, _ := strings.Cut(fields[0], "(")
				if !strings.HasPrefix(op, "V") && !macros[op] && vector.MatchString(strings.Join(fields, " ")) {
					t.Errorf("%s:%d: %s: legacy SSE on a vector register; use the VEX form",
						filepath.ToSlash(path), n+1, strings.TrimSpace(stmt))
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatal("no *_amd64.s file found under the module root")
	}
}
