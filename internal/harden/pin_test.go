package harden_test

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/harden"
)

// TestRankPinned holds the advisor's ranking and selections to
// testdata/rank.golden: for every corpus scenario at small scale and three
// models fitted on a 16-injection ground truth, the full ranking in FF
// order, then SelectedFFs and the ResidualFFR bits at three budgets. The
// file was written before the ranking code last changed and must not be
// regenerated by the code under test.
func TestRankPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a ground-truth campaign per corpus scenario")
	}
	want, err := os.ReadFile("testdata/rank.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := rankGolden(t)
	wantLines := strings.Split(string(want), "\n")
	gotLines := strings.Split(got, "\n")
	for i := 0; i < len(wantLines) || i < len(gotLines); i++ {
		var w, g string
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if w != g {
			t.Fatalf("rank.golden line %d:\n got %s\nwant %s", i+1, g, w)
		}
	}
}

// rankGolden renders the text TestRankPinned compares against the file.
func rankGolden(t *testing.T) string {
	t.Helper()
	var sb strings.Builder
	for _, sc := range corpus.List() {
		s, err := core.NewCorpusStudy(sc, core.CorpusStudyConfig{Scale: corpus.ScaleSmall, InjectionsPerFF: 16})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.RunGroundTruth(); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"k-NN", "Linear Least Squares", "Decision Tree"} {
			spec, err := core.FindModel(name)
			if err != nil {
				t.Fatal(err)
			}
			art, err := s.FitArtifact(name, spec, core.TableRow{})
			if err != nil {
				t.Fatal(err)
			}
			for i, budget := range []float64{0.1, 0.5, 0.9} {
				p, err := harden.Advise(art, s.Materialized, budget)
				if err != nil {
					t.Fatalf("%s %s: %v", sc.ID(), name, err)
				}
				if i == 0 {
					fmt.Fprintf(&sb, "%s %q rank %s\n", sc.ID(), name,
						ints(append(ffs(p.Selected), ffs(p.Rest)...)))
				}
				fmt.Fprintf(&sb, "%s %q budget %g selected %s residual %016x\n", sc.ID(), name,
					budget, ints(p.SelectedFFs()), math.Float64bits(p.ResidualFFR))
			}
		}
	}
	return sb.String()
}

func ffs(cands []harden.Candidate) []int {
	out := make([]int, len(cands))
	for i, c := range cands {
		out[i] = c.FF
	}
	return out
}

func ints(v []int) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprint(x)
	}
	return strings.Join(parts, ",")
}
