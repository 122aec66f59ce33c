package harden_test

import (
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/features"
	"repro/internal/harden"
	"repro/internal/ml/knn"
	"repro/internal/persist"
)

// cands builds a candidate ranking straight from parallel slices, bypassing
// Rank, so the budget math is tested in isolation.
func cands(scores, areas []float64) []harden.Candidate {
	out := make([]harden.Candidate, len(scores))
	for i := range scores {
		out[i] = harden.Candidate{FF: i, Score: scores[i], Area: areas[i]}
	}
	return out
}

func TestNewPlanZeroBudgetSelectsNothing(t *testing.T) {
	p, err := harden.NewPlan(cands([]float64{0.5, 0.3, 0.1}, []float64{10, 10, 10}), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Selected) != 0 {
		t.Fatalf("zero budget selected %d flip-flops", len(p.Selected))
	}
	if p.UsedArea != 0 {
		t.Fatalf("zero budget used area %v", p.UsedArea)
	}
	if p.ResidualFFR != p.BaseFFR {
		t.Fatalf("zero budget residual %v != base %v", p.ResidualFFR, p.BaseFFR)
	}
	if len(p.Rest) != 3 {
		t.Fatalf("Rest has %d candidates, want 3", len(p.Rest))
	}
}

func TestNewPlanFullBudgetSelectsEverything(t *testing.T) {
	for _, budget := range []float64{1, 1.5, 100} {
		p, err := harden.NewPlan(cands([]float64{0.5, 0.3, 0.1}, []float64{7, 11, 13}), budget)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Selected) != 3 || len(p.Rest) != 0 {
			t.Fatalf("budget %v selected %d of 3", budget, len(p.Selected))
		}
		if p.ResidualFFR != 0 {
			t.Fatalf("budget %v residual %v, want 0", budget, p.ResidualFFR)
		}
		if math.Abs(p.UsedArea-p.TotalArea) > 1e-12 {
			t.Fatalf("budget %v used %v of total %v", budget, p.UsedArea, p.TotalArea)
		}
	}
}

func TestNewPlanRejectsNegativeBudget(t *testing.T) {
	for _, budget := range []float64{-0.1, math.NaN()} {
		if _, err := harden.NewPlan(cands([]float64{0.5}, []float64{1}), budget); err == nil {
			t.Errorf("budget %v accepted", budget)
		}
	}
}

// TestNewPlanRejectsNonFiniteArea: a cost sum that overflows, or a cost that
// is not a number, would put Inf or NaN into every curve point.
func TestNewPlanRejectsNonFiniteArea(t *testing.T) {
	for _, costs := range [][]float64{{1e308, 1e308}, {1, math.Inf(1)}, {1, math.NaN()}} {
		for _, budget := range []float64{0, 0.5} {
			if _, err := harden.NewPlan(cands([]float64{0.1, 0.2}, costs), budget); err == nil {
				t.Errorf("costs %v at budget %v accepted", costs, budget)
			}
		}
	}
}

// TestNewPlanResidualMonotone pins the contract that makes a budget sweep
// meaningful: as the budget grows, the selection grows (prefix rule) and the
// predicted residual FFR never increases. The area mix is chosen so a
// first-fit-with-skip strategy would violate monotonicity — the prefix rule
// must not degenerate into it.
func TestNewPlanResidualMonotone(t *testing.T) {
	scores := []float64{0.50, 0.30, 0.30, 0.25, 0.10, 0.05, 0.02}
	areas := []float64{30, 1, 1, 12, 3, 3, 1}
	prevResidual := math.Inf(1)
	prevSelected := 0
	for b := 0.0; b <= 1.2; b += 0.01 {
		p, err := harden.NewPlan(cands(scores, areas), b)
		if err != nil {
			t.Fatal(err)
		}
		if p.ResidualFFR > prevResidual+1e-12 {
			t.Fatalf("residual rose from %v to %v at budget %v", prevResidual, p.ResidualFFR, b)
		}
		if len(p.Selected) < prevSelected {
			t.Fatalf("selection shrank from %d to %d at budget %v", prevSelected, len(p.Selected), b)
		}
		// The selection must be a ranking prefix: Selected then Rest must
		// reconstruct the candidate order exactly.
		for i, c := range append(append([]harden.Candidate{}, p.Selected...), p.Rest...) {
			if c.FF != i {
				t.Fatalf("budget %v: rank %d holds FF %d; selection is not a prefix", b, i, c.FF)
			}
		}
		prevResidual, prevSelected = p.ResidualFFR, len(p.Selected)
	}
	if prevSelected != len(scores) {
		t.Fatalf("budget sweep ended with %d of %d selected", prevSelected, len(scores))
	}
}

// TestNewPlanCurve checks the budget curve spans harden-nothing to full TMR
// with a non-increasing residual.
func TestNewPlanCurve(t *testing.T) {
	p, err := harden.NewPlan(cands([]float64{0.4, 0.3, 0.2, 0.1}, []float64{5, 4, 3, 2}), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Curve) != 5 {
		t.Fatalf("curve has %d points, want 5", len(p.Curve))
	}
	first, last := p.Curve[0], p.Curve[len(p.Curve)-1]
	if first.FFs != 0 || first.Area != 0 || first.ResidualFFR != p.BaseFFR {
		t.Fatalf("curve start %+v is not the harden-nothing point", first)
	}
	if last.FFs != 4 || math.Abs(last.Budget-1) > 1e-12 || math.Abs(last.ResidualFFR) > 1e-12 {
		t.Fatalf("curve end %+v is not the full-TMR point", last)
	}
	for i := 1; i < len(p.Curve); i++ {
		if p.Curve[i].ResidualFFR > p.Curve[i-1].ResidualFFR+1e-12 {
			t.Fatalf("curve residual rises at point %d", i)
		}
		if p.Curve[i].Area <= p.Curve[i-1].Area {
			t.Fatalf("curve area not increasing at point %d", i)
		}
	}
}

// TestRankOrdersMostCriticalFirst: the ranking is score descending, ties by
// FF index ascending — including all-equal scores and a single flip-flop —
// and every candidate carries its own flip-flop's score, cost and name.
func TestRankOrdersMostCriticalFirst(t *testing.T) {
	cases := []struct {
		name   string
		scores []float64
		want   []int
	}{
		{"distinct", []float64{0.01, 0.90, 0.02, 0.85, 0.40}, []int{1, 3, 4, 2, 0}},
		{"ties", []float64{0.3, 0.3, 0.1, 0.9, 0.9, 0.5, 0.1}, []int{3, 4, 5, 0, 1, 2, 6}},
		{"all equal", []float64{0.2, 0.2, 0.2, 0.2}, []int{0, 1, 2, 3}},
		{"clipped", []float64{0, 1, 0, 1, 0.5}, []int{1, 3, 4, 0, 2}},
		{"one", []float64{0.7}, []int{0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			costs := make([]float64, len(tc.scores))
			names := make([]string, len(tc.scores))
			for i := range costs {
				costs[i] = float64(i + 1)
				names[i] = string(rune('a' + i))
			}
			got, err := harden.Rank(tc.scores, costs, names)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("ranked %d of %d", len(got), len(tc.want))
			}
			for i, c := range got {
				if c.FF != tc.want[i] {
					t.Fatalf("rank %d holds FF %d, want %d (order %+v)", i, c.FF, tc.want[i], got)
				}
				if c.Score != tc.scores[c.FF] || c.Area != costs[c.FF] || c.Name != names[c.FF] {
					t.Fatalf("rank %d carries %+v, not FF %d's score, cost and name", i, c, c.FF)
				}
			}
		})
	}
}

func TestRankDeterministic(t *testing.T) {
	scores := []float64{0.3, 0.3, 0.1, 0.9, 0.9, 0.5}
	costs := []float64{2, 2, 2, 2, 2, 2}
	a, err := harden.Rank(scores, costs, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := harden.Rank(scores, costs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rank %d differs between identical runs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestRankValidation(t *testing.T) {
	if _, err := harden.Rank(nil, nil, nil); err == nil {
		t.Fatal("empty ranking accepted")
	}
	if _, err := harden.Rank([]float64{0.1}, []float64{1, 2}, nil); err == nil {
		t.Fatal("mismatched costs accepted")
	}
	if _, err := harden.Rank([]float64{0.1, 0.2}, []float64{1, 0}, nil); err == nil {
		t.Fatal("non-positive cost accepted")
	}
	if _, err := harden.Rank([]float64{0.1}, []float64{1}, []string{"a", "b"}); err == nil {
		t.Fatal("mismatched names accepted")
	}
}

func TestSelectedFFsAscending(t *testing.T) {
	p, err := harden.NewPlan([]harden.Candidate{
		{FF: 5, Score: 0.9, Area: 1},
		{FF: 2, Score: 0.8, Area: 1},
		{FF: 7, Score: 0.7, Area: 1},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := p.SelectedFFs()
	want := []int{2, 5, 7}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SelectedFFs = %v, want %v", got, want)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	p, err := harden.NewPlan(cands([]float64{0.4, 0.2}, []float64{3, 3}), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := harden.WriteCSV(&sb, p); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV has %d lines, want header + 2 rows:\n%s", len(lines), sb.String())
	}
	if !strings.HasPrefix(lines[0], "rank,ff,name,score,area,selected") {
		t.Fatalf("unexpected CSV header %q", lines[0])
	}
	if !strings.HasSuffix(lines[1], ",0.2") || !strings.HasSuffix(lines[2], ",0") {
		t.Fatalf("unexpected CSV rows:\n%s", sb.String())
	}
}

// TestAdviseRefusesForeignSchema: a model scores rows in its own schema's
// column order, so an artifact whose feature names are the extractor's in
// another order is refused as a schema mismatch, not advised with columns
// it reads as other features.
func TestAdviseRefusesForeignSchema(t *testing.T) {
	sc, err := corpus.Find("alupipe/randomops")
	if err != nil {
		t.Fatal(err)
	}
	m, err := sc.Materialize(corpus.ScaleSmall, 1)
	if err != nil {
		t.Fatal(err)
	}
	model := knn.New(1)
	if err := model.Fit(m.Features.Rows, make([]float64, m.NumFFs())); err != nil {
		t.Fatal(err)
	}
	names := features.Names()
	if _, err := harden.Advise(persist.New("m", model, names), m, 0.5); err != nil {
		t.Fatalf("extractor schema: %v", err)
	}
	slices.Reverse(names)
	_, err = harden.Advise(persist.New("m", model, names), m, 0.5)
	if !errors.Is(err, persist.ErrSchemaMismatch) {
		t.Fatalf("reversed schema: err %v, want ErrSchemaMismatch", err)
	}
}
