package harden_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/harden"
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

func TestRankOrdersMostCriticalFirst(t *testing.T) {
	scores := []float64{0.01, 0.90, 0.02, 0.85, 0.40}
	costs := []float64{1, 1, 1, 1, 1}
	got, err := harden.Rank(scores, costs, nil, harden.Config{Clusters: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("ranked %d of 5", len(got))
	}
	// Scores must be non-increasing within a band and bands non-decreasing.
	for i := 1; i < len(got); i++ {
		if got[i].Cluster < got[i-1].Cluster {
			t.Fatalf("band order violated at rank %d", i)
		}
		if got[i].Cluster == got[i-1].Cluster && got[i].Score > got[i-1].Score {
			t.Fatalf("score order violated at rank %d", i)
		}
	}
	if got[0].FF != 1 || got[1].FF != 3 {
		t.Fatalf("top ranks are FFs %d, %d; want 1, 3", got[0].FF, got[1].FF)
	}
	if got[0].Cluster != 0 {
		t.Fatalf("most critical candidate sits in band %d", got[0].Cluster)
	}
}

func TestRankDeterministic(t *testing.T) {
	scores := []float64{0.3, 0.3, 0.1, 0.9, 0.9, 0.5}
	costs := []float64{2, 2, 2, 2, 2, 2}
	a, err := harden.Rank(scores, costs, nil, harden.Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := harden.Rank(scores, costs, nil, harden.Config{Seed: 42})
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
	if _, err := harden.Rank(nil, nil, nil, harden.Config{}); err == nil {
		t.Fatal("empty ranking accepted")
	}
	if _, err := harden.Rank([]float64{0.1}, []float64{1, 2}, nil, harden.Config{}); err == nil {
		t.Fatal("mismatched costs accepted")
	}
	if _, err := harden.Rank([]float64{0.1, 0.2}, []float64{1, 0}, nil, harden.Config{}); err == nil {
		t.Fatal("non-positive cost accepted")
	}
	if _, err := harden.Rank([]float64{0.1}, []float64{1}, []string{"a", "b"}, harden.Config{}); err == nil {
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
	if !strings.HasPrefix(lines[0], "rank,ff,name,score,cluster,area,selected") {
		t.Fatalf("unexpected CSV header %q", lines[0])
	}
	if !strings.HasSuffix(lines[1], ",0.2") || !strings.HasSuffix(lines[2], ",0") {
		t.Fatalf("unexpected CSV rows:\n%s", sb.String())
	}
}
