package core_test

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
)

// corpusStudyWithTruth materializes a small corpus scenario and runs a tiny
// ground-truth campaign.
func corpusStudyWithTruth(t *testing.T, id string, injections int) *core.Study {
	t.Helper()
	sc, err := corpus.Find(id)
	if err != nil {
		t.Fatal(err)
	}
	study, err := core.NewCorpusStudy(sc, core.CorpusStudyConfig{
		Scale:           corpus.ScaleSmall,
		InjectionsPerFF: injections,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := study.RunGroundTruth(); err != nil {
		t.Fatal(err)
	}
	return study
}

func TestNewCorpusStudyEndToEnd(t *testing.T) {
	study := corpusStudyWithTruth(t, "alupipe/randomops", 4)
	if study.ScenarioID() != "alupipe/randomops" {
		t.Fatalf("scenario tag %q", study.ScenarioID())
	}
	y, err := study.FDR()
	if err != nil {
		t.Fatal(err)
	}
	if len(y) != study.NumFFs() {
		t.Fatalf("FDR for %d FFs, want %d", len(y), study.NumFFs())
	}
	var sum float64
	for _, v := range y {
		if v < 0 || v > 1 {
			t.Fatalf("FDR %v out of range", v)
		}
		sum += v
	}
	if sum == 0 {
		t.Fatal("campaign found no failures at all; scenario is inert")
	}
	if got := len(study.FeatureRows()); got != study.NumFFs() {
		t.Fatalf("%d feature rows for %d FFs", got, study.NumFFs())
	}
	// The generic study drives the estimation protocol too.
	est, err := study.EstimateFDR(core.PaperModels()[1].Factory, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(est.TestPred) == 0 {
		t.Fatal("no test predictions")
	}
}

func TestCrossCircuitTransferMatrix(t *testing.T) {
	studies := []*core.Study{
		corpusStudyWithTruth(t, "alupipe/randomops", 4),
		corpusStudyWithTruth(t, "uartser/paced", 4),
		corpusStudyWithTruth(t, "random/noise", 4),
	}
	spec := core.PaperModels()[1] // k-NN
	tm, err := core.CrossCircuit(studies, spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tm.IDs) != 3 || len(tm.Cells) != 3 {
		t.Fatalf("matrix is %dx%d, want 3x3", len(tm.IDs), len(tm.Cells))
	}
	for i := range tm.Cells {
		if len(tm.Cells[i]) != 3 {
			t.Fatalf("row %d has %d cells", i, len(tm.Cells[i]))
		}
		for j, c := range tm.Cells[i] {
			if c.TrainID != tm.IDs[i] || c.TestID != tm.IDs[j] {
				t.Fatalf("cell %d,%d labeled %s→%s", i, j, c.TrainID, c.TestID)
			}
			if c.Diagonal != (i == j) {
				t.Fatalf("cell %d,%d diagonal=%v", i, j, c.Diagonal)
			}
			if c.R2 > 1+1e-9 {
				t.Fatalf("cell %s→%s has R² %v > 1", c.TrainID, c.TestID, c.R2)
			}
			if c.Tau < -1-1e-9 || c.Tau > 1+1e-9 {
				t.Fatalf("cell %s→%s has τ %v outside [-1,1]", c.TrainID, c.TestID, c.Tau)
			}
			if c.MAE < 0 {
				t.Fatalf("cell %s→%s has negative MAE", c.TrainID, c.TestID)
			}
		}
	}
	ti, tj := slices.Index(tm.IDs, "alupipe/randomops"), slices.Index(tm.IDs, "uartser/paced")
	if ti < 0 || tj < 0 {
		t.Fatalf("transfer matrix over %v", tm.IDs)
	}
	if cell := tm.Cells[ti][tj]; cell.TrainID != "alupipe/randomops" || cell.TestID != "uartser/paced" {
		t.Fatalf("cell [%d][%d] is %s→%s", ti, tj, cell.TrainID, cell.TestID)
	}

	var buf bytes.Buffer
	if err := core.RenderTransferMatrix(&buf, tm); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, id := range tm.IDs {
		if !strings.Contains(out, id) {
			t.Fatalf("rendered matrix missing %q:\n%s", id, out)
		}
	}
	if !strings.Contains(out, "Kendall") {
		t.Fatalf("rendered matrix missing the τ block:\n%s", out)
	}
}

func TestCrossCircuitRejectsDegenerateInputs(t *testing.T) {
	spec := core.PaperModels()[0]
	one := corpusStudyWithTruth(t, "random/noise", 2)
	if _, err := core.CrossCircuit([]*core.Study{one}, spec, 1); err == nil {
		t.Fatal("single-study matrix accepted")
	}
	dup := corpusStudyWithTruth(t, "random/noise", 2)
	if _, err := core.CrossCircuit([]*core.Study{one, dup}, spec, 1); err == nil {
		t.Fatal("duplicate scenarios accepted")
	}
}
