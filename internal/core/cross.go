package core

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/ml"
	"repro/internal/ml/metrics"
)

// Cross-circuit generalization: the question the follow-up literature asks
// of the paper's compact models — does an FDR regressor trained on one
// circuit/workload transfer to another? CrossCircuit measures every ordered
// (train, test) pair of a study set and reports a transfer matrix of R²,
// Kendall τ and MAE. The feature schema is circuit-independent (the same 25
// per-flip-flop features extract from any netlist), which is what makes the
// experiment well-posed.

// TransferCell is one (train → test) measurement.
type TransferCell struct {
	// TrainID and TestID are the scenario tags of the pair.
	TrainID, TestID string
	// R2 is the coefficient of determination of the predictions on the
	// test study's ground truth.
	R2 float64
	// Tau is the Kendall rank correlation — the ranking quality, which is
	// what selective-hardening decisions consume and which often survives
	// a circuit change even when calibration (R²) does not.
	Tau float64
	// MAE is the mean absolute error.
	MAE float64
	// Diagonal marks a self-transfer cell (measured on a held-out split
	// rather than on the training rows).
	Diagonal bool
}

// TransferMatrix is the full cross-circuit experiment result: Cells[i][j]
// transfers from IDs[i] to IDs[j].
type TransferMatrix struct {
	Model string
	// FaultModel is the canonical fault-model string the studies' ground
	// truths were measured under (fault.Model.String); set by CrossCircuit
	// from the studies' shared configuration.
	FaultModel string
	IDs        []string
	Cells      [][]TransferCell
}

// CrossCircuit trains spec on each study's full measured dataset and
// evaluates it on every other study's ground truth. Diagonal cells are the
// within-circuit baseline, measured with the paper's 50 % stratified
// protocol (training on all rows and scoring the same rows would report fit,
// not generalization). Every study must have its ground truth computed.
func CrossCircuit(studies []*Study, spec ModelSpec, seed int64) (*TransferMatrix, error) {
	if len(studies) < 2 {
		return nil, fmt.Errorf("core: cross-circuit transfer needs at least 2 studies, got %d", len(studies))
	}
	n := len(studies)
	tm := &TransferMatrix{
		Model:      spec.Name,
		FaultModel: studies[0].Config.Model.String(),
		IDs:        make([]string, n),
		Cells:      make([][]TransferCell, n),
	}
	seen := map[string]bool{}
	for i, s := range studies {
		id := s.ScenarioID()
		if seen[id] {
			return nil, fmt.Errorf("core: cross-circuit transfer: duplicate scenario %q", id)
		}
		seen[id] = true
		tm.IDs[i] = id
		if fm := s.Config.Model.String(); fm != tm.FaultModel {
			return nil, fmt.Errorf("core: cross-circuit transfer: %s measured under fault model %q, %s under %q",
				tm.IDs[0], tm.FaultModel, id, fm)
		}
	}

	// Train once per source study, score everywhere.
	for i, train := range studies {
		tm.Cells[i] = make([]TransferCell, n)
		yTrain, err := train.FDR()
		if err != nil {
			return nil, fmt.Errorf("core: cross-circuit transfer, train %s: %w", tm.IDs[i], err)
		}
		model := spec.Factory()
		if err := model.Fit(train.FeatureRows(), yTrain); err != nil {
			return nil, fmt.Errorf("core: cross-circuit transfer, fit on %s: %w", tm.IDs[i], err)
		}
		for j, test := range studies {
			cell := TransferCell{TrainID: tm.IDs[i], TestID: tm.IDs[j]}
			if i == j {
				est, err := train.EstimateFDR(spec.Factory, PaperTrainFrac, seed)
				if err != nil {
					return nil, fmt.Errorf("core: cross-circuit transfer, diagonal %s: %w", tm.IDs[i], err)
				}
				cell.Diagonal = true
				cell.R2 = metrics.R2(est.TestTrue, est.TestPred)
				cell.Tau = metrics.KendallTau(est.TestTrue, est.TestPred)
				cell.MAE = metrics.MAE(est.TestTrue, est.TestPred)
			} else {
				yTest, err := test.FDR()
				if err != nil {
					return nil, fmt.Errorf("core: cross-circuit transfer, test %s: %w", tm.IDs[j], err)
				}
				pred := ml.PredictAll(model, test.FeatureRows())
				cell.R2 = metrics.R2(yTest, pred)
				cell.Tau = metrics.KendallTau(yTest, pred)
				cell.MAE = metrics.MAE(yTest, pred)
			}
			tm.Cells[i][j] = cell
		}
	}
	return tm, nil
}

// RenderTransferMatrix writes the train-on-row/predict-on-column matrices
// (R² and Kendall τ; diagonal cells marked with * as held-out
// within-circuit baselines).
func RenderTransferMatrix(w io.Writer, tm *TransferMatrix) error {
	label := tm.Model
	if tm.FaultModel != "" {
		label += ", fault model " + tm.FaultModel
	}
	var sb strings.Builder
	render := func(title string, value func(TransferCell) float64) {
		fmt.Fprintf(&sb, "%s (%s), train row → test column:\n%-20s", title, label, "")
		for _, id := range tm.IDs {
			fmt.Fprintf(&sb, " %18s", id)
		}
		sb.WriteByte('\n')
		for i, id := range tm.IDs {
			fmt.Fprintf(&sb, "%-20s", id)
			for _, cell := range tm.Cells[i] {
				mark := " "
				if cell.Diagonal {
					mark = "*"
				}
				fmt.Fprintf(&sb, " %17.3f%s", value(cell), mark)
			}
			sb.WriteByte('\n')
		}
	}
	render("R²", func(c TransferCell) float64 { return c.R2 })
	sb.WriteByte('\n')
	render("Kendall τ", func(c TransferCell) float64 { return c.Tau })
	_, err := io.WriteString(w, sb.String())
	return err
}
