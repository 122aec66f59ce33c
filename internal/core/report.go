package core

import (
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/fault"
	"repro/internal/ml/modelsel"
)

// RenderTable1 writes Table I in the paper's layout.
func RenderTable1(w io.Writer, rows []TableRow) error {
	var sb strings.Builder
	sb.WriteString("PERFORMANCE RESULTS FOR DIFFERENT REGRESSION MODELS\n")
	fmt.Fprintf(&sb, "(cross validation = %d, training size = %.0f %%)\n\n",
		PaperCVSplits, PaperTrainFrac*100)
	fmt.Fprintf(&sb, "%-24s %8s %8s %8s %8s %8s\n", "Model", "MAE", "MAX", "RMSE", "EV", "R2")
	sb.WriteString(strings.Repeat("-", 70))
	sb.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-24s %8.3f %8.3f %8.3f %8.3f %8.3f\n",
			r.Model, r.MAE, r.MAX, r.RMSE, r.EV, r.R2)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// RenderLearningCurve writes a Fig. 2b/3b/4b series as rows of
// train-size %, train R², test R².
func RenderLearningCurve(w io.Writer, model string, points []modelsel.LearningPoint) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "LEARNING CURVE — %s (cross validation fold = %d)\n\n", model, PaperCVSplits)
	fmt.Fprintf(&sb, "%-18s %12s %12s\n", "Training Size %", "Train R2", "Test R2")
	sb.WriteString(strings.Repeat("-", 45))
	sb.WriteByte('\n')
	for _, p := range points {
		fmt.Fprintf(&sb, "%-18.0f %12.3f %12.3f\n", p.TrainFrac*100, p.TrainScore, p.TestScore)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// RenderFold summarizes a Fig. 2a/3a/4a fold: partition sizes and the
// largest test error (the full series are written by the CSV exporters in
// ffr exp).
func RenderFold(w io.Writer, model string, est *EstimateResult) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "FOLD PREDICTION — %s (training size = %.0f %%)\n\n", model, PaperTrainFrac*100)
	fmt.Fprintf(&sb, "train instances: %d, test instances: %d\n", len(est.TrainIdx), len(est.TestIdx))
	var worst float64
	var worstIdx int
	for i := range est.TestTrue {
		if d := math.Abs(est.TestTrue[i] - est.TestPred[i]); d > worst {
			worst = d
			worstIdx = est.TestIdx[i]
		}
	}
	fmt.Fprintf(&sb, "largest test error: %.3f at flip-flop index %d\n", worst, worstIdx)
	_, err := io.WriteString(w, sb.String())
	return err
}

// RenderCampaign summarizes the flat statistical campaign (Section IV-A).
func RenderCampaign(w io.Writer, res *fault.Result) error {
	var sb strings.Builder
	sb.WriteString("FLAT STATISTICAL FAULT INJECTION CAMPAIGN\n\n")
	s := fault.Summarize(res)
	fmt.Fprintf(&sb, "flip-flops:           %d\n", s.FFs)
	fmt.Fprintf(&sb, "injection runs:       %d (%d per flip-flop)\n", s.Injections, res.Injections[0])
	fmt.Fprintf(&sb, "simulation batches:   %d (64-lane bit-parallel)\n", res.Batches)
	fmt.Fprintf(&sb, "mean FDR:             %.4f\n", s.MeanFDR)
	fmt.Fprintf(&sb, "median FDR:           %.4f\n", s.MedianFDR)
	fmt.Fprintf(&sb, "max FDR:              %.3f\n", s.MaxFDR)
	fmt.Fprintf(&sb, "FDR == 0 flip-flops:  %d\n", s.ZeroFDR)
	fmt.Fprintf(&sb, "FDR >= 0.5 flip-flops:%d\n", s.HighFDR)
	hist := fault.Histogram(res.FDR, 10)
	sb.WriteString("\nFDR histogram (10 bins over [0,1]):\n")
	maxCount := 0
	for _, c := range hist {
		if c > maxCount {
			maxCount = c
		}
	}
	for b, c := range hist {
		bar := ""
		if maxCount > 0 {
			bar = strings.Repeat("#", c*50/maxCount)
		}
		fmt.Fprintf(&sb, "  [%.1f,%.1f) %5d %s\n", float64(b)/10, float64(b+1)/10, c, bar)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}
