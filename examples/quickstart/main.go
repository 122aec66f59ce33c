// Quickstart: build a reduced-scale study, run the fault-injection ground
// truth, train the paper's k-NN model on half the flip-flops and predict
// the other half — the complete Fig. 1 flow in one page of code — then
// persist the trained model as an artifact and reload it, showing the
// train-once/predict-forever path ffr serve builds on.
package main

import (
	"fmt"
	"os"
	"path/filepath"

	"repro"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	// A small device keeps the quickstart under a few seconds: shallower
	// FIFOs, narrower counters, structural flip-flop count (~600 FFs).
	cfg := repro.DefaultStudyConfig()
	cfg.MAC.FIFODepth = 16
	cfg.MAC.StatWidth = 8
	cfg.MAC.TargetFFs = 0
	cfg.Bench.FIFODepth = 16
	cfg.Bench.Packets = 6
	cfg.Bench.MinPayload = 4
	cfg.Bench.MaxPayload = 6
	cfg.InjectionsPerFF = 30

	study, err := repro.NewStudy(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("device under test: %d flip-flops, %d cells\n",
		study.NumFFs(), len(study.Netlist.Cells))

	// Ground truth: the flat statistical fault-injection campaign.
	campaign, err := study.RunGroundTruth()
	if err != nil {
		return err
	}
	fmt.Printf("campaign: %d SEU injections in %d bit-parallel batches\n\n",
		campaign.TotalRuns, campaign.Batches)

	// The estimation flow: measure half the flip-flops, predict the rest.
	spec, err := repro.FindModel("k-NN")
	if err != nil {
		return err
	}
	est, err := study.EstimateFDR(spec.Factory, repro.PaperTrainFrac, 1)
	if err != nil {
		return err
	}
	var mae float64
	for i := range est.TestTrue {
		d := est.TestTrue[i] - est.TestPred[i]
		if d < 0 {
			d = -d
		}
		mae += d
	}
	mae /= float64(len(est.TestTrue))
	fmt.Printf("trained on %d flip-flops, predicted %d\n", len(est.TrainIdx), len(est.TestIdx))
	fmt.Printf("mean absolute error on unseen flip-flops: %.3f\n", mae)
	fmt.Println("\nfirst predictions (true → predicted):")
	for i := 0; i < 8 && i < len(est.TestTrue); i++ {
		name := study.Netlist.Cells[study.Program.FFCell(est.TestIdx[i])].Name
		fmt.Printf("  %-28s %.3f → %.3f\n", name, est.TestTrue[i], est.TestPred[i])
	}

	// Train once, predict forever: persist the fitted model and reload it.
	// The reloaded model predicts bit-identically, so the campaign and the
	// training never have to run again (ffr serve serves these artifacts).
	X := study.FeatureRows()
	y, err := study.FDR()
	if err != nil {
		return err
	}
	model := spec.Factory()
	if err := model.Fit(X, y); err != nil {
		return err
	}
	art := repro.NewModelArtifact(spec.Name, model, repro.FeatureNames())
	art.TrainRows = len(X)
	art.TrainHash = repro.ModelDataFingerprint(X, y)
	path := filepath.Join(os.TempDir(), "quickstart-knn.ffrm")
	if err := repro.SaveModel(path, art); err != nil {
		return err
	}
	reloaded, err := repro.LoadModel(path)
	if err != nil {
		return err
	}
	defer os.Remove(path)
	for i, x := range X {
		if reloaded.Model.Predict(x) != model.Predict(x) {
			return fmt.Errorf("reloaded model diverges at flip-flop %d", i)
		}
	}
	fmt.Printf("\nsaved and reloaded %q (%s): %d/%d predictions identical\n",
		reloaded.Name, reloaded.Kind, len(X), len(X))
	return nil
}
