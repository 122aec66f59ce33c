package repro_test

import (
	"context"
	"fmt"
	"log"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"

	"repro"
)

// The README's embedded code snippets live here as Example functions so the
// compiler (and go vet, in CI) keeps the documentation honest: if the API
// drifts, the build breaks instead of the README rotting. The snippets at
// the paper's injection budget carry no Output comment on purpose — they
// are full experiments, minutes not milliseconds, so `go test` compiles and
// vets them without executing. The walkthroughs (Example_estimate,
// Example_activeLearning, Example_distributed) are small enough to run, and
// their Output lines are the checks they make.

// smallMAC is a reduced MAC study that runs in a fraction of a second:
// shallower FIFOs, narrower counters, a structural flip-flop count (634
// FFs) and a six-packet testbench.
func smallMAC(injectionsPerFF int) (*repro.Study, error) {
	cfg := repro.DefaultStudyConfig()
	cfg.MAC.FIFODepth = 16
	cfg.MAC.StatWidth = 8
	cfg.MAC.TargetFFs = 0
	cfg.Bench.FIFODepth = 16
	cfg.Bench.Packets = 6
	cfg.Bench.MinPayload = 4
	cfg.Bench.MaxPayload = 6
	cfg.InjectionsPerFF = injectionsPerFF
	return repro.NewStudy(cfg)
}

// Example_estimate is the complete Fig. 1 flow on a small device: run the
// fault-injection ground truth, train the paper's k-NN on half the
// flip-flops and predict the other half, then persist the trained model as
// an artifact and reload it — the train-once/predict-forever path ffr serve
// builds on.
func Example_estimate() {
	study, err := smallMAC(30)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("device under test: %d flip-flops, %d cells\n", study.NumFFs(), len(study.Netlist.Cells))
	campaign, err := study.RunGroundTruth()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("campaign: %d SEU injections in %d bit-parallel batches\n", campaign.TotalRuns, campaign.Batches)

	// Measure half the flip-flops, predict the rest.
	spec, err := repro.FindModel("k-NN")
	if err != nil {
		log.Fatal(err)
	}
	est, err := study.EstimateFDR(spec.Factory, repro.PaperTrainFrac, 1)
	if err != nil {
		log.Fatal(err)
	}
	var mae float64
	for i := range est.TestTrue {
		mae += math.Abs(est.TestTrue[i] - est.TestPred[i])
	}
	fmt.Printf("trained on %d flip-flops, predicted %d\n", len(est.TrainIdx), len(est.TestIdx))
	fmt.Printf("mean absolute error on unseen flip-flops: %.3f\n", mae/float64(len(est.TestTrue)))
	fmt.Println("first predictions (true → predicted):")
	for i := range 4 {
		name := study.Netlist.Cells[study.Program.FFCell(est.TestIdx[i])].Name
		fmt.Printf("  %-16s %.3f → %.3f\n", name, est.TestTrue[i], est.TestPred[i])
	}

	// Train once, predict forever: the reloaded artifact predicts
	// bit-identically, so the campaign and the training never run again.
	X := study.FeatureRows()
	y, err := study.FDR()
	if err != nil {
		log.Fatal(err)
	}
	model := spec.Factory()
	if err := model.Fit(X, y); err != nil {
		log.Fatal(err)
	}
	art := repro.NewModelArtifact(spec.Name, model, repro.FeatureNames())
	art.TrainRows = len(X)
	art.TrainHash = repro.ModelDataFingerprint(X, y)
	dir, err := os.MkdirTemp("", "estimate")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "knn.ffrm")
	if err := repro.SaveModel(path, art); err != nil {
		log.Fatal(err)
	}
	reloaded, err := repro.LoadModel(path)
	if err != nil {
		log.Fatal(err)
	}
	same := 0
	for _, x := range X {
		if reloaded.Model.Predict(x) == model.Predict(x) {
			same++
		}
	}
	fmt.Printf("saved and reloaded %q (%s): %d/%d predictions identical\n", reloaded.Name, reloaded.Kind, same, len(X))
	// Output:
	// device under test: 634 flip-flops, 4233 cells
	// campaign: 19020 SEU injections in 298 bit-parallel batches
	// trained on 320 flip-flops, predicted 314
	// mean absolute error on unseen flip-flops: 0.043
	// first predictions (true → predicted):
	//   txfifo/count[0]  1.000 → 0.579
	//   txfifo/count[1]  1.000 → 0.769
	//   txfifo/count[3]  1.000 → 0.672
	//   txfifo/count[4]  1.000 → 0.622
	// saved and reloaded "k-NN" (pipeline[std,knn]): 634/634 predictions identical
}

// Example_activeLearning lets the model choose where to fault-inject next
// instead of drawing flip-flops at random. With the exhaustive campaign as
// the evaluation reference, it pits the committee strategy against the
// random baseline at half the injection budget, then runs the committee
// loop live and compares its FFR estimate with the exhaustive one.
func Example_activeLearning() {
	study, err := smallMAC(16)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := study.RunGroundTruth(); err != nil {
		log.Fatal(err)
	}

	// A shared protocol: a held-out evaluation half, half the pool as
	// injection budget, six rounds. Measurements are replayed from the
	// ground truth — bit-identical to re-injecting, at no simulation cost.
	spec, err := repro.FindModel("k-NN")
	if err != nil {
		log.Fatal(err)
	}
	cmp, err := study.CompareAdaptiveStrategies(repro.AdaptiveStrategyNames(), spec, 0.5, 6, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("full campaign on the %d-FF pool: R²=%.3f on %d held-out flip-flops\n", cmp.PoolFFs, cmp.FullR2, cmp.EvalFFs)
	for _, o := range cmp.Outcomes {
		fmt.Printf("%-9s measured %d (%.0f%% of the injections): R²=%.3f, gap %+.3f\n",
			o.Strategy, o.MeasuredFFs, 100*o.InjectionFrac, o.R2, cmp.FullR2-o.R2)
	}

	// The same loop as a live campaign on half of all flip-flops.
	adaptive, err := repro.NewAdaptiveStudy(study, repro.AdaptiveStudyConfig{
		Model:     spec.Factory,
		ModelName: spec.Name,
		Seed:      2,
		BudgetFFs: study.NumFFs() / 2,
		MaxRounds: 8,
		OnRound: func(r repro.AdaptiveRound) {
			fmt.Printf("round %d: %3d FFs measured, FFR estimate %.4f\n", r.Index, r.MeasuredFFs, r.FFR)
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := adaptive.Run()
	if err != nil {
		log.Fatal(err)
	}
	gt, err := study.FDR()
	if err != nil {
		log.Fatal(err)
	}
	var trueFFR float64
	for _, v := range gt {
		trueFFR += v
	}
	trueFFR /= float64(len(gt))
	fmt.Printf("FFR %.4f vs exhaustive %.4f (error %+.4f) at %.1f%% of the injections\n",
		res.FFR, trueFFR, res.FFR-trueFFR, 100*float64(res.TotalInjections)/float64(len(gt)*16))
	// Output:
	// full campaign on the 320-FF pool: R²=0.768 on 314 held-out flip-flops
	// random    measured 160 (50% of the injections): R²=0.670, gap +0.099
	// committee measured 160 (50% of the injections): R²=0.705, gap +0.063
	// round 0:  40 FFs measured, FFR estimate 0.1031
	// round 1:  80 FFs measured, FFR estimate 0.1260
	// round 2: 120 FFs measured, FFR estimate 0.1364
	// round 3: 160 FFs measured, FFR estimate 0.1545
	// round 4: 200 FFs measured, FFR estimate 0.1539
	// round 5: 240 FFs measured, FFR estimate 0.1543
	// round 6: 280 FFs measured, FFR estimate 0.1565
	// round 7: 317 FFs measured, FFR estimate 0.1572
	// FFR 0.1572 vs exhaustive 0.1569 (error +0.0002) at 50.0% of the injections
}

// Example_quickstart is the README "Quick start" snippet: build the paper's
// study, measure the ground truth, reproduce Table I.
func Example_quickstart() {
	study, err := repro.NewStudy(repro.DefaultStudyConfig())
	if err != nil {
		log.Fatal(err)
	}
	if _, err := study.RunGroundTruth(); err != nil { // Section IV-A ground truth
		log.Fatal(err)
	}
	rows, err := study.Table1(repro.PaperModels(), // Table I reproduction
		repro.PaperCVSplits, repro.PaperTrainFrac, 1)
	if err != nil {
		log.Fatal(err)
	}
	if err := repro.RenderTable1(os.Stdout, rows); err != nil {
		log.Fatal(err)
	}
}

// Example_crossCircuit is the README "Corpus & scenarios" snippet: train an
// FDR model on one circuit, predict another, render the transfer matrices.
func Example_crossCircuit() {
	var studies []*repro.Study
	for _, id := range []string{"alupipe/randomops", "uartser/paced"} {
		sc, err := repro.FindCorpusScenario(id)
		if err != nil {
			log.Fatal(err)
		}
		study, err := repro.NewCorpusStudy(sc, repro.CorpusStudyConfig{
			Scale:           repro.CorpusScaleSmall,
			InjectionsPerFF: 32,
		})
		if err != nil {
			log.Fatal(err)
		}
		if _, err := study.RunGroundTruth(); err != nil {
			log.Fatal(err)
		}
		studies = append(studies, study)
	}
	spec, err := repro.FindModel("k-NN")
	if err != nil {
		log.Fatal(err)
	}
	tm, err := repro.CrossCircuit(studies, spec, 1)
	if err != nil {
		log.Fatal(err)
	}
	if err := repro.RenderTransferMatrix(os.Stdout, tm); err != nil {
		log.Fatal(err)
	}
}

// Example_adaptiveCampaign is the README "Active learning" snippet: replace
// the exhaustive campaign with a committee-guided loop that stops when the
// FFR estimate converges.
func Example_adaptiveCampaign() {
	study, err := repro.NewStudy(repro.DefaultStudyConfig())
	if err != nil {
		log.Fatal(err)
	}
	adaptive, err := repro.NewAdaptiveStudy(study, repro.AdaptiveStudyConfig{
		DeltaTol: 0.005, // committee strategy, k-NN estimate
		Patience: 2,
		OnRound: func(r repro.AdaptiveRound) {
			fmt.Printf("round %d: %d FFs measured, FFR estimate %.4f\n",
				r.Index, r.MeasuredFFs, r.FFR)
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := adaptive.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("FFR %.4f from %d of %d flip-flops (converged=%v)\n",
		res.FFR, len(res.Measured), study.NumFFs(), res.Converged)
}

// Example_harden is `ffr harden -verify` through the facade: load a trained
// artifact, rank the flip-flops by predicted FDR and plan the TMR set that
// fits half the full-TMR area, then verify the plan by rewriting the
// netlist and re-measuring residual FFR. The verify campaign is the one
// ffr coord -harden distributes: the spec with the plan's selection.
func Example_harden() {
	art, err := repro.LoadModel("knn.ffrm") // e.g. from ffr corpus -sweep -out
	if err != nil {
		log.Fatal(err)
	}
	sc, err := repro.FindCorpusScenario("alupipe/randomops")
	if err != nil {
		log.Fatal(err)
	}
	m, err := sc.Materialize(repro.CorpusScaleSmall, 1)
	if err != nil {
		log.Fatal(err)
	}
	plan, err := repro.HardenAdvise(art, m, 0.5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("harden %d of %d FFs: predicted FFR %.4f -> %.4f\n",
		len(plan.Selected), m.NumFFs(), plan.BaseFFR, plan.ResidualFFR)

	v, err := repro.HardenVerify(context.Background(), plan, repro.DistributedCampaignSpec{
		Scenario: sc.ID(),
		Scale:    "small",
		Seed:     1,
	}, repro.CampaignRunnerConfig{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("measured residual %.4f vs baseline %.4f (improved=%v)\n",
		v.MeasuredResidualFFR, v.BaselineFFR, v.Improved())
}

// Example_distributed runs one corpus campaign twice — in this process, and
// split across a coordinator and two workers over HTTP — and checks that the
// coordinator's merged checkpoint is bit-identical to the single-node one.
// Workers receive only chunk indices and rebuild the campaign from the wire
// spec, so which worker ran which chunk, and in what order the coordinator
// merged them, cannot change the result.
func Example_distributed() {
	// 48 flip-flops x 6 injections = 288 jobs in 5 chunks of 64: enough
	// chunks that both workers get work.
	spec := repro.DistributedCampaignSpec{
		Scenario:        "random/noise",
		Scale:           "small",
		Seed:            11,
		InjectionsPerFF: 6,
		CampaignSeed:    77,
		ChunkJobs:       64,
	}
	camp, err := repro.BuildDistributedCampaign(spec, repro.CampaignRunnerConfig{})
	if err != nil {
		log.Fatal(err)
	}
	single, err := camp.SingleNodeFingerprint(context.Background())
	if err != nil {
		log.Fatal(err)
	}

	coord, err := repro.NewFabricCoordinator(repro.FabricCoordinatorConfig{Spec: spec})
	if err != nil {
		log.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	errc := make(chan error, 2)
	for _, name := range []string{"worker-a", "worker-b"} {
		w, err := repro.NewFabricWorker(repro.FabricWorkerConfig{Name: name, Coordinator: srv.URL})
		if err != nil {
			log.Fatal(err)
		}
		go func() { errc <- w.Run(context.Background()) }()
	}
	for range 2 {
		if err := <-errc; err != nil {
			log.Fatal(err)
		}
	}
	if _, err := coord.Wait(context.Background()); err != nil {
		log.Fatal(err)
	}
	merged, _ := coord.CheckpointFingerprint()
	fmt.Printf("checkpoint fingerprint %016x\n", merged)
	fmt.Println("distributed merge equals single-node run:", merged == single)
	// Output:
	// checkpoint fingerprint 443d77e6d137147a
	// distributed merge equals single-node run: true
}
