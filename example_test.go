package repro_test

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"os"

	"repro"
)

// The README's embedded code snippets live here as Example functions so the
// compiler (and go vet, in CI) keeps the documentation honest: if the API
// drifts, the build breaks instead of the README rotting. Most carry no
// Output comment on purpose — at the paper's injection budget they are
// full experiments, minutes not milliseconds, so `go test` compiles and
// vets them without executing. Example_distributed is small enough to run,
// and its Output line is the check it makes.

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
		Strategy: repro.StrategyCommittee,
		DeltaTol: 0.005,
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
