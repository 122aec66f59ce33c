package repro_test

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro"
)

// The README's embedded code snippets live here as Example functions so the
// compiler (and go vet, in CI) keeps the documentation honest: if the API
// drifts, the build breaks instead of the README rotting. They carry no
// Output comment on purpose — at the paper's injection budget they are
// full experiments, minutes not milliseconds; `go test` compiles and vets
// them without executing, and the runnable walkthroughs under examples/
// (exercised by `make examples` in CI) cover execution.

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
// netlist and re-measuring residual FFR.
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

	v, err := repro.HardenVerify(context.Background(), plan, repro.HardenVerifyConfig{
		Scenario: sc,
		Scale:    repro.CorpusScaleSmall,
		Seed:     1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("measured residual %.4f vs baseline %.4f (improved=%v)\n",
		v.MeasuredResidualFFR, v.BaselineFFR, v.Improved())
}
