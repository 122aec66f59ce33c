// Package repro is the public API of this reproduction of "On the
// Estimation of Complex Circuits Functional Failure Rate by Machine
// Learning Techniques" (Lange et al., DSN 2019).
//
// The package is a facade over the implementation packages in internal/:
// it exposes the end-to-end study (circuit generation → synthesis →
// simulation → feature extraction → fault-injection ground truth →
// regression models → paper experiments), the circuit corpus, the model
// artifact store and prediction service, and the active-learning campaign
// planner, all with stable names. The Example functions in this package's
// tests and most of cmd/ffr are written against this surface;
// docs/ARCHITECTURE.md maps the packages behind it.
//
// Quick start:
//
//	study, err := repro.NewStudy(repro.DefaultStudyConfig())
//	...
//	campaign, err := study.RunGroundTruth()
//	rows, err := study.Table1(repro.PaperModels(), repro.PaperCVSplits,
//	    repro.PaperTrainFrac, 1)
//	repro.RenderTable1(os.Stdout, rows)
//
// Adaptive campaigns replace the exhaustive ground truth with a closed
// select → inject → retrain loop:
//
//	adaptive, err := repro.NewAdaptiveStudy(study, repro.AdaptiveStudyConfig{
//	    Strategy: repro.StrategyCommittee,
//	})
//	result, err := adaptive.Run()
package repro
