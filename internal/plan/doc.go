// Package plan is the active-learning campaign planner: instead of fault-
// injecting a fixed random subset of flip-flops and hoping the model
// generalizes, it closes the loop the follow-up literature calls for
// (arXiv:2002.08882, arXiv:2008.13664) — train a model on what has been
// measured so far, score where the models disagree most, spend the next
// injection batch there, retrain, and stop as soon as the circuit-level FFR
// estimate has converged.
//
// The package provides two acquisition strategies — committee disagreement
// across the model zoo (the default), and the seeded random draw every
// informed strategy is judged against and committee starts cold from — and
// a Loop driver with per-round budgets, convergence criteria
// (FFR-estimate delta plus confidence-interval width from ml/metrics) and
// checkpointed resumability: the loop state is persisted after every round,
// the in-flight round rides fault.Runner's own campaign checkpoints, and
// every selection is a pure function of (features, measured results, round,
// seed) — so an interrupted loop restarts bit-identically, which the runner
// enforces by fingerprint-matching the re-derived round plan against the
// round's checkpoint.
//
// The planner is deliberately decoupled from the core study: it drives any
// Target (core wires studies in via core.NewAdaptiveStudy, the ffr plan CLI
// and the examples/activelearn walkthrough build on that).
package plan
