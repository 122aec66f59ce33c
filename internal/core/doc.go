// Package core implements the paper's contribution: the Functional
// De-Rating estimation flow of Fig. 1. A Study is a materialized corpus
// scenario (package corpus does the front end and wires every campaign
// runner) plus a campaign configuration; the paper's MAC study is the
// scenario corpus.MACScenario and takes no path of its own. On a Study the
// package runs the flat statistical fault-injection campaign and exposes
// the machine-learning estimation
// protocol used by every experiment in Section IV (Table I, Figures 2–4),
// the cross-circuit transfer study, and the active-learning extension:
// NewAdaptiveStudy makes a Study the target of the plan package's campaign
// planner so the model chooses where to inject next, and CompareAdaptiveStrategies
// replays the ground truth to score the planner, and the same injections
// spread thinly over every flip-flop, against full-campaign training.
package core
