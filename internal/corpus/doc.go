// Package corpus is the circuit/scenario registry that turns the repository
// from a single-DUT reproduction into a corpus of devices under test. Each
// registered Entry bundles a deterministic, seedable netlist generator with
// one or more testbench workloads; a (family, workload) pair is a Scenario,
// the unit everything downstream consumes: the corpus CLI enumerates and
// sweeps scenarios, core studies materialize them, cross-circuit experiments
// train on one and predict on another, and saved model artifacts carry their
// scenario tags so the prediction service can tell models apart.
//
// A Scenario also owns what a campaign over it needs: Campaign resolves a
// requested budget and seed against the family's defaults, Materialize runs
// the front end, and the resulting Materialized draws the injection plan
// (Jobs) and is the one value that turns into a fault.Runner (Runner). The
// paper's own study is a scenario as well — MACScenario, an unregistered
// entry built by the same helper as the registered mac10ge family.
//
// The built-in corpus covers five DUT families (the paper's MAC10GE-lite,
// a pipelined ALU datapath, a round-robin arbiter/switch slice, a UART-style
// serializer with a baud timer, and a randomized sequential circuit) under
// nine workload variants; external packages can Register more.
package corpus
