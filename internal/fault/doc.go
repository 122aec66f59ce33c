// Package fault implements the paper's flat statistical fault-injection
// campaign (Section IV-A) and generalizes it over pluggable fault models:
// faults are injected at random times during the active simulation phase,
// runs are classified at the applicative level against a golden reference,
// and the per-target Functional De-Rating factor is the fraction of failing
// runs.
//
// The Model type selects what one injection physically is. The zero value —
// and the paper's reference — is the SEU: invert the value stored in one
// flip-flop for one cycle. The other models reuse the exact same plan,
// packing, sharding and checkpoint machinery: MBU flips a spatial cluster
// of flip-flops (netlist proximity standing in for placement), stuck-at-0/1
// holds a flip-flop at a value for a duration, SET pulses a combinational
// cell's output for one evaluation (latching only where a downstream
// flip-flop samples it), and any model can be windowed to a fraction of the
// active phase. Every model is bit-identical, target for target, to a full
// replay on the interpreter (sim.Engine) packed in plan order, and the SEU
// model is bit-identical to the pre-model campaign — both properties are
// pinned by the equivalence suite.
//
// The campaign exploits bit-parallel simulation: 256 independent injection
// runs execute per pass of the compiled kernel. Execution is owned by Runner.
// Prepare turns an injection plan into a Plan — packed by injection cycle,
// in fixed-size chunks, and everything simulating one needs, each derived
// once — whose chunks a bounded worker pool simulates; a Ledger opened on the
// Plan records the finished chunks, checkpoints them to disk for exact resume
// (refusing a checkpoint of another plan, golden trace, criterion, fault
// model or geometry, and one an earlier build packed in plan order) and
// folds them deterministically: worker count and chunk size never change the
// outcome. A local run and a distributed one (package
// fabric) differ only in who simulates the chunks. Outside this package a
// Runner is built in one place, corpus.Materialized.Runner, which hands it
// the golden trace and the snapshots of the materialization's one golden
// run: the Runner simulates none of its own.
//
// The same machinery serves partial campaigns: the core estimation flow
// injects only a training subset, and the active-learning planner (package
// plan) runs every adaptive round on a checkpointed Runner, whose plan
// fingerprints are what make interrupted loops resume bit-identically.
package fault
