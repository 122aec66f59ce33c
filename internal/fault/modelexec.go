package fault

import (
	"sort"

	"repro/internal/netlist"
	"repro/internal/sim"
)

// modelexec.go lowers fault models onto the runner's batch machinery. A
// scheduled Job stays one lane of one batch regardless of model; what the
// model changes is the list of engine events the lane replays. expandJob
// maps a job to its events:
//
//   - SEU:       one flip at the job cycle (the original behavior).
//   - MBU:       one flip per cluster member at the job cycle.
//   - stuck-at:  one force per held cycle, clamped to the stimulus end.
//   - SET:       one flip at cycle+1 per flip-flop that latched the pulse,
//     plus output glitches (appendGlitches) for the pulse cycle itself.
//
// The lane's last event carries a fin marker: the batch window keeps a lane
// "pending" — ineligible for settling — until its final event has been
// applied, which is what keeps streaming early exit sound for multi-event
// models (a stuck-at lane that still has forces coming, or a SET lane whose
// capture lands next cycle, can re-diverge and must not be declared
// re-converged yet). A SET pulse nothing latches ends on a glitch, which
// retires the lane once its row has been observed. Lanes with no events at
// all are never pending, and a batch with no events skips simulation
// entirely — its trace is the golden trace.

// effKind is the engine operation of one scheduled event.
type effKind uint8

const (
	// effFlip XORs the flip-flop state (SEU, MBU, SET capture).
	effFlip effKind = iota
	// effForce0 and effForce1 overwrite the flip-flop state (stuck-at).
	effForce0
	effForce1
)

// laneGlitch is one SET output glitch: toggle monitor mon's sample at the
// given cycle in the lanes of mask of batch word word (fin: the lane's last
// event). Glitches are applied to the recorded rows before a stream observes
// them, never to engine state — the pulse is combinational and leaves no
// state behind beyond what expandJob already schedules as capture flips.
type laneGlitch struct {
	cycle int
	mon   int
	mask  uint64
	word  int
	fin   bool
}

// setEffect is the precomputed consequence of pulsing one combinational
// target at one golden cycle: the flip-flops whose captured next-state
// toggles, and the monitor indices whose sampled output toggles.
type setEffect struct {
	ffs  []int
	mons []int
}

// setKey indexes setEffect maps by (target, cycle).
func setKey(target, cycle int) int64 { return int64(target)<<32 | int64(cycle) }

// ffClusters lazily computes the MBU proximity clusters for the runner's
// cluster size. Clusters depend only on the netlist and the model, so they
// are shared across all workers, Run calls and resumes.
func (r *Runner) ffClusters() [][]int {
	r.clusterOnce.Do(func() {
		r.clusters = netlist.FFProximityClusters(r.p.Netlist(), r.model.Size)
	})
	return r.clusters
}

// setEffects precomputes the effect of every distinct (target, cycle) pulse
// in the plan with one golden-rate interpreter replay, and returns nil for
// non-SET models. The replay exploits that every SET job is its lane's
// first and only fault: lane state at the pulse cycle equals golden, so the
// pulse outcome is a pure function of (target, cycle) and can be derived
// once on a lane-uniform engine — per cycle of interest, evaluate the
// baseline, then re-evaluate the suffix with each target's output inverted
// (sim.Engine.EvalPulse) and diff the captured D pins and monitored
// outputs. Batches then replay only the resulting state flips, so the
// kernel never needs the pruned combinational node itself. A pulse on a
// node whose fanout is entirely dead (unmonitored, no downstream FF)
// produces an empty effect — the transient is masked, matching hardware.
//
// The pulse is modeled for exactly one evaluation: a pulse that reaches a
// loopback output is observed by the monitors (when monitored) but is not
// re-injected into the next cycle's inputs.
func (r *Runner) setEffects(jobs []Job) map[int64]setEffect {
	if r.model.Kind != KindSET {
		return nil
	}
	byCycle := make(map[int][]int)
	fx := make(map[int64]setEffect, len(jobs))
	for _, j := range jobs {
		key := setKey(j.FF, j.Cycle)
		if _, dup := fx[key]; dup {
			continue
		}
		fx[key] = setEffect{}
		byCycle[j.Cycle] = append(byCycle[j.Cycle], j.FF)
	}
	for _, targets := range byCycle {
		sort.Ints(targets)
	}
	numFFs := r.p.NumFFs()
	baseD := make([]uint64, numFFs)
	baseOut := make([]uint64, len(r.monitors))
	e := sim.NewEngine(r.p)
	sim.Run(e, r.stim, sim.RunConfig{PreEval: func(c int) {
		targets := byCycle[c]
		if len(targets) == 0 {
			return
		}
		// Inputs for cycle c are driven; evaluate the baseline. sim.Run
		// re-evaluates right after PreEval returns, so the extra passes
		// here are invisible to the replay.
		e.Eval()
		for ff := 0; ff < numFFs; ff++ {
			baseD[ff] = e.FFD(ff)
		}
		for mi, port := range r.monitors {
			baseOut[mi] = e.Output(port)
		}
		for _, t := range targets {
			e.EvalPulse(t)
			var eff setEffect
			for ff := 0; ff < numFFs; ff++ {
				if e.FFD(ff) != baseD[ff] {
					eff.ffs = append(eff.ffs, ff)
				}
			}
			for mi, port := range r.monitors {
				if e.Output(port) != baseOut[mi] {
					eff.mons = append(eff.mons, mi)
				}
			}
			fx[setKey(t, c)] = eff
		}
	}})
	return fx
}

// expandJob appends the engine events realizing one scheduled job under the
// runner's fault model, targeting the lanes of mask. It returns dst
// unchanged when the job has no engine effect (a fully masked SET pulse, or
// one at the last cycle with nothing left to capture it).
func (r *Runner) expandJob(dst []flipOp, fx map[int64]setEffect, j Job, mask uint64) []flipOp {
	switch r.model.Kind {
	case KindMBU:
		cluster := r.ffClusters()[j.FF]
		for i, ff := range cluster {
			dst = append(dst, flipOp{cycle: j.Cycle, ff: ff, mask: mask, fin: i == len(cluster)-1})
		}
	case KindStuck0, KindStuck1:
		kind := effForce0
		if r.model.Kind == KindStuck1 {
			kind = effForce1
		}
		last := j.Cycle + r.model.Duration - 1
		if end := r.stim.Cycles() - 1; last > end {
			last = end
		}
		for c := j.Cycle; c <= last; c++ {
			dst = append(dst, flipOp{cycle: c, ff: j.FF, mask: mask, kind: kind, fin: c == last})
		}
	case KindSET:
		// The pulse latches into the following cycle's state; a pulse at
		// the final cycle has no following cycle to latch into.
		if j.Cycle+1 < r.stim.Cycles() {
			eff := fx[setKey(j.FF, j.Cycle)]
			for i, ff := range eff.ffs {
				dst = append(dst, flipOp{cycle: j.Cycle + 1, ff: ff, mask: mask, fin: i == len(eff.ffs)-1})
			}
		}
	default: // SEU
		dst = append(dst, flipOp{cycle: j.Cycle, ff: j.FF, mask: mask, fin: true})
	}
	return dst
}

// appendGlitches appends the job's SET output glitches to dst; a no-op for
// every other model.
func (r *Runner) appendGlitches(dst []laneGlitch, fx map[int64]setEffect, j Job, mask uint64) []laneGlitch {
	if r.model.Kind != KindSET {
		return dst
	}
	for _, mi := range fx[setKey(j.FF, j.Cycle)].mons {
		dst = append(dst, laneGlitch{cycle: j.Cycle, mon: mi, mask: mask})
	}
	return dst
}

// applyWideOp performs one scheduled event on the kernel engine.
func applyWideOp(e *sim.KernelEngine, f *flipOp) {
	switch f.kind {
	case effForce0:
		e.ForceFF(f.ff, f.word, f.mask, false)
	case effForce1:
		e.ForceFF(f.ff, f.word, f.mask, true)
	default:
		e.FlipFF(f.ff, f.word, f.mask)
	}
}
