package fault

import (
	"math/bits"
	"slices"

	"repro/internal/sim"
)

// wide.go is the batch path, the one way a Runner simulates faults: chunks
// run as wide batches of W 64-lane groups (W = sim.DefaultKernelWords) on
// compiled fused-op bytecode. A chunk's verdicts land in one mask per
// 64-lane group of the plan's packing — masks[(pos-lo)/64], bit (pos-lo)%64
// for packed position pos — which is the checkpoint format, so wide
// batches never cross chunk boundaries and masks do not depend on W.
//
// Early exit runs per lane over the shared window: a lane is decided once a
// stream confirmed it failed or it settled back to golden state. Decided
// lanes keep simulating while the window runs, which is sound because
// settled lanes evolve identically to golden (their recorded rows equal the
// golden rows) and stream-confirmed failures are final regardless of the
// trace suffix. Each group's stream sees every row of the window, SET output
// glitches included, so when the window stops its Verdict is the group's
// verdict: nothing classifies a batch twice.
//
// It is also mostly wasted: a few latent lanes per batch stay undecided to
// the end of the stimulus. So a chunk is a work list of scheduled positions
// simulated in rounds. Each round packs its list, in order, into wide
// batches (round one is the plan's own packing). A batch stops at the first
// snapshot boundary that leaves at most 1/repackFraction of its lanes
// undecided; the decided lanes are classified then and there, and the
// stragglers join the next round's list, where they are re-injected from
// their own injection cycle packed densely with the other batches'
// stragglers. A list that fits one batch is the final round and runs until
// every lane is decided. Re-running a lane cannot change its verdict: lanes
// are independent and a lane's events are a pure function of its job
// (expandJob, appendGlitches), so nothing is carried between rounds.
//
// A batch's bookkeeping is bounded by its window, not the stimulus: the
// worker's traces hold the golden trace between batches, a batch records its
// window and glitches into them and puts those rows back; its events are
// ordered in linear time (flipSorter).

// repackFraction sets the cut: a batch is repacked once at most a quarter of
// its lanes are undecided, so four cut batches' stragglers fill at most one
// batch of the next round and rounds shrink geometrically. Swept on the MAC
// ground truth (simulated cycles): never cutting 23.4 k, 1/8 14.4 k, 1/4
// 13.0 k, 1/3 15.1 k (4×85 stragglers overflow one batch), 1/2 12.8 k but
// slower (a third round's fixed costs), 3/4 15.1 k.
const repackFraction = 4

// kernel returns the program's kernel keeping exactly the output ports the
// campaign observes: the monitored ports and every loopback source (the
// stimulus reads those back each cycle). Everything else is dead fanout to
// the campaign and is pruned. The program memoizes it per port set.
func (r *Runner) kernel() (*sim.Kernel, error) {
	return r.p.Kernel(r.stim.ObservedOutputs(r.monitors))
}

// wideWorkerState is the reusable per-worker simulation state: the wide
// engine, one faulty-trace buffer and stream per batch word, the
// per-word lane bookkeeping, the window hooks reading it and the chunk's
// work lists, all recycled across wide batches so a steady-state batch
// allocates nothing beyond the classifier's own streams.
type wideWorkerState struct {
	golden *sim.Trace
	e      *sim.KernelEngine
	// traces equal the golden trace between batches (see the file comment).
	traces []*sim.Trace
	flips  []flipOp
	sorter flipSorter
	// glitches are the batch's SET output glitches in cycle order.
	glitches []laneGlitch
	// work is the current round's scheduled positions, next the stragglers
	// its batches leave for the following round.
	work, next []int

	// The current batch, as its window hooks see it: the next flip and
	// glitch to apply, the groups in use and their streams and lane sets.
	ptr, gptr int
	groups    int
	streams   []Stream
	used      []uint64
	pending   []uint64
	failed    []uint64
	settled   []uint64
	// cutAt stops the window at a snapshot boundary leaving this many lanes
	// or fewer undecided: 0 on a final round.
	cutAt int
	// window is the hook set handed to sim.RunWindowWide, bound once.
	window sim.WideWindowConfig

	// Lane occupancy of the current batch: the lanes undecided when the
	// snapshot interval in progress began at cycle since, and the
	// lane-cycles the closed intervals spent on such lanes.
	undecidedLanes, since, activeLaneCycles int
}

func newWideWorkerState(r *Runner, cp *Plan) *wideWorkerState {
	W := sim.DefaultKernelWords
	ws := &wideWorkerState{
		golden:  cp.golden,
		e:       sim.NewKernelEngine(cp.kern, W),
		traces:  make([]*sim.Trace, W),
		flips:   make([]flipOp, 0, W*sim.Lanes),
		streams: make([]Stream, W),
		used:    make([]uint64, W),
		pending: make([]uint64, W),
		failed:  make([]uint64, W),
		settled: make([]uint64, W),
	}
	for i := range ws.traces {
		ws.traces[i] = sim.NewTrace(r.monitors, r.stim.Cycles())
		ws.traces[i].CopyCycles(cp.golden, 0, r.stim.Cycles())
	}
	ws.window = sim.WideWindowConfig{
		Monitors:   r.monitors,
		PreEval:    ws.applyEvents,
		OnCycle:    ws.onCycle,
		OnSnapshot: ws.onSnapshot,
	}
	return ws
}

// applyEvents is the window's injection hook: apply the events scheduled
// for cycle c, retiring lanes from pending on their final event.
func (ws *wideWorkerState) applyEvents(c int) {
	for ws.ptr < len(ws.flips) && ws.flips[ws.ptr].cycle == c {
		f := &ws.flips[ws.ptr]
		applyWideOp(ws.e, f)
		if f.fin {
			ws.pending[f.word] &^= f.mask
		}
		ws.ptr++
	}
}

// onCycle XORs cycle c's glitches into the recorded rows, retiring lanes
// from pending on their final event, feeds the rows to the groups' streams
// and stops the window once every lane is decided.
func (ws *wideWorkerState) onCycle(c int) bool {
	for ; ws.gptr < len(ws.glitches) && ws.glitches[ws.gptr].cycle == c; ws.gptr++ {
		gl := &ws.glitches[ws.gptr]
		ws.traces[gl.word].XORWord(c, gl.mon, gl.mask)
		if gl.fin {
			ws.pending[gl.word] &^= gl.mask
		}
	}
	gr := ws.golden.Row(c)
	undecided := uint64(0)
	for g := 0; g < ws.groups; g++ {
		ws.failed[g] = ws.streams[g].Observe(c, gr, ws.traces[g].Row(c))
		undecided |= ws.undecided(g)
	}
	return undecided == 0
}

// onSnapshot settles the lanes that re-converged to golden state with no
// event still pending, and stops the window once few enough lanes are left
// undecided: none, or on a non-final round the share worth repacking.
func (ws *wideWorkerState) onSnapshot(c int, diverged []uint64) bool {
	ws.closeInterval(c)
	ws.undecidedLanes = 0
	for g := 0; g < ws.groups; g++ {
		ws.settled[g] = ws.used[g] &^ diverged[g] &^ ws.pending[g]
		ws.undecidedLanes += bits.OnesCount64(ws.undecided(g))
	}
	return ws.undecidedLanes <= ws.cutAt
}

// closeInterval accounts the snapshot interval ending at cycle c — whole, or
// cut short by the end of the window — to the lanes undecided at its start.
func (ws *wideWorkerState) closeInterval(c int) {
	ws.activeLaneCycles += ws.undecidedLanes * (c - ws.since)
	ws.since = c
}

// undecided returns group g's lanes neither confirmed failed nor settled.
func (ws *wideWorkerState) undecided(g int) uint64 {
	return ws.used[g] &^ (ws.settled[g] | ws.failed[g])
}

// runChunkWide simulates chunk ci in rounds of wide batches (see the file
// comment) and returns its failure masks, one per 64-lane batch of the
// plan's packing, plus the engine cycles run, re-runs included.
func (r *Runner) runChunkWide(ws *wideWorkerState, cp *Plan, ci int) ([]uint64, int64) {
	lo, hi := cp.sh.chunkRange(ci)
	masks := make([]uint64, cp.sh.chunkBatches(ci))
	work := ws.work[:0]
	for pos := lo; pos < hi; pos++ {
		work = append(work, pos)
	}
	wide := ws.e.Words() * sim.Lanes
	var simCycles int64
	for len(work) > 0 {
		final := len(work) <= wide
		ws.next = ws.next[:0]
		for i := 0; i < len(work); i += wide {
			simCycles += int64(r.runBatchWide(ws, cp, lo, work[i:min(i+wide, len(work))], final, masks))
		}
		work, ws.next = ws.next, work
	}
	ws.work = work
	return masks, simCycles
}

// runBatchWide simulates the scheduled positions batch as one wide batch,
// lane i%64 of group i/64 carrying batch[i]. It ORs the decided lanes'
// verdicts into the chunk's masks (lo is the chunk's first position),
// appends the positions still undecided — none when final — to ws.next, and
// returns the window length simulated. The window is counted once per wide
// batch — each additional word rides the same combinational passes — so the
// simulated-cycle totals reflect the widening win.
func (r *Runner) runBatchWide(ws *wideWorkerState, cp *Plan, lo int, batch []int, final bool, masks []uint64) int {
	snaps, golden := cp.snaps, cp.golden
	groups := (len(batch) + sim.Lanes - 1) / sim.Lanes
	carried := len(ws.next)
	ws.flips, ws.glitches = ws.flips[:0], ws.glitches[:0]
	ws.ptr, ws.gptr, ws.groups, ws.cutAt = 0, 0, groups, 0
	ws.undecidedLanes, ws.activeLaneCycles = len(batch), 0
	if !final {
		ws.cutAt = len(batch) / repackFraction
	}
	used, failed, settled := ws.used, ws.failed, ws.settled
	for g := 0; g < groups; g++ {
		used[g], failed[g], settled[g] = 0, 0, 0
		var eventless uint64
		for lane, pos := range batch[g*sim.Lanes : min((g+1)*sim.Lanes, len(batch))] {
			job := cp.jobs[cp.order[pos]]
			laneMask := uint64(1) << uint(lane)
			n, k := len(ws.flips), len(ws.glitches)
			ws.flips = r.expandJob(ws.flips, cp.setFX, job, laneMask)
			ws.glitches = r.appendGlitches(ws.glitches, cp.setFX, job, laneMask)
			for i := n; i < len(ws.flips); i++ {
				ws.flips[i].word = g
			}
			for i := k; i < len(ws.glitches); i++ {
				ws.glitches[i].word = g
			}
			if len(ws.flips) == n {
				if len(ws.glitches) == k {
					eventless |= laneMask
				} else {
					// A pulse nothing latches, or one at the last cycle:
					// its last event is its glitch.
					ws.glitches[len(ws.glitches)-1].fin = true
				}
			}
			used[g] |= laneMask
		}
		// Eventless lanes are never pending: their state is golden forever.
		ws.pending[g] = used[g] &^ eventless
	}
	ws.flips = ws.sorter.sort(ws.flips)
	slices.SortFunc(ws.glitches, func(a, b laneGlitch) int { return a.cycle - b.cycle })

	// A wide batch with no events at all (possible under SET) needs no
	// simulation: every lane is settled from the start, its trace golden's.
	var start, stop int
	if len(ws.flips) == 0 && len(ws.glitches) == 0 {
		copy(settled[:groups], used)
	} else {
		first := r.stim.Cycles()
		if len(ws.flips) > 0 {
			first = ws.flips[0].cycle
		}
		if len(ws.glitches) > 0 {
			first = min(first, ws.glitches[0].cycle)
		}
		start = snaps.SnapCycle(snaps.IndexAtOrBefore(first))
		for g := 0; g < groups; g++ {
			ws.streams[g] = r.cls.StartStream(golden, used[g], start)
		}
		ws.since = start
		ws.window.Traces = ws.traces[:groups]
		stop = sim.RunWindowWide(ws.e, r.stim, snaps, first, ws.window)
		ws.closeInterval(stop)
	}
	for g := 0; g < groups; g++ {
		r.metrics.observeBatch(start, stop, r.stim.Cycles(), used[g], failed[g], settled[g])
		// A window that reached the end of the stimulus decided every lane.
		var repack uint64
		if stop < r.stim.Cycles() {
			repack = ws.undecided(g)
		}
		group := batch[g*sim.Lanes:]
		// An eventless batch ran no stream: every lane passes.
		if stop > start {
			for m := ws.streams[g].Verdict() & (used[g] &^ repack); m != 0; m &= m - 1 {
				at := group[bits.TrailingZeros64(m)] - lo
				masks[at/sim.Lanes] |= 1 << uint(at%sim.Lanes)
			}
		}
		for m := repack; m != 0; m &= m - 1 {
			ws.next = append(ws.next, group[bits.TrailingZeros64(m)])
		}
		ws.traces[g].CopyCycles(golden, start, stop)
	}
	r.metrics.observeWideBatch(ws.activeLaneCycles, (stop-start)*ws.e.Words()*sim.Lanes, len(ws.next)-carried)
	return stop - start
}
