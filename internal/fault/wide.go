package fault

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"

	"repro/internal/sim"
)

// wide.go is the kernel backend's batch path: chunks are simulated as wide
// batches of W consecutive 64-lane groups (W = sim.DefaultKernelWords) on
// compiled fused-op bytecode instead of one group at a time on the
// interpreter. Group g of a wide batch covers exactly the jobs narrow
// batch wb+g would, in the same scheduled order, and emits its failure
// mask at the same position of the chunk's mask slice — so chunk masks,
// checkpoints and merged results are bit-identical to the interpreter path
// and wide batches never cross chunk boundaries.
//
// Early exit runs per group over the shared window: the wide batch stops
// once EVERY group's lanes are decided (confirmed failed or settled back
// to golden). Groups that decide early keep simulating until the last
// straggler, which is sound because settled lanes evolve identically to
// golden (their recorded rows equal the golden fill the narrow path uses)
// and stream-confirmed failures are final regardless of the trace suffix —
// the per-batch classification below is post hoc over the reconstructed
// trace, exactly like the narrow path.

// kernelCache memoizes compiled kernels process-wide, keyed by program
// identity and the kept-port signature. Studies build an ephemeral Runner
// per partial campaign over the same program; without the cache every one
// of those would re-run the compiler pipeline. Kernels are immutable after
// BuildKernel (all mutable state lives in KernelEngine), so sharing across
// runners and goroutines is safe. Entries live until process exit, bounded
// by the number of distinct (program, monitor-set) pairs.
var kernelCache sync.Map // kernelKey -> *kernelEntry

type kernelKey struct {
	p     *sim.Program
	ports string
}

type kernelEntry struct {
	once sync.Once
	k    *sim.Kernel
	err  error
}

// kernel compiles the program once per (program, observed ports), keeping
// exactly the output ports the campaign observes: the monitored ports and
// every loopback source (the stimulus reads those back each cycle).
// Everything else is dead fanout to the campaign and is pruned.
func (r *Runner) kernel() (*sim.Kernel, error) {
	r.kernOnce.Do(func() {
		keep := make(map[int]bool, len(r.monitors))
		for _, m := range r.monitors {
			keep[m] = true
		}
		for _, lb := range r.stim.Loopbacks() {
			keep[lb.Out] = true
		}
		ports := make([]int, 0, len(keep))
		for p := range keep {
			ports = append(ports, p)
		}
		sort.Ints(ports)
		key := kernelKey{p: r.p, ports: fmt.Sprint(ports)}
		ent, _ := kernelCache.LoadOrStore(key, &kernelEntry{})
		e := ent.(*kernelEntry)
		e.once.Do(func() {
			e.k, e.err = sim.BuildKernel(r.p, sim.KernelConfig{KeepOutputs: ports})
		})
		r.kern, r.kernErr = e.k, e.err
	})
	return r.kern, r.kernErr
}

// wideWorkerState is the reusable per-worker state of the kernel path: the
// wide engine, one faulty-trace buffer and stream per batch word, the
// per-word lane bookkeeping and the window hooks reading it, all recycled
// across wide batches so a steady-state batch allocates nothing beyond the
// classifier's own streams.
type wideWorkerState struct {
	golden *sim.Trace
	e      *sim.KernelEngine
	traces []*sim.Trace
	flips  []flipOp
	// glitches collects the batch's SET output glitches per word.
	glitches [][]laneGlitch

	// The current batch, as its window hooks see it: the next event to
	// apply, the groups in use and their streams and lane sets.
	ptr     int
	groups  int
	streams []Stream // nil entries when the classifier cannot stream
	used    []uint64
	pending []uint64
	failed  []uint64
	settled []uint64
	// window is the hook set handed to sim.RunWindowWide, bound once.
	window sim.WideWindowConfig

	// Lane occupancy of the current batch, counted once per snapshot
	// interval: the intervals simulated, and summed over them the lanes
	// that were still undecided when each began.
	intervals, activeLanes int
}

func newWideWorkerState(r *Runner, cp *chunkPlan) *wideWorkerState {
	W := sim.DefaultKernelWords
	ws := &wideWorkerState{
		golden:   cp.golden,
		e:        sim.NewKernelEngine(cp.kern, W),
		traces:   make([]*sim.Trace, W),
		flips:    make([]flipOp, 0, W*sim.Lanes),
		glitches: make([][]laneGlitch, W),
		streams:  make([]Stream, W),
		used:     make([]uint64, W),
		pending:  make([]uint64, W),
		failed:   make([]uint64, W),
		settled:  make([]uint64, W),
	}
	for i := range ws.traces {
		ws.traces[i] = sim.NewTrace(r.monitors, r.stim.Cycles())
	}
	ws.window = sim.WideWindowConfig{
		Monitors:   r.monitors,
		PreEval:    ws.applyEvents,
		OnSnapshot: ws.onSnapshot,
	}
	if _, ok := r.cls.(StreamClassifier); ok {
		ws.window.OnCycle = ws.onCycle
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

// onCycle feeds cycle c's recorded rows to the groups' streams and stops
// the window once every lane is decided.
func (ws *wideWorkerState) onCycle(c int) bool {
	gr := ws.golden.Row(c)
	for g := 0; g < ws.groups; g++ {
		ws.failed[g] = ws.streams[g].Observe(c, gr, ws.traces[g].Row(c))
	}
	return !ws.undecided()
}

// onSnapshot settles the lanes that re-converged to golden state with no
// event still pending, and stops the window once every lane is decided.
func (ws *wideWorkerState) onSnapshot(c int, diverged []uint64) bool {
	ws.intervals++
	for g := 0; g < ws.groups; g++ {
		// settled still holds the previous boundary's verdict: the lanes it
		// leaves undecided are the ones the interval just simulated was for.
		ws.activeLanes += bits.OnesCount64(ws.used[g] &^ (ws.settled[g] | ws.failed[g]))
		ws.settled[g] = ws.used[g] &^ diverged[g] &^ ws.pending[g]
	}
	return !ws.undecided()
}

func (ws *wideWorkerState) undecided() bool {
	for g := 0; g < ws.groups; g++ {
		if ws.used[g]&^(ws.settled[g]|ws.failed[g]) != 0 {
			return true
		}
	}
	return false
}

// runChunkWide simulates chunk ci as wide batches and returns the same
// per-64-lane-batch failure masks runChunk would, in the same order.
func (r *Runner) runChunkWide(ws *wideWorkerState, cp *chunkPlan, ci int) ([]uint64, int64) {
	nb := cp.sh.chunkBatches(ci)
	masks := make([]uint64, 0, nb)
	var simCycles int64
	W := ws.e.Words()
	for wb := 0; wb < nb; wb += W {
		groups := W
		if wb+groups > nb {
			groups = nb - wb
		}
		var cycles int
		masks, cycles = r.runBatchWide(ws, cp, ci, wb, groups, masks)
		simCycles += int64(cycles)
	}
	return masks, simCycles
}

// runBatchWide simulates one wide batch of `groups` 64-lane groups
// (narrow-batch indices wb..wb+groups-1 of chunk ci), appends one failure
// mask per group to masks and returns the window length simulated. The
// window is counted once per wide batch — each additional word rides the
// same combinational passes — so the simulated-cycle totals reflect the
// widening win.
func (r *Runner) runBatchWide(ws *wideWorkerState, cp *chunkPlan, ci, wb, groups int, masks []uint64) ([]uint64, int) {
	snaps, golden := cp.snaps, cp.golden
	lo, hi := cp.sh.chunkRange(ci)
	ws.flips = ws.flips[:0]
	ws.ptr, ws.groups = 0, groups
	used, failed, settled := ws.used, ws.failed, ws.settled
	for g := 0; g < groups; g++ {
		used[g], failed[g], settled[g] = 0, 0, 0
		ws.glitches[g] = ws.glitches[g][:0]
		blo := lo + (wb+g)*sim.Lanes
		bhi := blo + sim.Lanes
		if bhi > hi {
			bhi = hi
		}
		var eventless uint64
		for lane, pos := 0, blo; pos < bhi; lane, pos = lane+1, pos+1 {
			job := cp.jobs[jobIndex(cp.order, pos)]
			laneMask := uint64(1) << uint(lane)
			n := len(ws.flips)
			ws.flips = r.expandJob(ws.flips, cp.setFX, job, laneMask)
			if len(ws.flips) == n {
				eventless |= laneMask
			}
			for i := n; i < len(ws.flips); i++ {
				ws.flips[i].word = g
			}
			ws.glitches[g] = r.appendGlitches(ws.glitches[g], cp.setFX, job, laneMask)
			used[g] |= laneMask
		}
		// Eventless lanes are never pending: their state is golden forever.
		ws.pending[g] = used[g] &^ eventless
	}
	sortFlips(ws.flips)

	// A wide batch with no events at all (possible under SET) needs no
	// simulation: every group's trace is the golden trace plus glitches.
	var start, stop int
	if len(ws.flips) > 0 {
		minCycle := ws.flips[0].cycle
		start = snaps.SnapCycle(snaps.IndexAtOrBefore(minCycle))
		if sc, ok := r.cls.(StreamClassifier); ok {
			for g := 0; g < groups; g++ {
				ws.streams[g] = sc.StartStream(golden, used[g], start)
			}
		}
		ws.window.Traces = ws.traces[:groups]
		stop = sim.RunWindowWide(ws.e, r.stim, snaps, minCycle, ws.window)
	}
	r.metrics.observeLaneCycles(ws.activeLanes*snaps.Every(), ws.intervals*ws.e.Words()*sim.Lanes*snaps.Every())
	ws.intervals, ws.activeLanes = 0, 0
	for g := 0; g < groups; g++ {
		tr := ws.traces[g]
		tr.CopyCycles(golden, 0, start)
		tr.CopyCycles(golden, stop, r.stim.Cycles())
		for i := range ws.glitches[g] {
			gl := &ws.glitches[g][i]
			tr.XORWord(gl.cycle, gl.mon, gl.mask)
		}
		r.metrics.observeBatch(start, stop, r.stim.Cycles(), used[g], failed[g], settled[g])
		masks = append(masks, r.cls.FailingLanes(golden, tr, used[g]))
	}
	return masks, stop - start
}
