package sim

// wide.go is the faulty-batch window loop: a kernel engine's 64·W lanes
// are restored from a golden snapshot (fast-forward), simulated forward
// with per-word divergence tracking, and stopped by the caller's hooks.
// Word w of a wide batch evolves exactly like one 64-lane batch on Engine,
// so the soundness arguments (prefix identity, settlement stickiness, final
// failure verdicts) are made per 64-lane word.

// Loopbacks returns the stimulus's loopback rules (shared storage; treat
// as read-only).
func (s *Stimulus) Loopbacks() []Loopback { return s.loopback }

// ObservedOutputs returns the monitors, then every loopback source: the
// output ports a run reads, and so the campaign kernel's kept set.
func (s *Stimulus) ObservedOutputs(monitors []int) []int {
	keep := append([]int(nil), monitors...)
	for _, l := range s.loopback {
		keep = append(keep, l.Out)
	}
	return keep
}

// RestoreKernel resets the engine and loads snapshot idx into every lane
// of every batch word, broadcasting the golden flip-flop bits and filling
// lb (numLb·W words, loopback-major) with the golden loopback words.
func (s *Snapshots) RestoreKernel(e *KernelEngine, idx int, lb []uint64) {
	e.Reset()
	W := e.w
	ffBase := idx * s.ffWords
	for i, q := range e.k.ffQ {
		word := -(s.ff[ffBase+i/64] >> (i & 63) & 1) // all ones or zero, no branch
		*e.row(q) = krow{word, word, word, word}
	}
	lbBase := idx * s.numLb
	for j := 0; j < s.numLb; j++ {
		for w := 0; w < W; w++ {
			lb[j*W+w] = s.lb[lbBase+j]
		}
	}
}

// divergedKernel fills out (one mask per batch word) with the lanes whose
// inter-cycle state (flip-flop bits plus loopback words) differs from golden
// snapshot idx. A lane with a zero bit has fully re-converged: its remaining
// simulation is cycle-for-cycle identical to the golden run.
func (s *Snapshots) divergedKernel(e *KernelEngine, lb []uint64, idx int, out []uint64) {
	W := e.w
	var diff krow
	ffBase := idx * s.ffWords
	for i, slot := range e.k.ffQ {
		want := -(s.ff[ffBase+i/64] >> (i & 63) & 1)
		q := e.row(slot)
		diff[0] |= q[0] ^ want
		diff[1] |= q[1] ^ want
		diff[2] |= q[2] ^ want
		diff[3] |= q[3] ^ want
	}
	copy(out, diff[:W])
	lbBase := idx * s.numLb
	for j := 0; j < s.numLb; j++ {
		for w := 0; w < W; w++ {
			out[w] |= lb[j*W+w] ^ s.lb[lbBase+j]
		}
	}
}

// WideWindowConfig controls an incremental wide-batch run (RunWindowWide).
// Recording is per word: batch word w records into Traces[w], and
// OnSnapshot receives one diverged mask per word.
type WideWindowConfig struct {
	// Monitors lists output ports to record; must match the traces'
	// monitor sets and be within the kernel's kept output set.
	Monitors []int
	// Traces receives the recorded monitor words, one trace per batch
	// word; a nil entry skips that word (empty tail group of a plan). Each
	// must span the full stimulus length; only the rows of the simulated
	// window are written, so the skipped prefix and any early-exited suffix
	// keep what the caller put there — the golden trace's rows.
	Traces []*Trace
	// PreEval is the per-cycle injection hook (see RunConfig.PreEval).
	PreEval func(cycle int)
	// OnCycle is invoked after cycle c's monitor words are recorded;
	// returning true stops the run before cycle c+1.
	OnCycle func(cycle int) bool
	// OnSnapshot is invoked at the top of every snapshot-aligned cycle
	// after the restore point with the per-word diverged-lane masks;
	// returning true stops the run before that cycle is simulated.
	OnSnapshot func(cycle int, diverged []uint64) bool
}

// RunWindowWide is the incremental counterpart of Run: it restores the
// golden snapshot at or before start into all 64·W lanes, then simulates
// forward until the stimulus ends or a hook stops it. It returns the first
// cycle NOT recorded into the traces: rows [0, snapshot) and [returned,
// cycles) are left untouched, and the caller keeps the golden trace's rows
// there (the lanes' are provably identical to them: the prefix because lanes
// have not yet diverged, the suffix because the caller only stops once every
// lane's verdict can no longer change).
func RunWindowWide(e *KernelEngine, stim *Stimulus, snaps *Snapshots, start int, cfg WideWindowConfig) int {
	W := e.w
	idx := snaps.IndexAtOrBefore(start)
	e.lb = grow(e.lb, snaps.numLb*W)
	e.diverged = grow(e.diverged, W)
	lb, diverged := e.lb, e.diverged
	snaps.RestoreKernel(e, idx, lb)
	first := snaps.SnapCycle(idx)

	// Resolve every port the loop touches to its register-file slot once,
	// not per cycle and word.
	e.lbIn, e.lbOut, e.monAt = e.lbIn[:0], e.lbOut[:0], e.monAt[:0]
	for _, l := range stim.loopback {
		e.lbIn = append(e.lbIn, e.k.inSlot[l.In])
		e.lbOut = append(e.lbOut, e.outAt(l.Out))
	}
	for _, port := range cfg.Monitors {
		e.monAt = append(e.monAt, e.outAt(port))
	}
	lbIn, lbOut, monAt := e.lbIn, e.lbOut, e.monAt
	nm := len(monAt)
	regs := e.regs

	for c := first; c < stim.cycles; c++ {
		if cfg.OnSnapshot != nil && c != first && c%snaps.every == 0 {
			snaps.divergedKernel(e, lb, c/snaps.every, diverged)
			if cfg.OnSnapshot(c, diverged) {
				return c
			}
		}
		for k, port := range stim.ports {
			e.SetInputBool(port, stim.vectors[k][c])
		}
		for i, at := range lbIn {
			for w := 0; w < W; w++ {
				regs[at][w] = lb[i*W+w]
			}
		}
		if cfg.PreEval != nil {
			cfg.PreEval(c)
		}
		e.Eval()
		for i, at := range lbOut {
			for w := 0; w < W; w++ {
				lb[i*W+w] = regs[at][w]
			}
		}
		base := c * nm
		for w, trace := range cfg.Traces {
			if trace == nil {
				continue
			}
			row := trace.words[base : base+nm]
			for m, at := range monAt {
				row[m] = regs[at][w]
			}
		}
		if cfg.OnCycle != nil && cfg.OnCycle(c) {
			e.Commit()
			return c + 1
		}
		e.Commit()
	}
	return stim.cycles
}

// grow returns buf resized to n words, reallocating only when it is too
// small; the contents are unspecified.
func grow(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n)
	}
	return buf[:n]
}
