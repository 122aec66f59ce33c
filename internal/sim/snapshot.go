package sim

import "fmt"

// DefaultSnapshotEvery is the default golden snapshot cadence in cycles.
// Finer cadences waste less prefix on restore (a faulty batch fast-forwards
// to the snapshot at or before its earliest injection) and give early-exit
// checks more chances to fire; coarser cadences shrink capture cost and the
// per-boundary state-comparison work. One comparison costs about a quarter
// of an Eval on the MAC, so at 8 it adds ≈ 3 % to the cycle loop while the
// average fast-forward rounding loss stays under 4 cycles per batch.
const DefaultSnapshotEvery = 8

// Snapshots is a set of periodic golden engine-state restore points captured
// during the (lane-uniform) golden run: for every cycle c ≡ 0 (mod every)
// the per-flip-flop state bits and the loopback words at the top of cycle c
// — the complete inter-cycle state of an engine, since every other net is
// recomputed from flip-flop state and primary inputs by Eval.
//
// Because the golden run drives identical stimulus into all 64 lanes, the
// state is one bit per flip-flop, not one word: Snapshots stores lane 0 and
// RestoreKernel broadcasts it. Restoring a snapshot and simulating forward
// reproduces the golden run exactly, which is what makes golden fast-forward
// of faulty batches sound: lanes only diverge from golden at their first
// injected flip, so every cycle before the batch's earliest injection is
// provably identical to the golden run and can be skipped.
//
// A Snapshots instance is immutable after capture and safe for concurrent
// use by any number of restoring engines.
type Snapshots struct {
	every   int
	cycles  int
	numFFs  int
	ffWords int // ceil(numFFs/64)
	numLb   int

	captured int      // snapshots captured so far (== numSnaps() when complete)
	ff       []uint64 // [snap][ffWords] packed golden FF bits
	lb       []uint64 // [snap][numLb] golden loopback words
}

// NewSnapshots allocates an empty snapshot set for a program/stimulus pair.
// Pass it to RunConfig.Snapshots on the golden run to fill it; every must be
// positive (0 selects DefaultSnapshotEvery).
func NewSnapshots(p *Program, stim *Stimulus, every int) *Snapshots {
	if every <= 0 {
		every = DefaultSnapshotEvery
	}
	s := &Snapshots{
		every:   every,
		cycles:  stim.Cycles(),
		numFFs:  p.NumFFs(),
		ffWords: (p.NumFFs() + 63) / 64,
		numLb:   len(stim.loopback),
	}
	n := s.numSnaps()
	s.ff = make([]uint64, n*s.ffWords)
	s.lb = make([]uint64, n*s.numLb)
	return s
}

// numSnaps returns the number of restore points covering [0, cycles).
func (s *Snapshots) numSnaps() int {
	if s.cycles <= 0 {
		return 0
	}
	return (s.cycles-1)/s.every + 1
}

// Complete reports whether every restore point has been captured (i.e. the
// golden run the set was attached to ran to completion).
func (s *Snapshots) Complete() bool { return s.captured == s.numSnaps() }

// IndexAtOrBefore returns the index of the latest snapshot at or before the
// given cycle.
func (s *Snapshots) IndexAtOrBefore(cycle int) int { return cycle / s.every }

// SnapCycle returns the cycle a snapshot index restores to.
func (s *Snapshots) SnapCycle(idx int) int { return idx * s.every }

// Matches verifies the snapshot geometry against a program/stimulus pair; a
// mismatched set would silently fast-forward into garbage state.
func (s *Snapshots) Matches(p *Program, stim *Stimulus) error {
	if s.numFFs != p.NumFFs() {
		return fmt.Errorf("sim: snapshots cover %d flip-flops, program has %d", s.numFFs, p.NumFFs())
	}
	if s.cycles != stim.Cycles() {
		return fmt.Errorf("sim: snapshots cover %d cycles, stimulus has %d", s.cycles, stim.Cycles())
	}
	if s.numLb != len(stim.loopback) {
		return fmt.Errorf("sim: snapshots hold %d loopback words, stimulus has %d", s.numLb, len(stim.loopback))
	}
	if !s.Complete() {
		return fmt.Errorf("sim: snapshot set incomplete (%d of %d captured)", s.captured, s.numSnaps())
	}
	return nil
}

// capture records the golden state at the top of cycle c when c is
// snapshot-aligned. The engine must be running a lane-uniform (golden)
// stimulus; lane 0 is taken as canonical.
func (s *Snapshots) capture(e stepper, lb []uint64, c int) {
	if c%s.every != 0 {
		return
	}
	idx := c / s.every
	e.ffBits(s.ff[idx*s.ffWords : (idx+1)*s.ffWords])
	copy(s.lb[idx*s.numLb:(idx+1)*s.numLb], lb)
	if idx >= s.captured {
		s.captured = idx + 1
	}
}

// MemoryBytes reports the approximate snapshot store size, mostly useful for
// sizing the cadence on very large designs.
func (s *Snapshots) MemoryBytes() int {
	return 8 * (len(s.ff) + len(s.lb))
}
