package fault

import (
	"fmt"
	"hash/fnv"
	"math/bits"
	"sync"

	"repro/internal/circuit"
	"repro/internal/sim"
)

// ExactClassifier is the generic applicative failure criterion used by the
// non-MAC corpus circuits: a lane fails when any monitored output word
// differs from the golden run at any cycle of the check window
// [CheckFrom, cycles). CheckFrom lets a scenario ignore a settle prefix
// (e.g. pipeline fill); 0 checks the whole run.
//
// Unlike MACClassifier it has no notion of frame reconstruction, so a pure
// latency shift counts as a failure — the right criterion for circuits whose
// outputs are continuously meaningful (datapath results, grant vectors,
// serial lines).
type ExactClassifier struct {
	// CheckFrom is the first checked cycle.
	CheckFrom int
}

// ConfigFingerprint implements Classifier.
func (e *ExactClassifier) ConfigFingerprint() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "exact-classifier/from=%d", e.CheckFrom)
	return h.Sum64()
}

// StartStream implements Classifier. The exact criterion is ideal for
// streaming: any monitored divergence inside the check window is final, so a
// lane is confirmed failed the cycle it first diverges. The skipped prefix
// needs no replay — it is divergence-free by construction.
func (e *ExactClassifier) StartStream(golden *sim.Trace, used uint64, from int) Stream {
	return &exactStream{from: e.CheckFrom, used: used}
}

type exactStream struct {
	from   int
	used   uint64
	failed uint64
}

func (s *exactStream) Observe(cycle int, golden, faulty []uint64) uint64 {
	if cycle >= s.from {
		var diff uint64
		for w := range golden {
			diff |= golden[w] ^ faulty[w]
		}
		s.failed |= diff & s.used
	}
	return s.failed
}

// Verdict implements Stream: a divergence is a failure the cycle it is
// observed, so every failing lane is already confirmed.
func (s *exactStream) Verdict() uint64 { return s.failed }

// MACClassifier implements the paper's applicative failure criterion for the
// MAC loopback testbench: "the simulation run was considered a functional
// failure when the final received packages contained payload corruption or
// the circuit stopped sending or receiving data".
//
// Concretely, a lane fails when its reconstructed received-packet list
// differs from the golden run in count, payload bytes or error flags — a
// pure latency shift with intact frames is benign — or, when CheckStats is
// set, when the end-of-test statistics readout differs (the management
// plane of the application checking its RMON counters).
//
// A batch's stream (macStream) is one frame decoder started from the golden
// decoder state: it decodes only the rows the batch simulated, and its
// Verdict completes them with the golden suffix, so nothing rebuilds a
// lane's packet list.
type MACClassifier struct {
	Bench *circuit.MACBench
	// CheckStats extends the failure criterion to the statistics readout.
	CheckStats bool

	goldenPkts []circuit.LanePacket
	// goldenDec[c] is the golden frame decoder's state at the top of cycle c.
	goldenDec []frameDec
	prepare   sync.Once
}

// prepared decodes the golden run once: its packets and the frame decoder
// state every decode of a faulty window starts from.
func (m *MACClassifier) prepared(golden *sim.Trace) {
	m.prepare.Do(func() {
		// Golden is lane-uniform; lane 0 is canonical.
		b := m.Bench
		m.goldenPkts = b.LanePackets(golden, 0)
		m.goldenDec = make([]frameDec, golden.Cycles()+1)
		for c := 0; c < golden.Cycles(); c++ {
			m.goldenDec[c+1] = m.goldenDec[c]
			m.goldenDec[c+1].advance(golden.Bit(c, b.MonRxValid, 0), golden.Bit(c, b.MonRxEOP, 0))
		}
	})
}

// NewMACClassifier returns a classifier for the given compiled testbench.
func NewMACClassifier(bench *circuit.MACBench, checkStats bool) *MACClassifier {
	return &MACClassifier{Bench: bench, CheckStats: checkStats}
}

// ConfigFingerprint implements Classifier: it digests the failure
// criterion (packet comparison, optionally widened by the statistics
// readout) so checkpoints reject resumes under a different criterion.
func (m *MACClassifier) ConfigFingerprint() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "mac-classifier/checkstats=%v", m.CheckStats)
	return h.Sum64()
}

// StartStream implements Classifier with an incremental frame decoder:
// every lane whose receive-side monitor bits ever diverge from golden gets a
// private packet reconstruction, compared frame-by-frame against the golden
// packet list as bytes arrive. A lane is confirmed failed as soon as it
// receives a wrong or surplus payload byte, closes a frame with the wrong
// length or error flag, opens more frames than the golden run ever received,
// or (with CheckStats) shows any statistics-readout divergence. These are
// exactly the monotone components of the criterion: once observed they hold
// whatever the remaining cycles deliver.
//
// Under-delivery ("the circuit stopped sending or receiving data") is NOT
// confirmable mid-run — a missing frame may still arrive late and benign —
// so lanes that fail only by frame count are decided by Verdict's suffix
// rule when the batch ends or every lane re-converges.
func (m *MACClassifier) StartStream(golden *sim.Trace, used uint64, from int) Stream {
	m.prepared(golden)
	// Lanes are bit-identical to golden before from, so their
	// reconstruction state is the golden run's state at from.
	return &macStream{m: m, used: used, g: m.goldenDec[from]}
}

// frameDec is the receive-side frame decoder's position: the index of the
// frame in progress and the next payload byte within it.
type frameDec struct{ k, pos int32 }

// advance steps the decoder by one cycle's receive-side monitor bits — the
// one copy of the advance rule MACBench.LanePackets applies per lane.
func (d *frameDec) advance(valid, eop bool) {
	if !valid {
		return
	}
	if eop {
		d.k++
		d.pos = 0
	} else {
		d.pos++
	}
}

type macStream struct {
	m        *MACClassifier
	used     uint64
	failed   uint64
	diverged uint64 // lanes whose rx monitor bits ever differed from golden

	g      frameDec // golden frame decoder
	k, pos [sim.Lanes]int32
}

func (s *macStream) Observe(cycle int, golden, faulty []uint64) uint64 {
	b := s.m.Bench

	// Statistics readout: golden is lane-uniform, so a word-level XOR of the
	// readout monitors flags every divergent lane directly, and any readout
	// divergence is a final failure under CheckStats.
	if s.m.CheckStats && cycle >= b.ReadoutStart {
		var diff uint64
		for _, w := range b.MonStatData {
			diff |= golden[w] ^ faulty[w]
		}
		s.failed |= diff & s.used
	}

	// Newly diverged lanes inherit the golden decoder state: until its rx
	// bits first differ, a lane's reconstruction is identical to golden's.
	rxDiff := (golden[b.MonRxValid] ^ faulty[b.MonRxValid]) |
		(golden[b.MonRxEOP] ^ faulty[b.MonRxEOP]) |
		(golden[b.MonRxErr] ^ faulty[b.MonRxErr])
	for _, w := range b.MonRxData {
		rxDiff |= golden[w] ^ faulty[w]
	}
	if newlyDiverged := rxDiff & s.used &^ s.diverged; newlyDiverged != 0 {
		for w := newlyDiverged; w != 0; w &= w - 1 {
			lane := bits.TrailingZeros64(w)
			s.k[lane], s.pos[lane] = s.g.k, s.g.pos
		}
		s.diverged |= newlyDiverged
	}

	// Per-lane decode for diverged, not-yet-failed lanes.
	for w := faulty[b.MonRxValid] & s.diverged &^ s.failed; w != 0; w &= w - 1 {
		lane := bits.TrailingZeros64(w)
		bit := uint64(1) << uint(lane)
		k := int(s.k[lane])
		if faulty[b.MonRxEOP]&bit != 0 {
			// A frame completes. A surplus frame (beyond the golden total)
			// or one with the wrong length or error flag is a final
			// failure: completed frames never leave the lane's packet list.
			if k >= len(s.m.goldenPkts) {
				s.failed |= bit
				continue
			}
			want := s.m.goldenPkts[k]
			if int(s.pos[lane]) != len(want.Payload) || (faulty[b.MonRxErr]&bit != 0) != want.Err {
				s.failed |= bit
				continue
			}
			s.k[lane]++
			s.pos[lane] = 0
			continue
		}
		if k >= len(s.m.goldenPkts) {
			// Dangling data bytes past the golden frame count: benign
			// unless a surplus frame ever completes (they never enter the
			// packet list on their own), so not confirmable here.
			continue
		}
		// A data byte of frame k. A wrong or surplus byte is final either
		// way the frame ends: if it completes, frame k's payload differs
		// from golden's; if it never does, the lane under-delivers.
		want := s.m.goldenPkts[k]
		pos := int(s.pos[lane])
		if pos >= len(want.Payload) {
			s.failed |= bit
			continue
		}
		var bv byte
		for i, w := range b.MonRxData {
			if faulty[w]&bit != 0 {
				bv |= 1 << uint(i)
			}
		}
		if bv != want.Payload[pos] {
			s.failed |= bit
			continue
		}
		s.pos[lane]++
	}

	// Advance the golden decoder (uniform: bit 0 is canonical).
	s.g.advance(golden[b.MonRxValid]&1 == 1, golden[b.MonRxEOP]&1 == 1)
	return s.failed
}

// Verdict implements Stream with the suffix rule. Besides the confirmed
// lanes, every lane whose receive-side bits diverged is decided from its
// decoder state (k, pos) against the golden decoder's (g), because the rows
// after the last observed one are golden's and complete the golden frames
// from g:
//   - a frame count k other than g.k ends with a frame count other than
//     golden's;
//   - k == g.k with frames left and a byte position other than g.pos closes
//     the open frame with the wrong length;
//   - anything else passes: the open frame completes as golden's does, and
//     once every golden frame is received (k == len(goldenPkts)) the lane's
//     dangling bytes never complete a frame.
//
// With CheckStats, a statistics readout divergence can only lie in the
// observed rows too, and Observe confirms every one.
func (s *macStream) Verdict() uint64 {
	failed := s.failed
	for w := s.diverged &^ failed; w != 0; w &= w - 1 {
		lane := bits.TrailingZeros64(w)
		k, pos := s.k[lane], s.pos[lane]
		if k != s.g.k || int(k) < len(s.m.goldenPkts) && pos != s.g.pos {
			failed |= 1 << uint(lane)
		}
	}
	return failed
}
