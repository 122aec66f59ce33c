package fault_test

import (
	"encoding/binary"
	"errors"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/sim"
)

// Whatever bytes a checkpoint file holds, LoadCheckpoint returns one of its
// two typed errors or a checkpoint that survives SaveCheckpoint →
// LoadCheckpoint with its fingerprint unchanged; it never panics.
func FuzzLoadCheckpoint(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.ckpt"))
	if err != nil || len(files) == 0 {
		f.Fatalf("no seed files under testdata/ (%v)", err)
	}
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "fuzzed.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ck, err := fault.LoadCheckpoint(path)
		if err != nil {
			if !errors.Is(err, fault.ErrCheckpointCorrupt) && !errors.Is(err, fault.ErrCheckpointVersion) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		again := filepath.Join(dir, "again.ckpt")
		if err := fault.SaveCheckpoint(again, ck); err != nil {
			t.Fatalf("saving what loaded: %v", err)
		}
		back, err := fault.LoadCheckpoint(again)
		if err != nil {
			t.Fatalf("loading what was saved: %v", err)
		}
		if back.Fingerprint() != ck.Fingerprint() {
			t.Fatalf("fingerprint %#x became %#x across a save", ck.Fingerprint(), back.Fingerprint())
		}
	})
}

// Whatever string it is handed, ParseModel returns an error or a valid model
// whose canonical String parses back to the same model and the same string —
// the form checkpoints record and the fabric sends its workers; it never
// panics.
func FuzzParseModel(f *testing.F) {
	for _, spec := range equivModels {
		f.Add(spec)
	}
	// The third used to render as "seu@1e-05-0.5", which does not parse back;
	// the fourth used to be accepted, and NaN equals nothing, itself included.
	for _, spec := range []string{"", " MBU:3 ", "seu@0.00001-0.5", "seu@nan-1", "stuck0:8@0.25-0.75", "mbu:0", "set:2", "seu@0.5"} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		m, err := fault.ParseModel(spec)
		if err != nil {
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("ParseModel(%q) returned invalid %+v: %v", spec, m, err)
		}
		canon := m.String()
		back, err := fault.ParseModel(canon)
		if err != nil {
			t.Fatalf("ParseModel(%q) = %+v, whose String %q does not parse: %v", spec, m, canon, err)
		}
		if back != m || back.String() != canon {
			t.Fatalf("ParseModel(%q) = %+v (%q), reparsed as %+v (%q)", spec, m, canon, back, back.String())
		}
	})
}

// macEdit flips one lane's bit of one receive-side or statistics-readout
// monitor word in one row of a faulty trace.
type macEdit struct{ row, mon, lane int }

// macVerdict holds the Verdict of a MAC stream that observed a batch's
// window to packetVerdict over the whole trace.
type macVerdict struct {
	bench          *circuit.MACBench
	golden, faulty *sim.Trace              // faulty is a copy of golden the edits go into
	mons           []int                   // the monitors an edit may flip: rx_valid, rx_eop, rx_err, rx_data, stat_data
	cls            [2]*fault.MACClassifier // CheckStats off, on
}

func newMACVerdict(t testing.TB) *macVerdict {
	_, bench := smallMAC(t)
	golden := goldenTrace(t)
	faulty := sim.NewTrace(golden.Monitors, golden.Cycles())
	faulty.CopyCycles(golden, 0, golden.Cycles())
	mons := append([]int{bench.MonRxValid, bench.MonRxEOP, bench.MonRxErr}, bench.MonRxData[:]...)
	return &macVerdict{
		bench: bench, golden: golden, faulty: faulty,
		mons: append(mons, bench.MonStatData[:]...),
		cls:  [2]*fault.MACClassifier{fault.NewMACClassifier(bench, false), fault.NewMACClassifier(bench, true)},
	}
}

// check XORs edits, which lie in rows [from, to), into the faulty copy and
// fails t unless the Verdict of a stream over [from, to) equals
// packetVerdict for every lane, with and without the statistics readout. It
// restores the copy and returns the lanes failing without the statistics
// readout that the stream over the window does not confirm: those the suffix
// rule decides.
func (v *macVerdict) check(t *testing.T, from, to int, edits []macEdit) (suffixDecided uint64) {
	for _, e := range edits {
		v.faulty.XORWord(e.row, v.mons[e.mon], 1<<uint(e.lane))
	}
	defer v.faulty.CopyCycles(v.golden, from, to)
	// A lane whose bits the edits left as golden's has golden's packet
	// lists and readout, so the oracle's verdict on it is a pass.
	edited := fault.Verdict(&fault.ExactClassifier{}, v.golden, v.faulty, ^uint64(0), from, to)
	var failing [2]uint64
	for i, cls := range v.cls {
		failing[i] = fault.Verdict(cls, v.golden, v.faulty, ^uint64(0), from, to)
		for lane := 0; lane < sim.Lanes; lane++ {
			got := failing[i]>>uint(lane)&1 == 1
			want := edited>>uint(lane)&1 == 1 && packetVerdict(v.bench, v.golden, v.faulty, lane, i == 1)
			if got != want {
				t.Fatalf("window [%d, %d) edits %v stats=%v lane %d: Verdict says fail=%v, the packet lists %v",
					from, to, edits, i == 1, lane, got, want)
			}
		}
	}
	st := v.cls[0].StartStream(v.golden, ^uint64(0), from)
	var confirmed uint64
	for c := from; c < to; c++ {
		confirmed = st.Observe(c, v.golden.Row(c), v.faulty.Row(c))
	}
	return failing[0] &^ confirmed
}

// decodeMACEdits reads a window and its edits from fuzz bytes: big-endian
// uint16s for the window's first row and its length less one, then four
// bytes per edit — its row offset in the window (uint16), monitor and lane.
func decodeMACEdits(data []byte, cycles, mons int) (from, to int, edits []macEdit) {
	if len(data) < 4 {
		return 0, 0, nil
	}
	from = int(binary.BigEndian.Uint16(data)) % cycles
	to = from + 1 + int(binary.BigEndian.Uint16(data[2:]))%(cycles-from)
	for rec := data[4:]; len(rec) >= 4; rec = rec[4:] {
		edits = append(edits, macEdit{
			row:  from + int(binary.BigEndian.Uint16(rec))%(to-from),
			mon:  int(rec[2]) % mons,
			lane: int(rec[3]) % sim.Lanes,
		})
	}
	return from, to, edits
}

// encodeMACEdits is decodeMACEdits' inverse, for hand-built seeds.
func encodeMACEdits(from, to int, edits []macEdit) []byte {
	data := binary.BigEndian.AppendUint16(nil, uint16(from))
	data = binary.BigEndian.AppendUint16(data, uint16(to-from-1))
	for _, e := range edits {
		data = binary.BigEndian.AppendUint16(data, uint16(e.row-from))
		data = append(data, byte(e.mon), byte(e.lane))
	}
	return data
}

// Whatever window a batch dirtied and whatever its receive-side and
// statistics bits hold there, the Verdict of a MAC stream that observed the
// window equals the packet lists compared over the whole trace. The seeds
// are the cases the suffix rule decides alone: a frame never closed, a byte
// missing from the frame open at the window's end (both fail), and data
// bytes after the last frame, which never complete one (benign).
func FuzzMACVerdictMatchesPacketList(f *testing.F) {
	v := newMACVerdict(f)
	const valid, eop, data0 = 0, 1, 3 // indices into v.mons
	lastEOP, firstData := -1, -1
	for c := 0; c < v.golden.Cycles(); c++ {
		if v.golden.Bit(c, v.bench.MonRxValid, 0) {
			if v.golden.Bit(c, v.bench.MonRxEOP, 0) {
				lastEOP = c
			} else if firstData < 0 {
				firstData = c
			}
		}
	}
	if lastEOP < 0 || firstData < 0 || lastEOP+3 > v.golden.Cycles() {
		f.Fatalf("golden rx: first data byte at %d, last EOP at %d of %d cycles", firstData, lastEOP, v.golden.Cycles())
	}
	f.Add(encodeMACEdits(lastEOP, lastEOP+1, []macEdit{{lastEOP, valid, 0}, {lastEOP, eop, 0}}))
	f.Add(encodeMACEdits(firstData, firstData+1, []macEdit{{firstData, valid, 1}}))
	f.Add(encodeMACEdits(lastEOP+1, lastEOP+3, []macEdit{{lastEOP + 1, valid, 2}, {lastEOP + 1, data0, 2}, {lastEOP + 2, valid, 2}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		from, to, edits := decodeMACEdits(data, v.golden.Cycles(), len(v.mons))
		v.check(t, from, to, edits)
	})
}

// TestMACVerdictMatchesPacketList runs FuzzMACVerdictMatchesPacketList's
// check over seeded random windows — half of them short, like the dirty rows
// of a batch that re-converged — and requires that the suffix rule decided
// some of the failures: windows the stream decides alone check nothing of it.
func TestMACVerdictMatchesPacketList(t *testing.T) {
	v := newMACVerdict(t)
	rng := rand.New(rand.NewSource(1))
	cycles := v.golden.Cycles()
	suffixDecided := 0
	for i := 0; i < 3000; i++ {
		from := rng.Intn(cycles)
		n := cycles - from
		if i%2 == 0 {
			n = min(n, 8)
		}
		to := from + 1 + rng.Intn(n)
		edits := make([]macEdit, 1+rng.Intn(8))
		for j := range edits {
			edits[j] = macEdit{row: from + rng.Intn(to-from), mon: rng.Intn(len(v.mons)), lane: rng.Intn(sim.Lanes)}
		}
		suffixDecided += bits.OnesCount64(v.check(t, from, to, edits))
	}
	if suffixDecided == 0 {
		t.Fatal("the stream confirmed every failure: no window exercised the suffix rule")
	}
}
