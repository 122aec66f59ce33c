package fault_test

import (
	"bytes"
	"math/bits"
	"slices"
	"testing"

	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/sim"
)

// goldenTrace runs the small MAC fixture cleanly and returns its trace.
func goldenTrace(t testing.TB) *sim.Trace {
	t.Helper()
	p, bench := smallMAC(t)
	e := sim.NewEngine(p)
	golden, _ := sim.Run(e, bench.Stim, sim.RunConfig{Monitors: bench.Monitors})
	return golden
}

// A fault-free trace must never be classified as failing, whatever the used
// mask says.
func TestMACClassifierGoldenIsClean(t *testing.T) {
	_, bench := smallMAC(t)
	golden := goldenTrace(t)
	for _, checkStats := range []bool{false, true} {
		cls := fault.NewMACClassifier(bench, checkStats)
		for _, used := range []uint64{0, 1, 0xff, ^uint64(0)} {
			if got := fault.Verdict(cls, golden, golden, used, 0, golden.Cycles()); got != 0 {
				t.Fatalf("checkStats=%v used=%#x: golden classified failing: %#x", checkStats, used, got)
			}
		}
	}
}

// faultyTrace simulates one 64-lane batch of real SEU injections and returns
// the faulty trace plus the jobs, one per lane.
func faultyTrace(t testing.TB, seed int64) (*sim.Trace, []fault.Job) {
	t.Helper()
	return batchTrace(t, fault.Model{}, seed)
}

// batchTrace replays one 64-lane batch of injections under model m on the
// equivalence suites' reference and returns the whole faulty trace plus the
// jobs, one per lane.
func batchTrace(t testing.TB, m fault.Model, seed int64) (*sim.Trace, []fault.Job) {
	t.Helper()
	p, bench := smallMAC(t)
	r, err := fault.NewGoldenRunner(p, bench.Stim, bench.Monitors, &fault.ExactClassifier{}, fault.RunnerConfig{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	jobs := fault.NewModelPlan(m, m.NumTargets(p), 1, bench.ActiveCycles, seed)[:sim.Lanes]
	faulty, _, err := r.ReplayBatch(jobs)
	if err != nil {
		t.Fatal(err)
	}
	return faulty, jobs
}

// packetVerdict is the MAC criterion written out over whole traces, the
// oracle the classifier is held to: lane fails when its received packet
// list differs from golden's in count, payload bytes or error flags or, with
// checkStats, when its statistics readout differs.
func packetVerdict(bench *circuit.MACBench, golden, faulty *sim.Trace, lane int, checkStats bool) bool {
	samePacket := func(a, b circuit.LanePacket) bool { return a.Err == b.Err && bytes.Equal(a.Payload, b.Payload) }
	if !slices.EqualFunc(bench.LanePackets(faulty, lane), bench.LanePackets(golden, 0), samePacket) {
		return true
	}
	return checkStats && !bytes.Equal(bench.LaneStats(faulty, lane), bench.LaneStats(golden, 0))
}

// The used mask gates classification: lanes outside it must never be
// reported, and restricting the mask must restrict the failing set.
func TestMACClassifierRespectsUsedMask(t *testing.T) {
	_, bench := smallMAC(t)
	golden := goldenTrace(t)
	faulty, _ := faultyTrace(t, 5)
	cls := fault.NewMACClassifier(bench, true)

	all := fault.Verdict(cls, golden, faulty, ^uint64(0), 0, golden.Cycles())
	if all == 0 {
		t.Fatal("fixture produced no failing lanes; classifier untestable")
	}
	for _, used := range []uint64{0, 1, 0xffff, 0xaaaaaaaaaaaaaaaa} {
		got := fault.Verdict(cls, golden, faulty, used, 0, golden.Cycles())
		if got&^used != 0 {
			t.Fatalf("used=%#x: failing lanes %#x outside used mask", used, got)
		}
		if got != all&used {
			t.Fatalf("used=%#x: failing = %#x, want %#x (restriction of full mask)", used, got, all&used)
		}
	}
}

// Classification must be pure: the same traces always produce the same mask,
// including across classifier instances (the golden unpacking is cached but
// must not be stateful beyond that).
func TestMACClassifierDeterministic(t *testing.T) {
	_, bench := smallMAC(t)
	golden := goldenTrace(t)
	faulty, _ := faultyTrace(t, 6)

	cls := fault.NewMACClassifier(bench, true)
	first := fault.Verdict(cls, golden, faulty, ^uint64(0), 0, golden.Cycles())
	for i := 0; i < 3; i++ {
		if got := fault.Verdict(cls, golden, faulty, ^uint64(0), 0, golden.Cycles()); got != first {
			t.Fatalf("call %d: %#x, first %#x", i, got, first)
		}
	}
	fresh := fault.NewMACClassifier(bench, true)
	if got := fault.Verdict(fresh, golden, faulty, ^uint64(0), 0, golden.Cycles()); got != first {
		t.Fatalf("fresh classifier: %#x, want %#x", got, first)
	}
}

// Every lane the classifier flags must show a concrete applicative
// difference (packet count, payload, error flag, or statistics readout), and
// every unflagged used lane must not, for SEU, MBU and stuck-at batches.
func TestMACClassifierAgreesWithPacketComparison(t *testing.T) {
	_, bench := smallMAC(t)
	golden := goldenTrace(t)
	var failed, benign int
	for _, spec := range []string{"seu", "mbu:3", "stuck0"} {
		m, err := fault.ParseModel(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []int64{7, 8, 9} {
			faulty, _ := batchTrace(t, m, seed)
			diverged := fault.Verdict(&fault.ExactClassifier{}, golden, faulty, ^uint64(0), 0, golden.Cycles())
			for _, checkStats := range []bool{false, true} {
				failing := fault.Verdict(fault.NewMACClassifier(bench, checkStats), golden, faulty, ^uint64(0), 0, golden.Cycles())
				for lane := 0; lane < sim.Lanes; lane++ {
					got := failing>>uint(lane)&1 == 1
					if want := packetVerdict(bench, golden, faulty, lane, checkStats); got != want {
						t.Fatalf("%s seed %d stats=%v lane %d: classified fail=%v, packet comparison says %v",
							spec, seed, checkStats, lane, got, want)
					}
				}
				failed += bits.OnesCount64(failing)
				benign += bits.OnesCount64(diverged &^ failing)
			}
		}
	}
	if failed == 0 || benign == 0 {
		t.Fatalf("%d failing and %d diverged but benign lanes: the batches do not exercise both verdicts", failed, benign)
	}
}

// The failure-criterion fingerprint must distinguish configurations and be
// stable across instances.
func TestMACClassifierConfigFingerprint(t *testing.T) {
	_, bench := smallMAC(t)
	strict := fault.NewMACClassifier(bench, true)
	lax := fault.NewMACClassifier(bench, false)
	if strict.ConfigFingerprint() == lax.ConfigFingerprint() {
		t.Fatal("checkStats variants share a fingerprint")
	}
	if strict.ConfigFingerprint() != fault.NewMACClassifier(bench, true).ConfigFingerprint() {
		t.Fatal("fingerprint not stable across instances")
	}
	if strict.ConfigFingerprint() == 0 || lax.ConfigFingerprint() == 0 {
		t.Fatal("fingerprint must be nonzero (0 means anonymous classifier)")
	}
}

// CheckStats only widens the failure criterion: every lane failing without
// the statistics readout also fails with it.
func TestMACClassifierCheckStatsWidens(t *testing.T) {
	_, bench := smallMAC(t)
	golden := goldenTrace(t)
	faulty, _ := faultyTrace(t, 8)

	noStats := fault.Verdict(fault.NewMACClassifier(bench, false), golden, faulty, ^uint64(0), 0, golden.Cycles())
	withStats := fault.Verdict(fault.NewMACClassifier(bench, true), golden, faulty, ^uint64(0), 0, golden.Cycles())
	if noStats&^withStats != 0 {
		t.Fatalf("lanes %#x fail without stats but pass with stats", noStats&^withStats)
	}
}

// ExactClassifier: a clean trace never fails, any monitored divergence in
// the check window fails, divergence before CheckFrom is ignored, and the
// used mask gates the result.
func TestExactClassifier(t *testing.T) {
	golden := goldenTrace(t)
	faulty, _ := faultyTrace(t, 8)
	cls := &fault.ExactClassifier{}

	for _, used := range []uint64{0, 1, ^uint64(0)} {
		if got := fault.Verdict(cls, golden, golden, used, 0, golden.Cycles()); got != 0 {
			t.Fatalf("used=%#x: golden classified failing: %#x", used, got)
		}
	}
	all := fault.Verdict(cls, golden, faulty, ^uint64(0), 0, golden.Cycles())
	if all == 0 {
		t.Fatal("fixture produced no divergent lanes; classifier untestable")
	}
	for _, used := range []uint64{1, 0xffff, 0xaaaaaaaaaaaaaaaa} {
		if got := fault.Verdict(cls, golden, faulty, used, 0, golden.Cycles()); got != all&used {
			t.Fatalf("used=%#x: failing = %#x, want %#x", used, got, all&used)
		}
	}
	// A window starting past the end of the trace sees no divergence.
	late := &fault.ExactClassifier{CheckFrom: golden.Cycles()}
	if got := fault.Verdict(late, golden, faulty, ^uint64(0), 0, golden.Cycles()); got != 0 {
		t.Fatalf("empty check window still fails lanes %#x", got)
	}
	// Exact classification is at least as strict as the MAC criterion: the
	// exact mask must cover every applicatively failing lane.
	_, bench := smallMAC(t)
	mac := fault.Verdict(fault.NewMACClassifier(bench, true), golden, faulty, ^uint64(0), 0, golden.Cycles())
	if mac&^all != 0 {
		t.Fatalf("lanes %#x fail applicatively but match golden exactly", mac&^all)
	}
}

// The exact-classifier fingerprint must distinguish check windows and be
// stable across instances.
func TestExactClassifierConfigFingerprint(t *testing.T) {
	a := &fault.ExactClassifier{CheckFrom: 0}
	b := &fault.ExactClassifier{CheckFrom: 10}
	if a.ConfigFingerprint() == b.ConfigFingerprint() {
		t.Fatal("check windows share a fingerprint")
	}
	if a.ConfigFingerprint() != (&fault.ExactClassifier{}).ConfigFingerprint() {
		t.Fatal("fingerprint not stable across instances")
	}
	if a.ConfigFingerprint() == 0 || b.ConfigFingerprint() == 0 {
		t.Fatal("fingerprint must be nonzero")
	}
}

// streamOverTrace replays a full faulty trace through a classifier stream
// starting at cycle from and returns the final confirmed-failed mask.
func streamOverTrace(sc fault.Classifier, golden, faulty *sim.Trace, used uint64, from int) uint64 {
	st := sc.StartStream(golden, used, from)
	var failed uint64
	for c := from; c < golden.Cycles(); c++ {
		failed = st.Observe(c, golden.Row(c), faulty.Row(c))
	}
	return failed
}

// Streaming confirmations must be sound: every stream-confirmed lane is also
// failed by the whole-trace Verdict and by the packet-list oracle, which
// shares no decoder with the stream, for both classifiers and from every
// starting cycle (the fast-forward entry points).
func TestStreamConfirmationsAreSound(t *testing.T) {
	_, bench := smallMAC(t)
	golden := goldenTrace(t)
	for _, seed := range []int64{3, 4, 5} {
		faulty, _ := faultyTrace(t, seed)
		for _, checkStats := range []bool{false, true} {
			mac := fault.NewMACClassifier(bench, checkStats)
			verdict := fault.Verdict(mac, golden, faulty, ^uint64(0), 0, golden.Cycles())
			var oracle uint64
			for lane := 0; lane < sim.Lanes; lane++ {
				if packetVerdict(bench, golden, faulty, lane, checkStats) {
					oracle |= 1 << uint(lane)
				}
			}
			for _, from := range []int{0, 8, 32} {
				confirmed := streamOverTrace(mac, golden, faulty, ^uint64(0), from)
				if confirmed&^verdict != 0 {
					t.Fatalf("seed %d stats=%v from=%d: stream confirmed non-failing lanes %#x",
						seed, checkStats, from, confirmed&^verdict)
				}
				if confirmed&^oracle != 0 {
					t.Fatalf("seed %d stats=%v from=%d: stream confirmed lanes %#x the packet lists pass",
						seed, checkStats, from, confirmed&^oracle)
				}
			}
		}
	}
}

// For the exact criterion the stream is not just sound but complete: its
// confirmations over the whole trace and its Verdict are the criterion's
// definition, the lanes whose monitor words differ from golden's in any row
// of [CheckFrom, cycles).
func TestExactStreamMatchesVerdict(t *testing.T) {
	golden := goldenTrace(t)
	for _, seed := range []int64{6, 7} {
		faulty, _ := faultyTrace(t, seed)
		for _, from := range []int{0, 5} {
			var diverged uint64
			for c := from; c < golden.Cycles(); c++ {
				for w, gw := range golden.Row(c) {
					diverged |= gw ^ faulty.Row(c)[w]
				}
			}
			cls := &fault.ExactClassifier{CheckFrom: from}
			verdict := fault.Verdict(cls, golden, faulty, ^uint64(0), 0, golden.Cycles())
			confirmed := streamOverTrace(cls, golden, faulty, ^uint64(0), 0)
			if confirmed != diverged || verdict != diverged {
				t.Fatalf("seed %d CheckFrom=%d: stream %#x, verdict %#x, diverged %#x", seed, from, confirmed, verdict, diverged)
			}
		}
	}
}

// The used mask must gate streaming confirmations like it gates the
// trace-based verdict.
func TestStreamRespectsUsedMask(t *testing.T) {
	_, bench := smallMAC(t)
	golden := goldenTrace(t)
	faulty, _ := faultyTrace(t, 8)
	mac := fault.NewMACClassifier(bench, true)
	const used = uint64(0xF0F0)
	if got := streamOverTrace(mac, golden, faulty, used, 0); got&^used != 0 {
		t.Fatalf("stream confirmed unused lanes: %#x", got&^used)
	}
	cls := &fault.ExactClassifier{}
	if got := streamOverTrace(cls, golden, faulty, used, 0); got&^used != 0 {
		t.Fatalf("exact stream confirmed unused lanes: %#x", got&^used)
	}
}

// BenchmarkMACVerdict measures the MAC verdict on one 64-lane SEU batch of
// the small MAC: a stream observes a 32-cycle window (the faulty rows from
// the earliest injection on) or the whole trace, and gives its Verdict.
func BenchmarkMACVerdict(b *testing.B) {
	_, bench := smallMAC(b)
	golden := goldenTrace(b)
	faulty, jobs := faultyTrace(b, 7)
	from := slices.MinFunc(jobs, func(x, y fault.Job) int { return x.Cycle - y.Cycle }).Cycle
	for _, c := range []struct {
		name     string
		from, to int
	}{{"window32", from, min(from+32, golden.Cycles())}, {"whole", 0, golden.Cycles()}} {
		b.Run(c.name, func(b *testing.B) {
			cls := fault.NewMACClassifier(bench, true)
			b.ReportAllocs()
			for b.Loop() {
				fault.Verdict(cls, golden, faulty, ^uint64(0), c.from, c.to)
			}
		})
	}
}
