package fault_test

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/fault"
)

// TestModelParseStringRoundTrip pins the canonical grammar: every parseable
// spelling resolves to a normalized model whose String() re-parses to the
// same model.
func TestModelParseStringRoundTrip(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"", "seu"},
		{"seu", "seu"},
		{"SEU", "seu"},
		{" seu ", "seu"},
		{"mbu", "mbu:2"},
		{"mbu:2", "mbu:2"},
		{"mbu:3", "mbu:3"},
		{"mbu:4", "mbu:4"},
		{"stuck0", "stuck0:1"},
		{"stuck0:8", "stuck0:8"},
		{"stuck1:4", "stuck1:4"},
		{"set", "set"},
		{"seu@0.25-0.75", "seu@0.25-0.75"},
		{"seu@0-1", "seu"},
		{"mbu:3@0.5-1", "mbu:3@0.5-1"},
		{"stuck0:8@0.25-0.75", "stuck0:8@0.25-0.75"},
		{"set@0.5-1", "set@0.5-1"},
	}
	for _, c := range cases {
		m, err := fault.ParseModel(c.in)
		if err != nil {
			t.Fatalf("ParseModel(%q): %v", c.in, err)
		}
		if got := m.String(); got != c.want {
			t.Errorf("ParseModel(%q).String() = %q, want %q", c.in, got, c.want)
		}
		again, err := fault.ParseModel(m.String())
		if err != nil {
			t.Fatalf("re-parse %q: %v", m.String(), err)
		}
		if again != m {
			t.Errorf("round trip of %q: %+v != %+v", c.in, again, m)
		}
	}
}

// TestModelParseRejects pins the error surface of the grammar.
func TestModelParseRejects(t *testing.T) {
	bad := []string{
		"sbu",         // unknown kind
		"mbu:1",       // cluster below 2
		"mbu:5",       // cluster above 4
		"mbu:x",       // non-numeric parameter
		"seu:3",       // SEU takes no parameter
		"set:2",       // SET takes no parameter
		"stuck0:0",    // zero duration
		"stuck0:-1",   // negative duration
		"seu@0.5",     // window missing the end
		"seu@a-b",     // non-numeric window
		"seu@0.5-0.5", // empty window
		"seu@0.9-0.1", // inverted window
		"seu@-0.1-1",  // start below 0 (parses as empty start)
		"seu@0-1.5",   // end above 1
	}
	for _, s := range bad {
		if m, err := fault.ParseModel(s); err == nil {
			t.Errorf("ParseModel(%q) accepted as %q", s, m)
		}
	}
}

// TestModelValidate covers struct-literal validation, including the
// parameters the string grammar cannot express.
func TestModelValidate(t *testing.T) {
	if err := (fault.Model{}).Validate(); err != nil {
		t.Errorf("zero model rejected: %v", err)
	}
	if err := (fault.Model{Kind: fault.KindMBU}).Validate(); err != nil {
		t.Errorf("MBU default size rejected: %v", err)
	}
	bad := []fault.Model{
		{Kind: "flip"},
		{Kind: fault.KindSEU, Size: 2},
		{Kind: fault.KindSEU, Duration: 3},
		{Kind: fault.KindMBU, Size: 7},
		{Kind: fault.KindMBU, Duration: 2},
		{Kind: fault.KindStuck0, Duration: -1},
		{Kind: fault.KindStuck1, Size: 2},
		{Kind: fault.KindSET, Size: 3},
		{Kind: fault.KindSEU, WindowStart: -0.1, WindowEnd: 1},
		{Kind: fault.KindSEU, WindowStart: 0.6, WindowEnd: 0.4},
		{Kind: fault.KindSEU, WindowStart: 0, WindowEnd: 1.1},
	}
	for _, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", m)
		}
	}
}

// modelKinds lists every fault mechanism in canonical order.
var modelKinds = []fault.ModelKind{fault.KindSEU, fault.KindMBU, fault.KindStuck0, fault.KindStuck1, fault.KindSET}

// TestModelKindsComplete: every kind's name parses to that kind.
func TestModelKindsComplete(t *testing.T) {
	for _, k := range modelKinds {
		m, err := fault.ParseModel(string(k))
		if err != nil {
			t.Errorf("kind %q does not parse: %v", k, err)
			continue
		}
		if m.Kind != k {
			t.Errorf("kind %q parsed as %q", k, m.Kind)
		}
	}
}

// TestNewModelPlanSEUMatchesNewPlan is the bit-compatibility contract at the
// plan level: the SEU reference model samples the exact plan the paper's
// original sampler (NewPlan, until it lost its last caller; its body is kept
// here) does, for any spelling of the SEU default.
func TestNewModelPlanSEUMatchesNewPlan(t *testing.T) {
	const ffs, per, active, seed = 37, 5, 913, 2019
	rng := rand.New(rand.NewSource(seed))
	want := make([]fault.Job, 0, ffs*per)
	for ff := 0; ff < ffs; ff++ {
		for k := 0; k < per; k++ {
			want = append(want, fault.Job{FF: ff, Cycle: rng.Intn(active)})
		}
	}
	for _, m := range []fault.Model{{}, {Kind: fault.KindSEU}, {Kind: fault.KindSEU, WindowEnd: 1}} {
		got := fault.NewModelPlan(m, ffs, per, active, seed)
		if len(got) != len(want) {
			t.Fatalf("%+v: %d jobs, want %d", m, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%+v: job %d = %+v, want %+v", m, i, got[i], want[i])
			}
		}
	}
}

// TestNewModelPlanWindow pins the window arithmetic: every sampled cycle
// falls inside [start*active, end*active), and degenerate windows still
// produce one legal cycle per job.
func TestNewModelPlanWindow(t *testing.T) {
	const ffs, per, active = 11, 20, 400
	m, err := fault.ParseModel("seu@0.25-0.75")
	if err != nil {
		t.Fatal(err)
	}
	jobs := fault.NewModelPlan(m, ffs, per, active, 7)
	lo, hi := active/4, 3*active/4
	for _, j := range jobs {
		if j.Cycle < lo || j.Cycle >= hi {
			t.Fatalf("cycle %d outside window [%d,%d)", j.Cycle, lo, hi)
		}
	}
	// A window narrower than one cycle of a tiny active phase still yields
	// in-range cycles.
	narrow, err := fault.ParseModel("seu@0.99-1")
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range fault.NewModelPlan(narrow, ffs, per, 3, 7) {
		if j.Cycle < 0 || j.Cycle >= 3 {
			t.Fatalf("narrow window sampled cycle %d outside [0,3)", j.Cycle)
		}
	}
}

// TestModelTargetSpaces pins TargetsFFs and NumTargets per kind.
func TestModelTargetSpaces(t *testing.T) {
	p, _ := smallMAC(t)
	for _, k := range modelKinds {
		m := fault.Model{Kind: k}
		wantFFs := k != fault.KindSET
		if m.TargetsFFs() != wantFFs {
			t.Errorf("%s: TargetsFFs() = %v, want %v", k, m.TargetsFFs(), wantFFs)
		}
		want := p.NumFFs()
		if !wantFFs {
			want = p.NumCombTargets()
		}
		if got := m.NumTargets(p); got != want {
			t.Errorf("%s: NumTargets = %d, want %d", k, got, want)
		}
	}
	if p.NumCombTargets() == 0 {
		t.Fatal("MAC program has no combinational targets")
	}
}

// TestRunnerRejectsBadModel covers NewRunner's model validation.
func TestRunnerRejectsBadModel(t *testing.T) {
	p, bench := smallMAC(t)
	cls := fault.NewMACClassifier(bench, true)
	_, err := fault.NewGoldenRunner(p, bench.Stim, bench.Monitors, cls,
		fault.RunnerConfig{Model: fault.Model{Kind: "gamma-ray"}})
	if err == nil || !strings.Contains(err.Error(), "model") {
		t.Fatalf("NewRunner accepted an unknown fault model (err %v)", err)
	}
}
