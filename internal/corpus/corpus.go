package corpus

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/fault"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// Scale selects the circuit/workload size of a scenario.
type Scale int

// Scales. Small keeps every corpus entry fast enough for smoke tests and
// CI; Default is the scale experiments report.
const (
	ScaleSmall Scale = iota
	ScaleDefault
)

// ParseScale resolves a -scale flag value.
func ParseScale(s string) (Scale, error) {
	switch strings.ToLower(s) {
	case "small":
		return ScaleSmall, nil
	case "default":
		return ScaleDefault, nil
	}
	return 0, fmt.Errorf("corpus: unknown scale %q (valid: small, default)", s)
}

// String implements fmt.Stringer.
func (s Scale) String() string {
	if s == ScaleSmall {
		return "small"
	}
	return "default"
}

// Geometry is a scenario's default campaign shape.
type Geometry struct {
	// InjectionsPerFF is the per-flip-flop SEU budget.
	InjectionsPerFF int
	// CampaignSeed drives injection-time sampling.
	CampaignSeed int64
}

// Bench is a compiled workload: the open-loop stimulus, the monitored
// output ports, the injection window and the applicative failure criterion.
// It is the generic counterpart of circuit.MACBench that lets fault.Runner
// drive any corpus DUT.
type Bench struct {
	Stim     *sim.Stimulus
	Monitors []int
	// ActiveCycles is the injection window [0, ActiveCycles).
	ActiveCycles int
	// Classifier decides per-lane functional failure against the golden
	// trace.
	Classifier fault.Classifier
}

// Workload is one testbench variant of a DUT family.
type Workload struct {
	// Name is the variant identifier within the family (e.g. "loopback").
	Name string
	// Description is a one-line summary for listings.
	Description string
	// Build compiles the workload against a compiled program of the
	// family's netlist. Workload construction is deterministic in
	// (scale, seed).
	Build func(p *sim.Program, scale Scale, seed int64) (*Bench, error)
}

// Entry is one DUT family of the corpus.
type Entry struct {
	// Name is the family identifier (e.g. "alupipe").
	Name string
	// Description is a one-line summary for listings.
	Description string
	// Generate builds the family's netlist (pre-synthesis) at the given
	// scale. Generation must be deterministic in (scale, seed): the same
	// pair always yields a Fingerprint-identical netlist. Structured
	// generators ignore the seed; randomized ones (the "random" family)
	// derive all randomness from it.
	Generate func(scale Scale, seed int64) (*netlist.Netlist, error)
	// Workloads are the family's testbench variants; at least one.
	Workloads []Workload
	// Defaults is the family's default campaign geometry.
	Defaults Geometry
}

// Scenario is one (family, workload) pair — the unit of the corpus.
type Scenario struct {
	Entry    *Entry
	Workload *Workload
}

// ID returns the scenario identifier "family/workload".
func (s Scenario) ID() string { return s.Entry.Name + "/" + s.Workload.Name }

// registry is the ordered corpus. Builtins register at init; external
// packages may add more via Register.
var registry []*Entry

// Register adds a DUT family to the corpus. It rejects nil generators,
// empty workload lists and duplicate family names.
func Register(e *Entry) error {
	if e == nil || e.Name == "" {
		return fmt.Errorf("corpus: registering nil or unnamed entry")
	}
	if strings.ContainsRune(e.Name, '/') {
		return fmt.Errorf("corpus: family name %q must not contain '/'", e.Name)
	}
	if e.Generate == nil {
		return fmt.Errorf("corpus: family %q has no generator", e.Name)
	}
	if len(e.Workloads) == 0 {
		return fmt.Errorf("corpus: family %q has no workloads", e.Name)
	}
	seen := map[string]bool{}
	for i := range e.Workloads {
		w := &e.Workloads[i]
		if w.Name == "" || w.Build == nil {
			return fmt.Errorf("corpus: family %q has an unnamed or buildless workload", e.Name)
		}
		if seen[w.Name] {
			return fmt.Errorf("corpus: family %q registers workload %q twice", e.Name, w.Name)
		}
		seen[w.Name] = true
	}
	if e.Defaults.InjectionsPerFF < 1 {
		return fmt.Errorf("corpus: family %q has no default injection budget", e.Name)
	}
	for _, prev := range registry {
		if prev.Name == e.Name {
			return fmt.Errorf("corpus: family %q already registered", e.Name)
		}
	}
	registry = append(registry, e)
	return nil
}

// mustRegister is the builtin-registration helper; a broken builtin is a
// programming error.
func mustRegister(e *Entry) {
	if err := Register(e); err != nil {
		panic(err) // programmer error: a builtin family is malformed or registered twice
	}
}

// Families lists every registered DUT family in registration order.
func Families() []*Entry {
	return append([]*Entry(nil), registry...)
}

// List enumerates every scenario in registration order.
func List() []Scenario {
	var out []Scenario
	for _, e := range registry {
		for i := range e.Workloads {
			out = append(out, Scenario{Entry: e, Workload: &e.Workloads[i]})
		}
	}
	return out
}

// IDs lists every scenario identifier in registration order.
func IDs() []string {
	scenarios := List()
	ids := make([]string, len(scenarios))
	for i, s := range scenarios {
		ids[i] = s.ID()
	}
	return ids
}

// Find resolves a scenario by "family/workload" identifier, or a family's
// first workload when only "family" is given.
func Find(id string) (Scenario, error) {
	family, workload, hasWorkload := strings.Cut(id, "/")
	for _, e := range registry {
		if e.Name != family {
			continue
		}
		if !hasWorkload {
			return Scenario{Entry: e, Workload: &e.Workloads[0]}, nil
		}
		for i := range e.Workloads {
			if e.Workloads[i].Name == workload {
				return Scenario{Entry: e, Workload: &e.Workloads[i]}, nil
			}
		}
		return Scenario{}, fmt.Errorf("corpus: family %q has no workload %q (valid: %s)",
			family, workload, strings.Join(workloadNames(e), ", "))
	}
	known := IDs()
	sort.Strings(known)
	return Scenario{}, fmt.Errorf("corpus: unknown scenario %q (valid: %s)",
		id, strings.Join(known, ", "))
}

func workloadNames(e *Entry) []string {
	names := make([]string, len(e.Workloads))
	for i := range e.Workloads {
		names[i] = e.Workloads[i].Name
	}
	return names
}
