package fault

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// Model describes the physical fault a campaign injects. The zero value is
// the paper's reference model — a single-event upset flipping one flip-flop
// for one cycle over the full active window — and every other model reuses
// the same Job/plan/runner machinery:
//
//   - SEU: flip the target flip-flop once at the job's cycle.
//   - MBU: flip the target flip-flop and its Size-1 spatially nearest
//     neighbours (netlist.FFProximityClusters) in the same cycle.
//   - Stuck-at-0/1: force the target flip-flop to 0/1 for Duration
//     consecutive cycles starting at the job's cycle (clamped to the end of
//     the stimulus).
//   - SET: pulse the target combinational cell's output for exactly one
//     evaluation. The transient latches only where a downstream flip-flop
//     samples it that cycle (applied as state flips on the following
//     cycle), and glitches the monitored outputs it reaches for the pulse
//     cycle itself. SET jobs index combinational targets
//     (sim.Program.NumCombTargets), not flip-flops.
//
// Any model may additionally be windowed: WindowStart/WindowEnd restrict
// plan sampling to a fraction of the active window, modelling injection
// conditioned on a workload phase. The window is a plan-time property;
// execution is identical.
//
// Models are part of a campaign's identity: checkpoints record the
// canonical String form and refuse to resume under a different model.
type Model struct {
	// Kind selects the fault mechanism; "" means KindSEU.
	Kind ModelKind
	// Size is the MBU cluster size (2–4); 0 elsewhere.
	Size int
	// Duration is the stuck-at hold time in cycles (>= 1); 0 elsewhere.
	Duration int
	// WindowStart and WindowEnd bound plan sampling to the
	// [WindowStart, WindowEnd) fraction of the active window; (0, 0) means
	// the full window.
	WindowStart, WindowEnd float64
}

// ModelKind names a fault mechanism.
type ModelKind string

// Fault mechanisms.
const (
	KindSEU    ModelKind = "seu"
	KindMBU    ModelKind = "mbu"
	KindStuck0 ModelKind = "stuck0"
	KindStuck1 ModelKind = "stuck1"
	KindSET    ModelKind = "set"
)

// normalize fills the zero-value defaults in: empty kind is SEU, an MBU
// without a size flips 2 flip-flops, a stuck-at without a duration holds
// for 1 cycle, and a zero window is the full active window.
func (m Model) normalize() Model {
	if m.Kind == "" {
		m.Kind = KindSEU
	}
	if m.Kind == KindMBU && m.Size == 0 {
		m.Size = 2
	}
	if (m.Kind == KindStuck0 || m.Kind == KindStuck1) && m.Duration == 0 {
		m.Duration = 1
	}
	if m.WindowStart == 0 && m.WindowEnd == 0 {
		m.WindowEnd = 1
	}
	return m
}

// Validate rejects malformed models.
func (m Model) Validate() error {
	n := m.normalize()
	switch n.Kind {
	case KindSEU, KindMBU, KindStuck0, KindStuck1, KindSET:
	default:
		return fmt.Errorf("fault: unknown model kind %q", m.Kind)
	}
	if n.Kind == KindMBU {
		if n.Size < 2 || n.Size > 4 {
			return fmt.Errorf("fault: MBU cluster size %d out of [2,4]", n.Size)
		}
	} else if m.Size != 0 {
		return fmt.Errorf("fault: model %q does not take a cluster size", n.Kind)
	}
	if n.Kind == KindStuck0 || n.Kind == KindStuck1 {
		if n.Duration < 1 {
			return fmt.Errorf("fault: stuck-at duration %d < 1", n.Duration)
		}
	} else if m.Duration != 0 {
		return fmt.Errorf("fault: model %q does not take a duration", n.Kind)
	}
	if !(0 <= n.WindowStart && n.WindowStart < n.WindowEnd && n.WindowEnd <= 1) { // NaN fails every comparison
		return fmt.Errorf("fault: injection window [%g,%g) out of order or outside [0,1]",
			n.WindowStart, n.WindowEnd)
	}
	return nil
}

// String renders the canonical form parsed by ParseModel: the kind, a
// parameter where the kind takes one ("mbu:3", "stuck0:8"), and an
// "@start-end" suffix when windowed ("seu@0.25-0.75").
func (m Model) String() string {
	n := m.normalize()
	var b strings.Builder
	b.WriteString(string(n.Kind))
	switch n.Kind {
	case KindMBU:
		fmt.Fprintf(&b, ":%d", n.Size)
	case KindStuck0, KindStuck1:
		fmt.Fprintf(&b, ":%d", n.Duration)
	}
	if n.WindowStart != 0 || n.WindowEnd != 1 {
		// Never an exponent: its '-' would read as the window separator.
		b.WriteString("@" + strconv.FormatFloat(n.WindowStart, 'f', -1, 64) +
			"-" + strconv.FormatFloat(n.WindowEnd, 'f', -1, 64))
	}
	return b.String()
}

// ParseModel resolves a -fault-model flag value. The empty string means the
// SEU reference model; otherwise the syntax is
// kind[:param][@start-end] — e.g. "seu", "mbu:3", "stuck0:8",
// "set@0.5-1". The result is validated.
func ParseModel(s string) (Model, error) {
	var m Model
	rest := strings.TrimSpace(strings.ToLower(s))
	if at := strings.IndexByte(rest, '@'); at >= 0 {
		win := rest[at+1:]
		rest = rest[:at]
		lohi := strings.SplitN(win, "-", 2)
		if len(lohi) != 2 {
			return Model{}, fmt.Errorf("fault: model window %q is not start-end", win)
		}
		var err error
		if m.WindowStart, err = strconv.ParseFloat(lohi[0], 64); err != nil {
			return Model{}, fmt.Errorf("fault: model window start %q: %v", lohi[0], err)
		}
		if m.WindowEnd, err = strconv.ParseFloat(lohi[1], 64); err != nil {
			return Model{}, fmt.Errorf("fault: model window end %q: %v", lohi[1], err)
		}
	}
	kind, param, hasParam := strings.Cut(rest, ":")
	m.Kind = ModelKind(kind)
	if hasParam {
		v, err := strconv.Atoi(param)
		if err != nil {
			return Model{}, fmt.Errorf("fault: model parameter %q: %v", param, err)
		}
		// An explicit parameter must be meaningful: 0 would silently adopt
		// the kind's default, which the grammar spells by omission instead.
		if v < 1 {
			return Model{}, fmt.Errorf("fault: model parameter %d < 1", v)
		}
		switch m.Kind {
		case KindMBU:
			m.Size = v
		case KindStuck0, KindStuck1:
			m.Duration = v
		default:
			return Model{}, fmt.Errorf("fault: model %q does not take a parameter", kind)
		}
	}
	if err := m.Validate(); err != nil {
		return Model{}, err
	}
	return m.normalize(), nil
}

// TargetsFFs reports whether the model's jobs index flip-flops. SET jobs
// index combinational cells instead.
func (m Model) TargetsFFs() bool { return m.normalize().Kind != KindSET }

// NumTargets returns the model's injection-target count for a program:
// flip-flops for FF-targeted models, combinational cells for SET.
func (m Model) NumTargets(p *sim.Program) int {
	if m.TargetsFFs() {
		return p.NumFFs()
	}
	return p.NumCombTargets()
}

// window resolves the sampling window to concrete cycles [lo, hi) within
// [0, activeCycles).
func (m Model) window(activeCycles int) (lo, hi int) {
	n := m.normalize()
	lo = int(n.WindowStart * float64(activeCycles))
	hi = int(n.WindowEnd * float64(activeCycles))
	if hi > activeCycles {
		hi = activeCycles
	}
	if lo >= activeCycles {
		lo = activeCycles - 1
	}
	if hi <= lo {
		hi = lo + 1
	}
	return lo, hi
}

// NewModelPlan samples the statistical injection plan for a fault model:
// for every target, perTarget uniformly random cycles inside the model's
// window of [0, activeCycles), ordered by target as the paper reports its
// per-instance results. For the SEU reference model (full window) the
// sampling — and therefore the plan — is the paper's original one: one
// rng.Intn(activeCycles) per job, which the tests pin against a copy of
// the pre-model sampler.
func NewModelPlan(m Model, numTargets, perTarget, activeCycles int, seed int64) []Job {
	lo, hi := m.window(activeCycles)
	rng := rand.New(rand.NewSource(seed))
	jobs := make([]Job, 0, numTargets*perTarget)
	for t := 0; t < numTargets; t++ {
		for k := 0; k < perTarget; k++ {
			jobs = append(jobs, Job{FF: t, Cycle: lo + rng.Intn(hi-lo)})
		}
	}
	return jobs
}
