package sim

import (
	"math/bits"

	"repro/internal/durable"
)

// Stimulus is an open-loop input trace plus loopback rules. Open-loop
// stimulus is what makes bit-parallel fault simulation sound: every lane
// receives the same port vectors, so lanes differ only through injected
// faults (and through loopback, which is per-lane by construction).
type Stimulus struct {
	cycles   int
	ports    []int
	vectors  [][]bool // [port][cycle]
	loopback []Loopback
}

// Loopback feeds output port Out (sampled each cycle) into input port In on
// the following cycle, independently per lane. For cycle 0, the value is the
// output's post-reset state, which is well defined for registered outputs.
type Loopback struct {
	In  int
	Out int
}

// NewStimulus returns an empty stimulus covering the given number of cycles.
func NewStimulus(cycles int) *Stimulus {
	return &Stimulus{cycles: cycles}
}

// Cycles returns the trace length.
func (s *Stimulus) Cycles() int { return s.cycles }

// DrivePort registers an input port for vector driving and returns a setter
// for its per-cycle values. Undriven cycles default to 0.
func (s *Stimulus) DrivePort(port int) func(cycle int, v bool) {
	s.ports = append(s.ports, port)
	vec := make([]bool, s.cycles)
	s.vectors = append(s.vectors, vec)
	return func(cycle int, v bool) {
		vec[cycle] = v
	}
}

// DriveBus registers a bus of input ports and returns a setter that writes a
// value across the bus (LSB first) at a cycle.
func (s *Stimulus) DriveBus(ports []int) func(cycle int, v uint64) {
	setters := make([]func(int, bool), len(ports))
	for i, p := range ports {
		setters[i] = s.DrivePort(p)
	}
	return func(cycle int, v uint64) {
		for i := range setters {
			setters[i](cycle, v>>uint(i)&1 == 1)
		}
	}
}

// AddLoopback wires output port out into input port in with one cycle of
// delay, per lane.
func (s *Stimulus) AddLoopback(in, out int) {
	s.loopback = append(s.loopback, Loopback{In: in, Out: out})
}

// Trace records packed monitor words per cycle.
type Trace struct {
	Monitors []int // output port indices, in recording order
	words    []uint64
	cycles   int
}

// NewTrace allocates a trace for the given monitors and cycle count.
func NewTrace(monitors []int, cycles int) *Trace {
	return &Trace{
		Monitors: monitors,
		words:    make([]uint64, cycles*len(monitors)),
		cycles:   cycles,
	}
}

// Cycles returns the number of recorded cycles.
func (t *Trace) Cycles() int { return t.cycles }

// Word returns the packed word of monitor m at the given cycle.
func (t *Trace) Word(cycle, m int) uint64 { return t.words[cycle*len(t.Monitors)+m] }

// Bit returns monitor m's bit in the given lane at the given cycle.
func (t *Trace) Bit(cycle, m, lane int) bool {
	return t.Word(cycle, m)>>uint(lane)&1 == 1
}

// Row returns the packed monitor words of one cycle, one word per monitor in
// recording order. The slice aliases the trace's storage: callers must treat
// it as read-only. It exists for streaming classifiers that observe a run
// cycle by cycle without re-slicing per word.
func (t *Trace) Row(cycle int) []uint64 {
	nm := len(t.Monitors)
	return t.words[cycle*nm : (cycle+1)*nm]
}

// XORWord toggles the lanes of mask in monitor m's word at the given cycle.
// The fault runner applies SET output glitches with it: a pulse that reaches
// a monitored port flips that port's sample for exactly the pulse cycle, so
// the runner toggles the recorded row before its streams observe it, and the
// reference replay the whole trace's rows after its run.
func (t *Trace) XORWord(cycle, m int, mask uint64) {
	t.words[cycle*len(t.Monitors)+m] ^= mask
}

// CopyCycles copies rows [from, to) of src into t. Both traces must record
// the same monitor set over the same cycle count; the campaign path uses it
// to start a worker's faulty-trace buffers as copies of the golden run and
// to put back the rows a batch's window dirtied.
func (t *Trace) CopyCycles(src *Trace, from, to int) {
	if len(t.Monitors) != len(src.Monitors) || t.cycles != src.cycles {
		// Programmer error: the campaign path builds both traces over its
		// runner's monitors and stimulus.
		panic("sim: CopyCycles across mismatched traces")
	}
	nm := len(t.Monitors)
	copy(t.words[from*nm:to*nm], src.words[from*nm:to*nm])
}

// Fingerprint returns a stable 64-bit digest of the trace: its shape (cycles,
// monitor ports) and every packed monitor word. Two traces fingerprint equal
// iff they record the same monitors over the same cycles with identical
// values, which lets campaign checkpoints pin the golden reference they were
// classified against without storing the trace itself.
func (t *Trace) Fingerprint() uint64 {
	d := durable.NewDigest()
	d.Int(t.cycles)
	d.Int(len(t.Monitors))
	for _, m := range t.Monitors {
		d.Int(m)
	}
	for _, w := range t.words {
		d.U64(w)
	}
	return d.Sum()
}

// Equal reports whether two traces record identical monitors, cycle counts
// and monitor words.
func (t *Trace) Equal(o *Trace) bool {
	if t == o {
		return true
	}
	if t == nil || o == nil || t.cycles != o.cycles || len(t.Monitors) != len(o.Monitors) {
		return false
	}
	for i, m := range t.Monitors {
		if o.Monitors[i] != m {
			return false
		}
	}
	for i, w := range t.words {
		if o.words[i] != w {
			return false
		}
	}
	return true
}

// Activity aggregates the paper's dynamic features per flip-flop over a run:
// cycles spent at logic 1 (@1; @0 is the complement) and the number of state
// changes, both observed on lane 0.
type Activity struct {
	Ones    []int64
	Toggles []int64
	Cycles  int
}

// RunConfig controls a simulation run.
type RunConfig struct {
	// Monitors lists output ports to record; nil records nothing.
	Monitors []int
	// PreEval, when non-nil, is invoked every cycle after inputs are
	// driven and before combinational evaluation — the injection hook.
	PreEval func(cycle int)
	// CollectActivity enables per-FF activity statistics (lane 0).
	CollectActivity bool
	// Snapshots, when non-nil, captures periodic engine-state restore
	// points during the run (see NewSnapshots). Only meaningful on a
	// lane-uniform (golden) run: the capture stores lane 0 as canonical.
	Snapshots *Snapshots
}

// stepper is the cycle protocol run drives, on the interpreter (Engine) or
// on batch word 0 of a compiled kernel (KernelEngine).
type stepper interface {
	Reset()
	SetInputBool(i int, v bool)
	SetInput(i int, word uint64)
	Eval()
	Output(i int) uint64
	// ffBits packs lane 0 of every flip-flop's Q, flip-flop i at bit i%64 of
	// dst[i/64]. It is valid at the top of a cycle, not between Eval and
	// Commit: a kernel's coalesced Q row then holds the next state.
	ffBits(dst []uint64)
	Commit()
}

// Run executes the stimulus on a freshly reset engine and returns the
// recorded trace (nil when cfg.Monitors is nil) and activity statistics
// (nil unless requested).
func Run(e *Engine, stim *Stimulus, cfg RunConfig) (*Trace, *Activity) {
	return run(e, e.p, stim, cfg)
}

// RunKernel is Run on a compiled kernel, bit for bit: the trace, activity
// and snapshots of batch word 0. The kernel must keep the monitors and the
// loopback sources (Stimulus.ObservedOutputs).
func RunKernel(e *KernelEngine, stim *Stimulus, cfg RunConfig) (*Trace, *Activity) {
	return run(e, e.k.p, stim, cfg)
}

// run is the one cycle loop of Run and RunKernel. Cycle 0's loopback words
// are what the interpreter reads after Reset (Program.resetOutput), whatever
// row a kernel holds for the port.
func run(e stepper, p *Program, stim *Stimulus, cfg RunConfig) (*Trace, *Activity) {
	e.Reset()
	var trace *Trace
	if cfg.Monitors != nil {
		trace = NewTrace(cfg.Monitors, stim.cycles)
	}
	var act *Activity
	var q, prev []uint64 // lane 0 of every flip-flop, packed: this cycle and the one before
	if cfg.CollectActivity {
		n := p.NumFFs()
		act = &Activity{Ones: make([]int64, n), Toggles: make([]int64, n), Cycles: stim.cycles}
		q, prev = make([]uint64, (n+63)/64), make([]uint64, (n+63)/64)
		e.ffBits(prev)
	}
	lb := make([]uint64, len(stim.loopback))
	for i, l := range stim.loopback {
		lb[i] = p.resetOutput(l.Out)
	}
	for c := 0; c < stim.cycles; c++ {
		if cfg.Snapshots != nil {
			cfg.Snapshots.capture(e, lb, c)
		}
		for k, port := range stim.ports {
			e.SetInputBool(port, stim.vectors[k][c])
		}
		for i, l := range stim.loopback {
			e.SetInput(l.In, lb[i])
		}
		if cfg.PreEval != nil {
			cfg.PreEval(c)
		}
		if act != nil {
			// Sampled before Eval, at the top of the cycle. Set bits only: a
			// cycle costs its ones and toggles, not its flip-flops.
			e.ffBits(q)
			for w, word := range q {
				for b := word; b != 0; b &= b - 1 {
					act.Ones[w*64+bits.TrailingZeros64(b)]++
				}
				for b := word ^ prev[w]; b != 0; b &= b - 1 {
					act.Toggles[w*64+bits.TrailingZeros64(b)]++
				}
			}
			q, prev = prev, q
		}
		e.Eval()
		for i, l := range stim.loopback {
			lb[i] = e.Output(l.Out)
		}
		if trace != nil {
			base := c * len(cfg.Monitors)
			for m, port := range cfg.Monitors {
				trace.words[base+m] = e.Output(port)
			}
		}
		e.Commit()
	}
	return trace, act
}

// RunScalar executes the stimulus on a scalar engine, recording a single
// lane. It mirrors Run and exists to cross-validate the packed engine.
func RunScalar(e *ScalarEngine, stim *Stimulus, monitors []int, preEval func(cycle int)) [][]bool {
	e.Reset()
	out := make([][]bool, stim.cycles)
	lb := make([]bool, len(stim.loopback))
	for i, l := range stim.loopback {
		lb[i] = e.Output(l.Out)
	}
	for c := 0; c < stim.cycles; c++ {
		for k, port := range stim.ports {
			e.SetInput(port, stim.vectors[k][c])
		}
		for i, l := range stim.loopback {
			e.SetInput(l.In, lb[i])
		}
		if preEval != nil {
			preEval(c)
		}
		e.Eval()
		for i, l := range stim.loopback {
			lb[i] = e.Output(l.Out)
		}
		row := make([]bool, len(monitors))
		for m, port := range monitors {
			row[m] = e.Output(port)
		}
		out[c] = row
		e.Commit()
	}
	return out
}
