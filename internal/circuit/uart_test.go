package circuit_test

import (
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/sim"
)

// uartFrame is the software reference: the FrameBits line symbols for one
// data byte, in wire order.
func uartFrame(data byte) []bool {
	bits := make([]bool, 0, circuit.FrameBits)
	bits = append(bits, false) // start
	parity := false
	for i := 0; i < 8; i++ {
		bit := data>>uint(i)&1 == 1
		bits = append(bits, bit)
		parity = parity != bit
	}
	bits = append(bits, parity, true) // even parity, stop
	return bits
}

type uartDriver struct {
	e    *sim.Engine
	wr   int
	data []int
	tx   int
	busy int
	full int
	cfg  circuit.UARTConfig
}

func newUARTDriver(t *testing.T, cfg circuit.UARTConfig) *uartDriver {
	t.Helper()
	nl, err := circuit.NewUARTSer(cfg)
	if err != nil {
		t.Fatalf("NewUARTSer: %v", err)
	}
	if err := circuit.Synthesize(nl); err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	p, err := sim.Compile(nl)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	d := &uartDriver{e: sim.NewEngine(p), cfg: cfg}
	if d.wr, err = p.InputIndex("wr"); err != nil {
		t.Fatal(err)
	}
	if d.data, err = p.InputBusIndices("data", 8); err != nil {
		t.Fatal(err)
	}
	if d.tx, err = p.OutputIndex("tx"); err != nil {
		t.Fatal(err)
	}
	if d.busy, err = p.OutputIndex("busy"); err != nil {
		t.Fatal(err)
	}
	if d.full, err = p.OutputIndex("full"); err != nil {
		t.Fatal(err)
	}
	return d
}

// step clocks one cycle and samples the line.
func (d *uartDriver) step(wr bool, data byte) (tx, busy, full bool) {
	d.e.SetInputBool(d.wr, wr)
	for i, p := range d.data {
		d.e.SetInputBool(p, data>>uint(i)&1 == 1)
	}
	d.e.Eval()
	tx = d.e.Output(d.tx)&1 == 1
	busy = d.e.Output(d.busy)&1 == 1
	full = d.e.Output(d.full)&1 == 1
	d.e.Commit()
	return
}

// decodeLine splits a recorded tx waveform into frames: each frame starts at
// a falling edge from idle and carries FrameBits symbols of cellLen cycles
// each, sampled mid-cell.
func decodeLine(line []bool, cellLen int) [][]bool {
	var frames [][]bool
	c := 0
	for c < len(line) {
		if line[c] {
			c++
			continue
		}
		// Start-bit edge found; sample every cell at its midpoint.
		var bits []bool
		ok := true
		for k := 0; k < circuit.FrameBits; k++ {
			idx := c + k*cellLen + cellLen/2
			if idx >= len(line) {
				ok = false
				break
			}
			bits = append(bits, line[idx])
		}
		if !ok {
			break
		}
		frames = append(frames, bits)
		c += circuit.FrameBits * cellLen
	}
	return frames
}

// Every pushed byte must appear on the line as a correctly framed, correctly
// timed start+data+parity+stop sequence, in FIFO order.
func TestUARTSerFramesBytes(t *testing.T) {
	for _, cfg := range []circuit.UARTConfig{circuit.SmallUARTConfig(), circuit.DefaultUARTConfig()} {
		d := newUARTDriver(t, cfg)
		rng := rand.New(rand.NewSource(31))

		var sent []byte
		var line []bool
		// Sending a frame takes FrameBits*Divisor cycles plus sync slack;
		// push slowly enough that the FIFO never drops (full is also
		// checked live).
		frameCycles := (circuit.FrameBits + 3) * cfg.Divisor
		const nBytes = 12
		cycles := (nBytes + 3) * frameCycles
		for c := 0; c < cycles; c++ {
			push := false
			var bv byte
			if c%frameCycles == 0 && len(sent) < nBytes {
				bv = byte(rng.Uint64())
				push = true
			}
			tx, _, full := d.step(push, bv)
			if push && full {
				t.Fatalf("cycle %d: FIFO full despite paced pushes", c)
			}
			if push {
				sent = append(sent, bv)
			}
			line = append(line, tx)
		}
		frames := decodeLine(line, cfg.Divisor)
		if len(frames) != len(sent) {
			t.Fatalf("divisor %d: sent %d bytes, decoded %d frames", cfg.Divisor, len(sent), len(frames))
		}
		for i, bv := range sent {
			want := uartFrame(bv)
			for k := range want {
				if frames[i][k] != want[k] {
					t.Fatalf("divisor %d frame %d (byte %#x): symbol %d is %v, want %v",
						cfg.Divisor, i, bv, k, frames[i][k], want[k])
				}
			}
		}
	}
}

// The line must idle high and busy must fall after the queue drains.
func TestUARTSerIdleState(t *testing.T) {
	d := newUARTDriver(t, circuit.SmallUARTConfig())
	for c := 0; c < 50; c++ {
		tx, busy, _ := d.step(false, 0)
		if !tx {
			t.Fatalf("cycle %d: line not idle-high without traffic", c)
		}
		if busy {
			t.Fatalf("cycle %d: busy without traffic", c)
		}
	}
	d.step(true, 0x5A)
	sawBusy := false
	for c := 0; c < 40*d.cfg.Divisor; c++ {
		_, busy, _ := d.step(false, 0)
		sawBusy = sawBusy || busy
	}
	if !sawBusy {
		t.Fatal("pushing a byte never raised busy")
	}
	tx, busy, _ := d.step(false, 0)
	if !tx || busy {
		t.Fatal("line did not return to idle after draining")
	}
}

// Default config hits its FF budget; generation is deterministic.
func TestUARTSerBudgetAndDeterminism(t *testing.T) {
	cfg := circuit.DefaultUARTConfig()
	nl, err := circuit.NewUARTSer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(nl.FFs()); got != cfg.TargetFFs {
		t.Fatalf("FF count %d, want %d", got, cfg.TargetFFs)
	}
	nl2, err := circuit.NewUARTSer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if nl.Fingerprint() != nl2.Fingerprint() {
		t.Fatal("two generations with the same config differ")
	}
}

func TestUARTConfigValidate(t *testing.T) {
	for _, cfg := range []circuit.UARTConfig{
		{Divisor: 1, FIFODepth: 4},
		{Divisor: 20, FIFODepth: 4},
		{Divisor: 4, FIFODepth: 3},
		{Divisor: 4, FIFODepth: 4, TargetFFs: -1},
	} {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %+v validated", cfg)
		}
	}
}
