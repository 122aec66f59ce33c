package circuit

import (
	"fmt"

	"repro/internal/netlist"
)

// UARTSer is a UART-style byte serializer with a baud-rate timer — the
// corpus's timing-dominated DUT family. Bytes pushed into a transmit FIFO
// are framed as start(0) + 8 data bits (LSB first) + even parity + stop(1)
// and shifted out on the tx line, one bit per baud tick; a divider counter
// generates the ticks. Faults in the divider or the bit counter corrupt the
// *timing* of the line rather than its data — a failure mode the frame-level
// MAC criterion never produces, and the reason this family's FDR profile
// differs from the datapath DUTs.
//
// The frame counter is TMR hardened, the bit counter is not (the selective
// contrast population); a rotate-XOR signature samples the tx line at every
// baud tick so any timing slip is observable at the outputs forever after.
//
// Port summary:
//
//	inputs:  wr, data[8]     enqueue a byte
//	outputs: tx              serial line (idle high)
//	         busy            a frame is being shifted out
//	         full, empty     FIFO status
//	         frames[8]       completed-frame counter (TMR)
//	         bits[8]         shifted-bit counter (unhardened)
//	         sig[8]          tx-line signature, sampled at baud ticks

// UARTConfig parameterizes the UARTSer generator. Generation is fully
// deterministic: the same configuration always produces a
// fingerprint-identical netlist.
type UARTConfig struct {
	// Divisor is the baud-rate divider: one bit every Divisor cycles
	// (2..16).
	Divisor int
	// FIFODepth is the transmit FIFO depth (power of two ≥ 2).
	FIFODepth int
	// TargetFFs, when non-zero, pads with a diagnostic trace buffer to
	// exactly this flip-flop count.
	TargetFFs int
}

// FrameBits is the number of line symbols per UART frame:
// start + 8 data + parity + stop.
const FrameBits = 11

// DefaultUARTConfig is the corpus default.
func DefaultUARTConfig() UARTConfig {
	return UARTConfig{Divisor: 4, FIFODepth: 8, TargetFFs: 192}
}

// SmallUARTConfig is the smoke-test scale.
func SmallUARTConfig() UARTConfig {
	return UARTConfig{Divisor: 2, FIFODepth: 4}
}

// Validate checks the configuration.
func (c UARTConfig) Validate() error {
	if c.Divisor < 2 || c.Divisor > 16 {
		return fmt.Errorf("circuit: UART divisor %d out of range [2,16]", c.Divisor)
	}
	if c.FIFODepth < 2 || c.FIFODepth&(c.FIFODepth-1) != 0 {
		return fmt.Errorf("circuit: UART FIFO depth %d must be a power of two >= 2", c.FIFODepth)
	}
	if c.TargetFFs < 0 {
		return fmt.Errorf("circuit: negative TargetFFs %d", c.TargetFFs)
	}
	return nil
}

// NewUARTSer generates the serializer netlist.
func NewUARTSer(cfg UARTConfig) (*netlist.Netlist, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	b := netlist.NewBuilder("uartser")

	wr := b.Input("wr")
	data := b.InputBus("data", 8)

	// ---- Transmit FIFO ----------------------------------------------------
	popPh := b.NewPlaceholder()
	fifo := NewFIFO(b, "txfifo", cfg.FIFODepth, data, wr, popPh.Net())

	// ---- Baud-rate timer --------------------------------------------------
	// Free-running divider: a tick fires every Divisor cycles. Upsets here
	// stretch or shrink every subsequent bit cell.
	divBits := 1
	for 1<<uint(divBits) < cfg.Divisor {
		divBits++
	}
	var tick netlist.NetID
	StateWord(b, "baud/div", divBits, 0, func(cur Word) Word {
		tick = EqualConst(b, cur, uint64(cfg.Divisor-1))
		inc, _ := Incrementer(b, cur)
		return WordMux(b, inc, WordConst(b, divBits, 0), tick)
	})

	// ---- Frame engine -----------------------------------------------------
	busy, setBusy := b.DFFDecl("fsm/busy", false)
	idle := b.Not(busy)

	// Load a new frame at a tick while idle with a byte waiting.
	load := b.And(tick, idle, b.Not(fifo.Empty))
	popPh.Close(load)

	// Payload shift register: data + even parity, shifted one per data tick.
	parity := fifo.Out[0]
	for i := 1; i < 8; i++ {
		parity = b.Xor(parity, fifo.Out[i])
	}
	loadVal := append(append(Word{}, fifo.Out...), parity) // 9 bits

	// Bit counter: 0 start, 1..8 data, 9 parity, 10 stop.
	bcnt := make(Word, 4)
	bcntSet := make([]func(netlist.NetID), 4)
	for i := range bcnt {
		bcnt[i], bcntSet[i] = b.DFFDecl(fmt.Sprintf("fsm/bcnt[%d]", i), false)
	}
	lastBit := EqualConst(b, bcnt, FrameBits-1)
	shiftTick := b.And(tick, busy)
	frameEnd := b.And(shiftTick, lastBit)

	inc, _ := Incrementer(b, bcnt)
	for i := range bcnt {
		v := b.Mux(bcnt[i], inc[i], shiftTick)
		v = b.And(v, b.Not(load), b.Not(frameEnd)) // restart at 0
		bcntSet[i](v)
	}
	setBusy(b.Or(load, b.And(busy, b.Not(frameEnd))))

	// Shift on data/parity bit cells (bcnt 1..9 advance past a payload bit).
	isData := b.Not(b.Or(EqualConst(b, bcnt, 0), EqualConst(b, bcnt, FrameBits-1)))
	shreg := make(Word, 9)
	shregSet := make([]func(netlist.NetID), 9)
	for i := range shreg {
		shreg[i], shregSet[i] = b.DFFDecl(fmt.Sprintf("fsm/shreg[%d]", i), false)
	}
	shift := b.And(shiftTick, isData)
	for i := range shreg {
		var next netlist.NetID
		if i == 8 {
			next = b.Const0()
		} else {
			next = shreg[i+1]
		}
		v := b.Mux(shreg[i], next, shift)
		shregSet[i](b.Mux(v, loadVal[i], load))
	}

	// The line: idle/stop high, start low, else the current payload bit.
	isStart := b.And(busy, EqualConst(b, bcnt, 0))
	isStop := b.And(busy, lastBit)
	txRaw := b.Or(idle, isStop, b.And(busy, b.Not(isStart), shreg[0]))
	tx := b.DFF("tx/line", txRaw, true)

	// ---- Accounting and signature ----------------------------------------
	frames := TMRCounter(b, "stat/frames", 8, frameEnd, b.Const0())
	bits := Counter(b, "stat/bits", 8, shiftTick, b.Const0())
	sig := StateWord(b, "stat/sig", 8, 1, func(cur Word) Word {
		rot := append(append(Word{}, cur[7:]...), cur[:7]...)
		mixed := append(Word{}, rot...)
		mixed[0] = b.Xor(rot[0], tx)
		return WordMux(b, cur, mixed, tick)
	})

	// ---- Diagnostic trace buffer ------------------------------------------
	tracePar, err := DiagTraceBuffer(b, cfg.TargetFFs, 4, b.Xor(tx, busy))
	if err != nil {
		return nil, err
	}

	b.Output("tx", tx)
	b.Output("busy", busy)
	b.Output("full", fifo.Full)
	b.Output("empty", fifo.Empty)
	b.OutputBus("frames", frames)
	b.OutputBus("bits", bits)
	b.OutputBus("sig", sig)
	b.Output("trace_par", tracePar)

	nl, err := b.Finish()
	if err != nil {
		return nil, fmt.Errorf("circuit: building UARTSer: %w", err)
	}
	return nl, nil
}
