package sim

import (
	"cmp"
	"fmt"
	"slices"
)

// DefaultKernelWords is the wide-batch width of a KernelEngine in 64-lane
// words, and the fixed row width of its register file: 4 words = 256
// independent fault-simulation lanes per combinational pass. Wider batches
// amortize instruction dispatch further but grow the register file; 4
// keeps it cache-resident for the corpus circuits while quadrupling lanes
// per pass.
const DefaultKernelWords = 4

// kOp is a kernel bytecode opcode. The And/Or/Nand/Nor groups must stay
// consecutive in 2→4 input order; the encoder indexes into them.
type kOp uint8

const (
	kInv kOp = iota
	kAnd2
	kAnd3
	kAnd4
	kOr2
	kOr3
	kOr4
	kNand2
	kNand3
	kNand4
	kNor2
	kNor3
	kNor4
	kXor2
	kXnor2
	kMux2
	kAOI21
	kOAI21
	kAO21 // (a&b)|c — fused and-or
	kOA21 // (a|b)&c — fused or-and
	kAndN // a &^ b — fused and-not
	kOrN  // a | ^b — fused or-not
	// Wide fusion's superops (ir.go, pass 5).
	kAO222 // (a&b)|(c&d)|(e&f)
	kMuxA  // mux(mux(a, b, c), d, e)
	kMuxB  // mux(d, mux(a, b, c), e)
	kXor3  // a^b^c
	kHalt  // ends evalAVX's pass: BuildKernel puts one past the end of code
)

// kinstr is one kernel instruction: an opcode plus its operand rows, as
// slot indices into the register file.
type kinstr struct {
	dst              int32
	a, b, c, d, e, f int32
	op               kOp
}

// KernelConfig parameterizes kernel compilation.
type KernelConfig struct {
	// KeepOutputs lists the output ports that must stay observable
	// (monitored ports and loopback sources); dead-fanout pruning removes
	// logic feeding only unlisted outputs. nil keeps every output port.
	KeepOutputs []int
}

// Kernel is the compiled, immutable bytecode form of a program: the fused
// and pruned instruction stream plus the register-file layout (input,
// flip-flop and output slot maps). Build one per program with BuildKernel
// and share it across any number of KernelEngine instances.
type Kernel struct {
	p      *Program
	code   []kinstr
	slots  int
	inSlot []int32 // per input port
	// outSlot is -1 for output ports whose logic was pruned away.
	outSlot        []int32
	ffQ            []int32
	ffInit         []bool
	const0, const1 int32
	// The clock edge's flip-flop captures, split by planCommit: copies run
	// in place, holds[:staged] stage through scratch rows, the other holds
	// run in place. Each part is sorted into groups sharing a select row and
	// hold word.
	direct []ffCopy
	holds  []ffHold
	staged int
	stats  KernelStats
}

// Stats reports what the kernel compiler did.
func (k *Kernel) Stats() KernelStats { return k.stats }

// krow is one register-file row: the batch words of one slot. The width is
// a compile-time constant so Eval and Commit address a row as one array —
// one bounds check per operand, straight-line word ops — instead of
// looping over a run-time width.
type krow = [DefaultKernelWords]uint64

// Eval's per-opcode word ops are written out for exactly four words.
var _ = [1]struct{}{}[DefaultKernelWords-4]

// ffCopy is one flip-flop capture of the clock edge, Q ← D, as
// register-file slots.
type ffCopy struct{ q, d int32 }

// ffHold is the capture of a load-enable flip-flop, Q ← s == hold ? Q : x,
// as register-file slots; hold, 0 or all ones, is the select that keeps Q.
// On the first hold of a group, end is the index past the group's last.
type ffHold struct {
	q, x, s, end int32
	hold         uint64
}

// planCommit sorts the flip-flop captures. A copy whose D row is its own Q
// row needs nothing: Eval's coalesced D instruction already wrote it, or the
// flip-flop holds itself. Commit writes Q rows only, each capture its own,
// so a capture reading no Q row but its own (instruction results, primary
// inputs and constants: the only instruction given a Q slot is a coalesced
// D, and a capture reading it reads a Q row) can run in place, in any order.
// One reading another Q row (an FF→FF shift path, a hold whose data or
// enable is a Q, a second flip-flop on a coalesced D) stages, and a staged
// copy is a hold that always loads. Holds sharing a select row and hold
// word are grouped, so Commit tests and masks each shared load-enable once:
// in-place captures read no other Q row, so their order is free, and the one
// whose select is its own Q is alone in its group (another reading that Q is
// staged).
func (k *Kernel) planCommit(copies []ffCopy, holds []ffHold) {
	isQ := make([]bool, k.slots)
	for _, q := range k.ffQ {
		isQ[q] = true
	}
	for _, c := range copies {
		if c.d == c.q { // D's instruction wrote the Q row, or Q holds itself
			continue
		}
		if isQ[c.d] {
			holds = append(holds, ffHold{q: c.q, x: c.d, s: k.const1})
		} else {
			k.direct = append(k.direct, c)
		}
	}
	var inPlace []ffHold
	for _, h := range holds {
		if isQ[h.x] || isQ[h.s] && h.s != h.q {
			k.holds = append(k.holds, h)
		} else {
			inPlace = append(inPlace, h)
		}
	}
	k.staged = len(k.holds)
	k.holds = append(k.holds, inPlace...)
	byEnable := func(a, b ffHold) int {
		return cmp.Or(cmp.Compare(a.s, b.s), cmp.Compare(a.hold, b.hold), cmp.Compare(a.q, b.q))
	}
	slices.SortFunc(k.holds[:k.staged], byEnable)
	slices.SortFunc(k.holds[k.staged:], byEnable)
	for start := 0; start < len(k.holds); {
		limit, end := len(k.holds), start+1
		if start < k.staged {
			limit = k.staged
		}
		for end < limit && k.holds[end].s == k.holds[start].s && k.holds[end].hold == k.holds[start].hold {
			end++
		}
		k.holds[start].end = int32(end)
		start = end
	}
}

// KernelEngine executes a kernel over a wide batch of up to
// DefaultKernelWords 64-lane words: 64·W independent simulation lanes per
// combinational pass. Word w, bit l is lane 64·w+l; the fault runner maps
// each word to one scheduled 64-job group so wide batches stay
// bit-identical to W narrow interpreter batches.
//
// The cycle protocol mirrors Engine exactly (SetInput* / FlipFF / Eval /
// read outputs / Commit); state lives in a compact register file of one
// fixed-width row per slot (regs[s][w] is slot s, batch word w), which keeps
// each instruction's operands in adjacent cache lines. Eval and Commit
// always process whole rows; an engine instantiated narrower simply leaves
// the upper words of every row unread.
type KernelEngine struct {
	k     *Kernel
	w     int                              // batch words in use, ≤ DefaultKernelWords
	regs  []krow                           // one row per slot
	nextQ []krow                           // capture staging, one row per staged flip-flop
	eval  func(regs []krow, code []kinstr) // platformEvals[0].run

	// RunWindowWide scratch, recycled across windows: per-lane loopback
	// words, per-word divergence masks, and the register-file slots of the
	// loopback and monitor ports.
	lb, diverged       []uint64
	lbIn, lbOut, monAt []int32
}

// NewKernelEngine instantiates a kernel over words 64-lane words per batch
// (0 selects DefaultKernelWords, the maximum). Instances are cheap; create
// one per worker goroutine.
func NewKernelEngine(k *Kernel, words int) *KernelEngine {
	if words <= 0 {
		words = DefaultKernelWords
	}
	if words > DefaultKernelWords {
		// Programmer error: callers pass DefaultKernelWords or a test width.
		panic(fmt.Sprintf("sim: kernel engine of %d words, row width is %d", words, DefaultKernelWords))
	}
	e := &KernelEngine{
		k:     k,
		w:     words,
		regs:  make([]krow, k.slots),
		nextQ: make([]krow, k.staged),
		eval:  platformEvals[0].run,
	}
	e.Reset()
	return e
}

// Words returns the batch width in 64-lane words.
func (e *KernelEngine) Words() int { return e.w }

// Lanes returns the total lane count of one batch.
func (e *KernelEngine) Lanes() int { return e.w * Lanes }

// row returns the register-file row of a slot.
func (e *KernelEngine) row(slot int32) *krow { return &e.regs[slot] }

// Reset loads the constant slots and every flip-flop's initial value into
// all lanes and clears everything else.
func (e *KernelEngine) Reset() {
	clear(e.regs)
	ones := krow{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}
	*e.row(e.k.const1) = ones
	for i, q := range e.k.ffQ {
		if e.k.ffInit[i] {
			*e.row(q) = ones
		}
	}
}

// SetInputBool broadcasts one bit to every lane of input port i.
func (e *KernelEngine) SetInputBool(i int, v bool) {
	var word uint64
	if v {
		word = ^uint64(0)
	}
	*e.row(e.k.inSlot[i]) = krow{word, word, word, word}
}

// SetInput drives word onto input port i in every batch word in use.
func (e *KernelEngine) SetInput(i int, word uint64) {
	words := krow{word, word, word, word}
	copy(e.row(e.k.inSlot[i])[:e.w], words[:e.w])
}

// FlipFF inverts flip-flop ff in the lanes of mask within batch word w —
// the SEU injection primitive, same semantics as Engine.FlipFF per word.
func (e *KernelEngine) FlipFF(ff, w int, mask uint64) {
	e.row(e.k.ffQ[ff])[w] ^= mask
}

// ForceFF drives flip-flop ff to value in the lanes of mask within batch
// word w — the kernel counterpart of Engine.ForceFF, used by the stuck-at
// fault model.
func (e *KernelEngine) ForceFF(ff, w int, mask uint64, value bool) {
	if value {
		e.row(e.k.ffQ[ff])[w] |= mask
	} else {
		e.row(e.k.ffQ[ff])[w] &^= mask
	}
}

// FFWord returns the packed state of flip-flop ff in batch word w. It is
// valid at the top of a cycle (after Reset, a restore or Commit), not
// between Eval and Commit: a coalesced capture's Q row then holds the next
// state.
func (e *KernelEngine) FFWord(ff, w int) uint64 {
	return e.row(e.k.ffQ[ff])[w]
}

func (e *KernelEngine) ffBits(dst []uint64) {
	for w := range dst {
		var word uint64
		for j, q := range e.k.ffQ[w*64 : min(w*64+64, len(e.k.ffQ))] {
			word |= (e.regs[q][0] & 1) << (j & 63)
		}
		dst[w] = word
	}
}

// outAt returns the register-file slot of output port i. The port must be
// in the kernel's kept set.
func (e *KernelEngine) outAt(i int) int32 {
	slot := e.k.outSlot[i]
	if slot < 0 {
		// Programmer error: the fault runner builds its kernel keeping its
		// own monitors and loopback sources, the only ports it reads.
		panic(fmt.Sprintf("sim: kernel output port %d was pruned (not in KeepOutputs)", i))
	}
	return slot
}

// OutputWord returns the packed word on output port i in batch word w
// (valid after Eval). The port must be in the kernel's kept set.
func (e *KernelEngine) OutputWord(i, w int) uint64 {
	return e.regs[e.outAt(i)][w]
}

// Output returns batch word 0 of output port i, OutputWord(i, 0).
func (e *KernelEngine) Output(i int) uint64 { return e.OutputWord(i, 0) }

// mux is one word of the 2:1 select, s ? b : a, in the three-op form: a&^s
// | b&s is four on amd64 without ANDN, the default GOAMD64 level.
func mux(a, b, s uint64) uint64 { return a ^ (a^b)&s }

// Eval executes the kernel bytecode: one fused combinational pass over all
// lanes of every row, by the first of platformEvals.
func (e *KernelEngine) Eval() { e.eval(e.regs, e.k.code) }

// kernelEval is one implementation of Eval's pass, named for the tests.
type kernelEval struct {
	name string
	run  func(regs []krow, code []kinstr)
}

// platformEvals lists the Eval implementations this machine can run, the one
// engines use first: the Go pass, behind the AVX pass of kernel_amd64.go.
var platformEvals = []kernelEval{{"go", evalGo}}

// evalGo is the pass in Go, and the reference the assembly is held to. Every
// instruction reads all its operand words before writing the destination row
// (the right-hand sides of a tuple assignment are evaluated first), so
// in-place destinations — the allocator's preferred layout — are safe.
func evalGo(regs []krow, code []kinstr) {
	for i := range code {
		ins := &code[i]
		rd := &regs[ins.dst]
		a := &regs[ins.a]
		switch ins.op {
		case kInv:
			rd[0], rd[1], rd[2], rd[3] = ^a[0], ^a[1], ^a[2], ^a[3]
		case kAnd2:
			b := &regs[ins.b]
			rd[0], rd[1], rd[2], rd[3] = a[0]&b[0], a[1]&b[1], a[2]&b[2], a[3]&b[3]
		case kAnd3:
			b, c := &regs[ins.b], &regs[ins.c]
			rd[0], rd[1], rd[2], rd[3] = a[0]&b[0]&c[0], a[1]&b[1]&c[1], a[2]&b[2]&c[2], a[3]&b[3]&c[3]
		case kAnd4:
			b, c, d := &regs[ins.b], &regs[ins.c], &regs[ins.d]
			rd[0], rd[1], rd[2], rd[3] = a[0]&b[0]&c[0]&d[0], a[1]&b[1]&c[1]&d[1], a[2]&b[2]&c[2]&d[2], a[3]&b[3]&c[3]&d[3]
		case kOr2:
			b := &regs[ins.b]
			rd[0], rd[1], rd[2], rd[3] = a[0]|b[0], a[1]|b[1], a[2]|b[2], a[3]|b[3]
		case kOr3:
			b, c := &regs[ins.b], &regs[ins.c]
			rd[0], rd[1], rd[2], rd[3] = a[0]|b[0]|c[0], a[1]|b[1]|c[1], a[2]|b[2]|c[2], a[3]|b[3]|c[3]
		case kOr4:
			b, c, d := &regs[ins.b], &regs[ins.c], &regs[ins.d]
			rd[0], rd[1], rd[2], rd[3] = a[0]|b[0]|c[0]|d[0], a[1]|b[1]|c[1]|d[1], a[2]|b[2]|c[2]|d[2], a[3]|b[3]|c[3]|d[3]
		case kNand2:
			b := &regs[ins.b]
			rd[0], rd[1], rd[2], rd[3] = ^(a[0] & b[0]), ^(a[1] & b[1]), ^(a[2] & b[2]), ^(a[3] & b[3])
		case kNand3:
			b, c := &regs[ins.b], &regs[ins.c]
			rd[0], rd[1], rd[2], rd[3] = ^(a[0] & b[0] & c[0]), ^(a[1] & b[1] & c[1]), ^(a[2] & b[2] & c[2]), ^(a[3] & b[3] & c[3])
		case kNand4:
			b, c, d := &regs[ins.b], &regs[ins.c], &regs[ins.d]
			rd[0], rd[1], rd[2], rd[3] = ^(a[0] & b[0] & c[0] & d[0]), ^(a[1] & b[1] & c[1] & d[1]), ^(a[2] & b[2] & c[2] & d[2]), ^(a[3] & b[3] & c[3] & d[3])
		case kNor2:
			b := &regs[ins.b]
			rd[0], rd[1], rd[2], rd[3] = ^(a[0] | b[0]), ^(a[1] | b[1]), ^(a[2] | b[2]), ^(a[3] | b[3])
		case kNor3:
			b, c := &regs[ins.b], &regs[ins.c]
			rd[0], rd[1], rd[2], rd[3] = ^(a[0] | b[0] | c[0]), ^(a[1] | b[1] | c[1]), ^(a[2] | b[2] | c[2]), ^(a[3] | b[3] | c[3])
		case kNor4:
			b, c, d := &regs[ins.b], &regs[ins.c], &regs[ins.d]
			rd[0], rd[1], rd[2], rd[3] = ^(a[0] | b[0] | c[0] | d[0]), ^(a[1] | b[1] | c[1] | d[1]), ^(a[2] | b[2] | c[2] | d[2]), ^(a[3] | b[3] | c[3] | d[3])
		case kXor2:
			b := &regs[ins.b]
			rd[0], rd[1], rd[2], rd[3] = a[0]^b[0], a[1]^b[1], a[2]^b[2], a[3]^b[3]
		case kXnor2:
			b := &regs[ins.b]
			rd[0], rd[1], rd[2], rd[3] = ^(a[0] ^ b[0]), ^(a[1] ^ b[1]), ^(a[2] ^ b[2]), ^(a[3] ^ b[3])
		case kMux2:
			b, s := &regs[ins.b], &regs[ins.c]
			rd[0], rd[1], rd[2], rd[3] = mux(a[0], b[0], s[0]), mux(a[1], b[1], s[1]), mux(a[2], b[2], s[2]), mux(a[3], b[3], s[3])
		case kAOI21:
			b, c := &regs[ins.b], &regs[ins.c]
			rd[0], rd[1], rd[2], rd[3] = ^((a[0] & b[0]) | c[0]), ^((a[1] & b[1]) | c[1]), ^((a[2] & b[2]) | c[2]), ^((a[3] & b[3]) | c[3])
		case kOAI21:
			b, c := &regs[ins.b], &regs[ins.c]
			rd[0], rd[1], rd[2], rd[3] = ^((a[0] | b[0]) & c[0]), ^((a[1] | b[1]) & c[1]), ^((a[2] | b[2]) & c[2]), ^((a[3] | b[3]) & c[3])
		case kAO21:
			b, c := &regs[ins.b], &regs[ins.c]
			rd[0], rd[1], rd[2], rd[3] = (a[0]&b[0])|c[0], (a[1]&b[1])|c[1], (a[2]&b[2])|c[2], (a[3]&b[3])|c[3]
		case kOA21:
			b, c := &regs[ins.b], &regs[ins.c]
			rd[0], rd[1], rd[2], rd[3] = (a[0]|b[0])&c[0], (a[1]|b[1])&c[1], (a[2]|b[2])&c[2], (a[3]|b[3])&c[3]
		case kAndN:
			b := &regs[ins.b]
			rd[0], rd[1], rd[2], rd[3] = a[0]&^b[0], a[1]&^b[1], a[2]&^b[2], a[3]&^b[3]
		case kOrN:
			b := &regs[ins.b]
			rd[0], rd[1], rd[2], rd[3] = a[0]|^b[0], a[1]|^b[1], a[2]|^b[2], a[3]|^b[3]
		case kAO222:
			b, c, d, e, f := &regs[ins.b], &regs[ins.c], &regs[ins.d], &regs[ins.e], &regs[ins.f]
			rd[0], rd[1], rd[2], rd[3] = a[0]&b[0]|c[0]&d[0]|e[0]&f[0], a[1]&b[1]|c[1]&d[1]|e[1]&f[1], a[2]&b[2]|c[2]&d[2]|e[2]&f[2], a[3]&b[3]|c[3]&d[3]|e[3]&f[3]
		case kMuxA:
			b, c, d, e := &regs[ins.b], &regs[ins.c], &regs[ins.d], &regs[ins.e]
			rd[0], rd[1], rd[2], rd[3] = mux(mux(a[0], b[0], c[0]), d[0], e[0]), mux(mux(a[1], b[1], c[1]), d[1], e[1]), mux(mux(a[2], b[2], c[2]), d[2], e[2]), mux(mux(a[3], b[3], c[3]), d[3], e[3])
		case kMuxB:
			b, c, d, e := &regs[ins.b], &regs[ins.c], &regs[ins.d], &regs[ins.e]
			rd[0], rd[1], rd[2], rd[3] = mux(d[0], mux(a[0], b[0], c[0]), e[0]), mux(d[1], mux(a[1], b[1], c[1]), e[1]), mux(d[2], mux(a[2], b[2], c[2]), e[2]), mux(d[3], mux(a[3], b[3], c[3]), e[3])
		case kXor3:
			b, c := &regs[ins.b], &regs[ins.c]
			rd[0], rd[1], rd[2], rd[3] = a[0]^b[0]^c[0], a[1]^b[1]^c[1], a[2]^b[2]^c[2], a[3]^b[3]^c[3]
		}
	}
}

// Commit performs the clock edge for all lanes: every flip-flop captures
// its D value. Staged captures are computed before any Q row is written,
// so FF-to-FF paths see pre-edge values; the rest run in place (see
// planCommit for why that is sound). Each group of holds reads its select
// row once, before writing any member: an in-place group whose select row
// is the hold word in every word is skipped, as mux(q, x, hold) is q.
func (e *KernelEngine) Commit() {
	regs, k := e.regs, e.k
	for i := 0; i < len(k.holds); {
		g := &k.holds[i]
		end := int(g.end)
		s := &regs[g.s]
		if i >= k.staged && s[0] == g.hold && s[1] == g.hold && s[2] == g.hold && s[3] == g.hold {
			i = end
			continue
		}
		m0, m1, m2, m3 := s[0]^g.hold, s[1]^g.hold, s[2]^g.hold, s[3]^g.hold
		for ; i < end; i++ {
			h := &k.holds[i]
			q, x := &regs[h.q], &regs[h.x]
			dst := q
			if i < k.staged {
				dst = &e.nextQ[i]
			}
			dst[0], dst[1], dst[2], dst[3] = mux(q[0], x[0], m0), mux(q[1], x[1], m1), mux(q[2], x[2], m2), mux(q[3], x[3], m3)
		}
	}
	for _, c := range k.direct {
		// Word by word: a whole-row assignment between rows the compiler
		// cannot prove disjoint becomes a memmove call.
		q, d := &regs[c.q], &regs[c.d]
		q[0], q[1], q[2], q[3] = d[0], d[1], d[2], d[3]
	}
	for i := range e.nextQ {
		regs[k.holds[i].q] = e.nextQ[i]
	}
}
