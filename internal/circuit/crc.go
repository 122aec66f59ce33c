package circuit

import (
	"fmt"

	"repro/internal/netlist"
)

// CRC-32 (IEEE 802.3) in its reflected form, the same algorithm the Go
// standard library's hash/crc32 IEEE table implements. The gate-level engine
// processes one byte per cycle:
//
//	for each data bit i (LSB first):
//	    fb    = crc[0] ^ d[i]
//	    crc   = crc >> 1
//	    crc  ^= fb ? 0xEDB88320 : 0
//
// ReflectedPoly is the reflected IEEE polynomial.
const ReflectedPoly uint32 = 0xEDB88320

// CRCInit is the standard initial register value.
const CRCInit uint32 = 0xFFFFFFFF

// CRCResidue is the register value observed after processing a message
// followed by its (complemented, little-endian) FCS: the Ethernet "magic
// number" check used by the receive path.
const CRCResidue uint32 = 0xDEBB20E3

// CRC32ByteStep builds the combinational next-state network for one byte of
// data: given the 32-bit register value and 8 data bits it returns the next
// register value. Gate cost: 8 stages × (1 + popcount(poly)) XOR2 gates.
func CRC32ByteStep(b *netlist.Builder, crc Word, data Word) Word {
	if len(crc) != 32 || len(data) != 8 {
		// Programmer error: NewCRCEngine, the one caller, declares both widths.
		panic(fmt.Sprintf("circuit: CRC32ByteStep wants 32+8 bits, got %d+%d", len(crc), len(data)))
	}
	cur := crc
	for i := 0; i < 8; i++ {
		fb := b.Xor(cur[0], data[i])
		next := make(Word, 32)
		for j := 0; j < 32; j++ {
			var shifted netlist.NetID
			if j == 31 {
				shifted = b.Const0()
			} else {
				shifted = cur[j+1]
			}
			if ReflectedPoly>>uint(j)&1 == 1 {
				next[j] = b.Xor(shifted, fb)
			} else {
				next[j] = shifted
			}
		}
		cur = next
	}
	return cur
}

// CRCEngine is a byte-wide CRC-32 register with enable and synchronous
// clear-to-init. Clear takes precedence over enable.
type CRCEngine struct {
	// Value is the current (raw, uncomplemented) register contents.
	Value Word
}

// NewCRCEngine builds the engine. When clear is high the register reloads
// CRCInit; when en is high it absorbs the data byte; otherwise it holds.
func NewCRCEngine(b *netlist.Builder, name string, data Word, en, clear netlist.NetID) *CRCEngine {
	q := make(Word, 32)
	setters := make([]func(netlist.NetID), 32)
	for i := 0; i < 32; i++ {
		// Reset state is CRCInit so the engine is ready after global reset.
		q[i], setters[i] = b.DFFDecl(fmt.Sprintf("%s[%d]", name, i), CRCInit>>uint(i)&1 == 1)
	}
	next := CRC32ByteStep(b, q, data)
	for i := 0; i < 32; i++ {
		v := b.Mux(q[i], next[i], en)
		if CRCInit>>uint(i)&1 == 1 {
			v = b.Or(v, clear)
		} else {
			v = b.And(v, b.Not(clear))
		}
		setters[i](v)
	}
	return &CRCEngine{Value: q}
}

// FCS returns the complemented register value — the frame check sequence as
// transmitted on the wire, LSB first (little-endian byte order).
func (e *CRCEngine) FCS(b *netlist.Builder) Word {
	return WordInv(b, e.Value)
}

// ResidueOK returns a net that is high when the register holds CRCResidue,
// i.e. the received frame (payload ‖ FCS) was intact.
func (e *CRCEngine) ResidueOK(b *netlist.Builder) netlist.NetID {
	return EqualConst(b, e.Value, uint64(CRCResidue))
}
