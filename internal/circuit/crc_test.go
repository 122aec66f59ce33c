package circuit_test

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/circuit"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// crc32UpdateByte is the software reference for one byte step. crc is the
// raw register (not complemented).
func crc32UpdateByte(crc uint32, data byte) uint32 {
	crc ^= uint32(data)
	for i := 0; i < 8; i++ {
		if crc&1 == 1 {
			crc = crc>>1 ^ circuit.ReflectedPoly
		} else {
			crc >>= 1
		}
	}
	return crc
}

// crc32Bytes runs the reference over a byte string starting from CRCInit
// and returns the final complemented checksum (equal to hash/crc32
// ChecksumIEEE).
func crc32Bytes(data []byte) uint32 {
	crc := circuit.CRCInit
	for _, d := range data {
		crc = crc32UpdateByte(crc, d)
	}
	return crc ^ 0xFFFFFFFF
}

func TestCRC32BytesMatchesStdlib(t *testing.T) {
	prop := func(data []byte) bool {
		return crc32Bytes(data) == crc32.ChecksumIEEE(data)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCRCResidueConstant(t *testing.T) {
	// Message followed by its little-endian complemented FCS must land the
	// register on CRCResidue — the property the RX datapath checks.
	prop := func(data []byte) bool {
		fcs := crc32Bytes(data) // complemented checksum
		crc := circuit.CRCInit
		for _, d := range data {
			crc = crc32UpdateByte(crc, d)
		}
		var fcsBytes [4]byte
		binary.LittleEndian.PutUint32(fcsBytes[:], fcs)
		for _, d := range fcsBytes {
			crc = crc32UpdateByte(crc, d)
		}
		return crc == circuit.CRCResidue
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// crcHarness is a tiny circuit exposing the CRC engine for direct testing.
func crcHarness(t *testing.T) *sim.Program {
	t.Helper()
	b := netlist.NewBuilder("crcharness")
	en := b.Input("en")
	clear := b.Input("clear")
	data := b.InputBus("data", 8)
	eng := circuit.NewCRCEngine(b, "crc", data, en, clear)
	b.OutputBus("crc", eng.Value)
	b.OutputBus("fcs", eng.FCS(b))
	b.Output("residue_ok", eng.ResidueOK(b))
	nl, err := b.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	p, err := sim.Compile(nl)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return p
}

func TestCRCEngineGateLevelMatchesReference(t *testing.T) {
	p := crcHarness(t)
	e := sim.NewEngine(p)
	en, _ := p.InputIndex("en")
	clear, _ := p.InputIndex("clear")
	data, _ := p.InputBusIndices("data", 8)
	crcOut, _ := p.OutputBusIndices("crc", 32)

	rng := rand.New(rand.NewSource(42))
	msg := make([]byte, 23)
	for i := range msg {
		msg[i] = byte(rng.Intn(256))
	}

	read32 := func() uint32 {
		var v uint32
		for i := 0; i < 32; i++ {
			v |= uint32(e.Output(crcOut[i])&1) << uint(i)
		}
		return v
	}

	e.SetInputBool(en, false)
	e.SetInputBool(clear, false)
	e.Eval()
	if got := read32(); got != circuit.CRCInit {
		t.Fatalf("reset crc = %#x, want %#x", got, circuit.CRCInit)
	}

	want := circuit.CRCInit
	e.SetInputBool(en, true)
	for _, bv := range msg {
		for i := 0; i < 8; i++ {
			e.SetInputBool(data[i], bv>>uint(i)&1 == 1)
		}
		e.Eval()
		e.Commit()
		want = crc32UpdateByte(want, bv)
		e.SetInputBool(en, false)
		e.Eval()
		if got := read32(); got != want {
			t.Fatalf("after byte %#x: crc = %#x, want %#x", bv, got, want)
		}
		e.SetInputBool(en, true)
	}
	if got, ref := read32()^0xFFFFFFFF, crc32.ChecksumIEEE(msg); got != ref {
		t.Fatalf("final checksum = %#x, stdlib = %#x", got, ref)
	}

	// Clear must reload init even with enable high.
	e.SetInputBool(clear, true)
	e.Eval()
	e.Commit()
	e.SetInputBool(clear, false)
	e.SetInputBool(en, false)
	e.Eval()
	if got := read32(); got != circuit.CRCInit {
		t.Fatalf("after clear: crc = %#x, want %#x", got, circuit.CRCInit)
	}
}

func TestCRCEngineResidueDetector(t *testing.T) {
	p := crcHarness(t)
	e := sim.NewEngine(p)
	en, _ := p.InputIndex("en")
	data, _ := p.InputBusIndices("data", 8)
	resOK, _ := p.OutputIndex("residue_ok")

	msg := []byte("frame payload!")
	fcs := crc32Bytes(msg)
	var stream []byte
	stream = append(stream, msg...)
	var fcsBytes [4]byte
	binary.LittleEndian.PutUint32(fcsBytes[:], fcs)
	stream = append(stream, fcsBytes[:]...)

	e.SetInputBool(en, true)
	for _, bv := range stream {
		for i := 0; i < 8; i++ {
			e.SetInputBool(data[i], bv>>uint(i)&1 == 1)
		}
		e.Eval()
		e.Commit()
	}
	e.SetInputBool(en, false)
	e.Eval()
	if e.Output(resOK)&1 != 1 {
		t.Fatal("residue_ok must be high after intact frame")
	}

	// Corrupt one byte: residue must fail.
	e.Reset()
	stream[3] ^= 0x10
	e.SetInputBool(en, true)
	for _, bv := range stream {
		for i := 0; i < 8; i++ {
			e.SetInputBool(data[i], bv>>uint(i)&1 == 1)
		}
		e.Eval()
		e.Commit()
	}
	e.SetInputBool(en, false)
	e.Eval()
	if e.Output(resOK)&1 != 0 {
		t.Fatal("residue_ok must be low after corrupted frame")
	}
}
