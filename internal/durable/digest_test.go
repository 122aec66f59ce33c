package durable_test

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/durable"
)

// The closures every fingerprint was written with before Digest existed,
// verbatim: Digest must produce their sums bit for bit, because the sums are
// in checkpoint headers on disk and in the pinned tests.
func TestDigestMatchesTheHandWrittenConvention(t *testing.T) {
	h := fnv.New64a()
	var buf [8]byte
	write := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	writeStr := func(s string) {
		write(uint64(len(s)))
		h.Write([]byte(s))
	}
	d := durable.NewDigest()
	if d.Sum() != h.Sum64() {
		t.Fatalf("empty digest %#x, want %#x", d.Sum(), h.Sum64())
	}

	write(0xdeadbeefcafe)
	d.U64(0xdeadbeefcafe)
	driver := int64(-1) // a primary input's driver in Netlist.Fingerprint
	write(uint64(driver))
	d.Int(-1)
	writeStr("")
	d.Str("")
	writeStr("txfifo/count[1] — ü")
	d.Str("txfifo/count[1] — ü")
	row := []float64{0, math.Copysign(0, -1), 1.5, math.Inf(1), math.NaN(), math.Nextafter(4, 5)}
	write(uint64(len(row)))
	for _, v := range row {
		write(math.Float64bits(v))
	}
	d.F64s(row)
	write(0) // a nil target vector in DataFingerprint
	d.F64s(nil)
	write(math.Float64bits(0.1))
	d.F64(0.1)
	if d.Sum() != h.Sum64() {
		t.Errorf("digest %#x, hand-written closures %#x", d.Sum(), h.Sum64())
	}
}

func TestHashIsHexText(t *testing.T) {
	for _, tc := range []struct {
		h    durable.Hash
		text string
	}{
		{0, "0"},
		{0xab, "ab"},
		{0x8a348a0b7ef94d4, "8a348a0b7ef94d4"}, // 15 digits: no padding
		{math.MaxUint64, "ffffffffffffffff"},
	} {
		out, err := json.Marshal(struct {
			H durable.Hash `json:"h"`
		}{tc.h})
		if want := `{"h":"` + tc.text + `"}`; err != nil || string(out) != want {
			t.Errorf("%#x marshals to %s (%v), want %s", uint64(tc.h), out, err, want)
		}
		var back struct {
			H durable.Hash `json:"h"`
		}
		if err := json.Unmarshal(out, &back); err != nil || back.H != tc.h {
			t.Errorf("%s unmarshals to %#x (%v)", out, uint64(back.H), err)
		}
		if got := fmt.Sprintf("%v %s", tc.h, tc.h); got != tc.text+" "+tc.text {
			t.Errorf("%#x prints as %q", uint64(tc.h), got)
		}
	}
}
