package durable

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"strconv"
)

// Digest accumulates a content fingerprint in the one convention every
// fingerprint of this system follows: FNV-1a over 64-bit little-endian
// words, with every string and slice preceded by its length so that no two
// field sequences share a byte stream. The sums are pinned in checkpoint
// headers, bench/golden.json and the corpus tests; none may change.
type Digest struct {
	h   hash.Hash64
	buf [8]byte
}

// NewDigest returns an empty digest.
func NewDigest() *Digest { return &Digest{h: fnv.New64a()} }

// U64 adds one word.
func (d *Digest) U64(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}

// Int adds a count, an index or any other int as one word.
func (d *Digest) Int(v int) { d.U64(uint64(v)) }

// Str adds a string: its length, then its bytes.
func (d *Digest) Str(s string) {
	d.Int(len(s))
	io.WriteString(d.h, s)
}

// F64 adds the exact bits of a float.
func (d *Digest) F64(v float64) { d.U64(math.Float64bits(v)) }

// F64s adds a float slice: its length, then each value.
func (d *Digest) F64s(vs []float64) {
	d.Int(len(vs))
	for _, v := range vs {
		d.F64(v)
	}
}

// Sum returns the digest of everything added so far.
func (d *Digest) Sum() uint64 { return d.h.Sum64() }

// Hash is a Digest sum as a header carries it: a uint64 in memory, its
// lower-case hexadecimal digits, unpadded, as JSON text and under %v and %s
// (%x would print the digits of those digits).
type Hash uint64

func (h Hash) String() string { return strconv.FormatUint(uint64(h), 16) }

// MarshalText implements encoding.TextMarshaler.
func (h Hash) MarshalText() ([]byte, error) { return []byte(h.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (h *Hash) UnmarshalText(text []byte) error {
	v, err := strconv.ParseUint(string(text), 16, 64)
	*h = Hash(v)
	return err
}
