package knn

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// fuzzValue maps one byte to a feature value: a coarse grid, so that
// distances tie often, and NaN, ±Inf and −0 at the top of the range.
func fuzzValue(b byte) float64 {
	switch b {
	case 0xff:
		return math.NaN()
	case 0xfe:
		return math.Inf(1)
	case 0xfd:
		return math.Inf(-1)
	case 0xfc:
		return math.Copysign(0, -1)
	}
	return float64(int(b)-128) / 16
}

// fuzzRows draws a training set from the fuzzed bytes, then from seed once
// those run out: 1 to 40 features, 1 to 64 rows, each of which may repeat an
// earlier one, and target i for row i. next draws further bytes.
func fuzzRows(seed int64, w, n uint8, data []byte) (X [][]float64, y []float64, next func() byte) {
	rng := rand.New(rand.NewSource(seed))
	next = func() byte {
		if len(data) == 0 {
			return byte(rng.Intn(256))
		}
		b := data[0]
		data = data[1:]
		return b
	}
	width, rows := 1+int(w)%40, 1+int(n)%64
	X = make([][]float64, rows)
	y = make([]float64, rows)
	for i := range X {
		if b := next(); i > 0 && b%4 == 0 {
			X[i] = X[int(b/4)%i]
		} else {
			X[i] = make([]float64, width)
			for j := range X[i] {
				X[i][j] = fuzzValue(next())
			}
		}
		y[i] = float64(i)
	}
	return X, y, next
}

// FuzzNeighbors holds Neighbors under every scan of PlatformScans — the AVX
// block kernel, and distances4, whose blocks give up once they cannot reach
// the k nearest — to refNeighbors, which sums every distance in full: the
// same indices in the same order and bit-equal distances. Widths run from 1
// to 40, below and above distances4's check interval, and rows from 1 to 64,
// so the last block is padded; rows are drawn from the fuzzed bytes (then
// from seed once those run out), and a row may repeat an earlier one.
func FuzzNeighbors(f *testing.F) {
	f.Add(int64(1), uint8(24), uint8(40), uint8(2), []byte{})
	f.Add(int64(39), uint8(39), uint8(63), uint8(66), []byte("0"))
	f.Add(int64(2), uint8(4), uint8(13), uint8(0), []byte{0xff, 0x80, 0xfe, 0xfd, 0xfc, 0x80, 0x81})
	f.Add(int64(3), uint8(39), uint8(63), uint8(63), []byte{0x80, 0x80, 0x80, 0x80})
	// Four rows finite in the first eight features and +Inf in the ninth,
	// against an all-+Inf query: every partial sum is +Inf at the first check
	// and every distance NaN, so no row may be given up before the heap holds
	// k of them.
	row := []byte{0x01, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0xfe}
	f.Add(int64(4), uint8(8), uint8(3), uint8(3), slices.Concat(row, row, row, row, bytes.Repeat([]byte{0xfe}, 9)))
	f.Fuzz(func(t *testing.T, seed int64, w, n, k uint8, data []byte) {
		X, y, next := fuzzRows(seed, w, n, data)
		width, rows := len(X[0]), len(X)
		query := make([]float64, width)
		for j := range query {
			query[j] = fuzzValue(next())
		}
		m := New(1 + int(k)%rows)
		if err := m.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		for _, scan := range PlatformScans() {
			m.UseScan(scan)
			assertNeighbors(t, scan, fmt.Sprintf("k=%d, width %d, %d rows", m.K, width, rows), 0, m, query)
		}
	})
}

// FuzzPredictEachK holds PredictEachK, one distance scan per query feeding a
// heap per k, under every scan of PlatformScans to a model of its own per k
// on distances4: the same prediction bits for every k and query. The ks come
// from the bytes of kb (up to 8, repeats allowed), the rows from fuzzRows,
// and the queries are two drawn rows and a training row.
func FuzzPredictEachK(f *testing.F) {
	f.Add(int64(1), uint8(24), uint8(40), []byte{2, 0, 6, 2}, []byte{})
	f.Add(int64(2), uint8(4), uint8(13), []byte{0, 12, 5}, []byte{0xff, 0x80, 0xfe, 0xfd, 0xfc, 0x80, 0x81})
	f.Add(int64(3), uint8(39), uint8(63), []byte{63, 1, 19, 7, 7, 3, 0, 40}, []byte{0x80, 0x80, 0x80, 0x80})
	f.Add(int64(4), uint8(8), uint8(3), []byte{3, 2}, bytes.Repeat([]byte{0xfe}, 40))
	f.Fuzz(func(t *testing.T, seed int64, w, n uint8, kb []byte, data []byte) {
		X, y, next := fuzzRows(seed, w, n, data)
		if len(kb) == 0 {
			kb = []byte{0}
		}
		ks := make([]int, min(len(kb), 8))
		for i := range ks {
			ks[i] = 1 + int(kb[i])%len(X)
		}
		queries := [][]float64{make([]float64, len(X[0])), make([]float64, len(X[0])), X[int(next())%len(X)]}
		for _, q := range queries[:2] {
			for j := range q {
				q[j] = fuzzValue(next())
			}
		}
		want := make([][]float64, len(ks))
		for i, k := range ks {
			m := New(k)
			if err := m.Fit(X, y); err != nil {
				t.Fatal(err)
			}
			m.UseScan("go")
			for _, x := range queries {
				want[i] = append(want[i], m.Predict(x))
			}
		}
		shared := New(1)
		if err := shared.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		for _, scan := range PlatformScans() {
			shared.UseScan(scan)
			got, err := shared.PredictEachK(queries, ks)
			if err != nil {
				t.Fatal(err)
			}
			for i, k := range ks {
				for q, x := range queries {
					if !sameBits(scan, got[i][q], want[i][q]) {
						t.Fatalf("%s: k=%d (of %v) query %d (width %d, %d rows): %x, a model of its own gives %x",
							scan, k, ks, q, len(x), len(X), math.Float64bits(got[i][q]), math.Float64bits(want[i][q]))
					}
				}
			}
		}
	})
}
