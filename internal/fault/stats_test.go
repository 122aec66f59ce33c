package fault_test

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/fault"
)

func TestWilsonInterval(t *testing.T) {
	lo, hi := fault.WilsonInterval(0, 0, 1.96)
	if lo != 0 || hi != 1 {
		t.Fatalf("empty interval = [%v,%v]", lo, hi)
	}
	lo, hi = fault.WilsonInterval(0, 170, 1.96)
	if lo != 0 {
		t.Fatalf("lo = %v, want 0", lo)
	}
	if hi <= 0 || hi > 0.05 {
		t.Fatalf("hi = %v, want small positive", hi)
	}
	lo, hi = fault.WilsonInterval(170, 170, 1.96)
	if hi != 1 || lo < 0.95 {
		t.Fatalf("interval at p=1: [%v,%v]", lo, hi)
	}
	lo, hi = fault.WilsonInterval(85, 170, 1.96)
	if math.Abs((lo+hi)/2-0.5) > 0.01 {
		t.Fatalf("interval at p=0.5 not centered: [%v,%v]", lo, hi)
	}
}

// Property: Wilson interval always contains the point estimate and stays in
// [0,1]; width shrinks with n.
func TestWilsonIntervalProperties(t *testing.T) {
	prop := func(failures, n uint8) bool {
		f := int(failures)
		trials := int(n)
		if trials == 0 {
			trials = 1
		}
		f %= trials + 1
		lo, hi := fault.WilsonInterval(f, trials, 1.96)
		p := float64(f) / float64(trials)
		if lo < 0 || hi > 1 || lo > hi {
			return false
		}
		if p < lo-1e-12 || p > hi+1e-12 {
			return false
		}
		lo2, hi2 := fault.WilsonInterval(f*10, trials*10, 1.96)
		return hi2-lo2 <= hi-lo+1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// A wider confidence level must give a wider interval.
func TestWilsonIntervalWidensWithZ(t *testing.T) {
	lo95, hi95 := fault.WilsonInterval(17, 170, 1.96)
	lo99, hi99 := fault.WilsonInterval(17, 170, 2.576)
	if hi99-lo99 <= hi95-lo95 {
		t.Fatalf("99%% interval [%v,%v] not wider than 95%% [%v,%v]", lo99, hi99, lo95, hi95)
	}
}

func TestHistogram(t *testing.T) {
	h := fault.Histogram([]float64{0, 0.05, 0.5, 0.99, 1.0, -0.1, 1.1}, 10)
	if h[0] != 3 { // 0, 0.05, clamped -0.1
		t.Fatalf("bin0 = %d, want 3", h[0])
	}
	if h[5] != 1 {
		t.Fatalf("bin5 = %d, want 1", h[5])
	}
	if h[9] != 3 { // 0.99, 1.0 and clamped 1.1
		t.Fatalf("bin9 = %d, want 3", h[9])
	}
	total := 0
	for _, c := range h {
		total += c
	}
	if total != 7 {
		t.Fatalf("histogram loses samples: %d", total)
	}
}

func TestHistogramEdges(t *testing.T) {
	if h := fault.Histogram(nil, 4); len(h) != 4 {
		t.Fatalf("empty input histogram = %v", h)
	}
	h := fault.Histogram([]float64{0, 0.5, 1}, 1)
	if h[0] != 3 {
		t.Fatalf("single-bin histogram = %v", h)
	}
}

func TestSummarize(t *testing.T) {
	r := &fault.Result{
		FDR:       []float64{0, 0.2, 0.8, 1.0},
		TotalRuns: 40,
	}
	s := fault.Summarize(r)
	if s.FFs != 4 || s.ZeroFDR != 1 || s.HighFDR != 2 {
		t.Fatalf("summary = %+v", s)
	}
	if math.Abs(s.MeanFDR-0.5) > 1e-12 || s.MaxFDR != 1.0 {
		t.Fatalf("summary = %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty String()")
	}
	empty := fault.Summarize(&fault.Result{})
	if empty.FFs != 0 {
		t.Fatalf("empty summary = %+v", empty)
	}
}

func TestSummarizeMedianAndString(t *testing.T) {
	r := &fault.Result{FDR: []float64{0.9, 0.1, 0.5}, TotalRuns: 30}
	s := fault.Summarize(r)
	if s.MedianFDR != 0.5 {
		t.Fatalf("median = %v, want 0.5 (must sort, not take middle input)", s.MedianFDR)
	}
	for _, want := range []string{"ffs=3", "runs=30", "maxFDR=0.900"} {
		if !strings.Contains(s.String(), want) {
			t.Fatalf("String() = %q missing %q", s.String(), want)
		}
	}
}

// BenchmarkWilsonInterval pins the cost of the statistics helper used in
// campaign reporting.
func BenchmarkWilsonInterval(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fault.WilsonInterval(i%171, 170, 1.96)
	}
}
