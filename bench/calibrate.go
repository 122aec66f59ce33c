package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// The machine this benchmark runs on is a few cores of a shared host, and how
// fast those cores are changes under it: for ten minutes at a time everything
// the benchmark runs is 10-35 % slower, all five workloads together (see
// results/SPREAD.md). The slowdown is strongest on code that lives in the
// cache hierarchy and barely touches a pure ALU loop, which is the signature
// of neighbours on a shared cache. No statistic of a run's own repetitions
// can remove it, because the whole run sits inside it.
//
// So every run also measures the machine. Between repetitions it times four
// small fixed kernels that know nothing of the program under test, and the
// reported timings are divided by how much slower than their reference times
// the kernels ran: seconds as they would read with the host quiet. Over ten
// differently seeded runs the kernels' slowdown follows the workloads' times
// with a correlation of 0.75-0.96, and dividing by it takes the run-to-run
// spread from 13-22 % to 4-10 %.

// calibration is one run's record of the machine's speed.
type calibration struct {
	a, b, c []uint64  // calBits: three 256 KiB vectors
	f, g    []float64 // calFloat: two 128 KiB vectors
	next    []int32   // calChase: one 8 MiB random cycle
	sink    uint64
	sinkF   float64
	// samples[k] are kernel k's timings in seconds, in the order taken.
	samples [4][]float64
	spent   time.Duration
}

// calKernels are the kernels and the seconds each takes on the development
// machine (2 vCPUs of an Intel Xeon at 2.1 GHz) with the host quiet. The
// references only fix the scale: change them and every timing of every commit
// moves by one factor.
var calKernels = [...]struct {
	name string
	ref  float64
	run  func(*calibration)
}{
	{"alu", 0.0075, (*calibration).alu},     // core clock and issue width
	{"bits", 0.00875, (*calibration).bits},  // bit-parallel streaming through L2, as the simulator does
	{"float", 0.0061, (*calibration).float}, // dot products out of L1/L2, as ml and mat do
	{"chase", 0.0194, (*calibration).chase}, // dependent loads over 8 MiB, as maps, trees and the collector do
}

func newCalibration() *calibration {
	c := &calibration{}
	r := rand.New(rand.NewSource(1))
	n := 1 << 15
	c.a, c.b, c.c = make([]uint64, n), make([]uint64, n), make([]uint64, n)
	for i := range c.a {
		c.a[i], c.b[i], c.c[i] = r.Uint64(), r.Uint64(), r.Uint64()
	}
	c.f, c.g = make([]float64, 1<<14), make([]float64, 1<<14)
	for i := range c.f {
		c.f[i], c.g[i] = r.Float64(), r.Float64()
	}
	c.next = make([]int32, 1<<21)
	perm := r.Perm(len(c.next))
	for i, p := range perm {
		c.next[p] = int32(perm[(i+1)%len(perm)])
	}
	return c
}

func (c *calibration) alu() {
	w, x, y, z := uint64(1), uint64(2), uint64(3), uint64(4)
	for i := 0; i < 6_000_000; i++ {
		w = w*3 + 1
		x = x*5 + 7
		y ^= y<<13 ^ uint64(i)
		z += z>>3 + 11
	}
	c.sink += w + x + y + z
}

func (c *calibration) bits() {
	for k := 0; k < 250; k++ {
		for i := range c.a {
			c.a[i] = (c.a[i] & c.b[i]) ^ (c.c[i] | ^c.a[i])
		}
	}
	c.sink += c.a[7]
}

func (c *calibration) float() {
	var s float64
	for k := 0; k < 600; k++ {
		for i := range c.f {
			s += c.f[i] * c.g[i]
		}
		c.g[k%len(c.g)] += 1e-9
	}
	c.sinkF += s
}

func (c *calibration) chase() {
	p := int32(0)
	for i := 0; i < 300_000; i++ {
		p = c.next[p]
	}
	c.sink += uint64(p)
}

// sample times every kernel once, about 50 ms in all.
func (c *calibration) sample() {
	start := time.Now()
	for k, kern := range calKernels {
		t0 := time.Now()
		kern.run(c)
		c.samples[k] = append(c.samples[k], time.Since(t0).Seconds())
	}
	c.spent += time.Since(start)
}

// keepUp samples until calibration has had a tenth of the time since start,
// and at least once.
func (c *calibration) keepUp(start time.Time) {
	for c.sample(); c.spent < time.Since(start)/10; {
		c.sample()
	}
}

// slowdown is how much slower than its reference the machine ran during the
// run: the geometric mean over the kernels of steady time / reference time.
func (c *calibration) slowdown() float64 {
	var sum float64
	for k, kern := range calKernels {
		sum += math.Log(steady(c.samples[k]) / kern.ref)
	}
	return math.Exp(sum / float64(len(calKernels)))
}

// String lists each kernel's own slowdown and how many samples it rests on.
func (c *calibration) String() string {
	out := fmt.Sprintf("(%d samples:", len(c.samples[0]))
	for k, kern := range calKernels {
		out += fmt.Sprintf(" %s %.3f", kern.name, steady(c.samples[k])/kern.ref)
	}
	return out + ")"
}
