package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
)

// median returns the middle value of xs (the mean of the two middle values for
// an even count); 0 for no samples.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between order
// statistics; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// steady is the estimator behind every reported timing: the mean of the fastest
// quarter of the samples (of the fastest one below eight samples). The machine
// the benchmark runs on is a few cores of a shared host whose other tenants
// slow identical work by 20-60 % for tens of seconds at a time; interference
// only ever adds time, so the fast quarter is the part of the run the program
// had the cores to itself, and it holds still where the median wanders.
func steady(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	s = s[:max(1, len(s)/4)]
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// laps holds one row per repetition: the seconds each lap of the repetition's
// flow took. Every repetition does the same work, so every row has the same
// laps.
type laps [][]float64

func (l *laps) add(rep []float64) error {
	if len(*l) > 0 && len((*l)[0]) != len(rep) {
		return fmt.Errorf("repetition %d has %d laps, the first had %d: the repetitions differ", len(*l), len(rep), len((*l)[0]))
	}
	*l = append(*l, rep)
	return nil
}

// steady is the time of one repetition: the sum over its laps of each lap's
// steady time across the repetitions. A lap of tens of milliseconds fits
// between two bursts of the host's interference far more often than a whole
// repetition of seconds does, so the sum of the laps' fast quarters repeats
// from run to run where the fast quarter of whole repetitions does not.
func (l laps) steady() float64 {
	if len(l) == 0 {
		return 0
	}
	var sum float64
	col := make([]float64, len(l))
	for k := range l[0] {
		for i, rep := range l {
			col[i] = rep[k]
		}
		sum += steady(col)
	}
	return sum
}

// totals is each repetition's whole time.
func (l laps) totals() []float64 {
	out := make([]float64, len(l))
	for i, rep := range l {
		for _, v := range rep {
			out[i] += v
		}
	}
	return out
}

// digest is an FNV-1a digest of integer slices, printed as 16 hex digits. It
// pins simulated statistics: a simulator speed-up must leave them identical.
func digest(slices ...[]int) string {
	var b []byte
	for _, s := range slices {
		for _, v := range s {
			b = binary.LittleEndian.AppendUint64(b, uint64(v))
		}
	}
	return digestBytes(b)
}

func digestBytes(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// ---- span analysis ---------------------------------------------------------

// spanSet indexes one traced pass's spans.
type spanSet struct {
	recs     []spanRec
	byID     map[string]int
	children map[string][]int
}

func newSpanSet(recs []spanRec) *spanSet {
	s := &spanSet{recs: recs, byID: make(map[string]int, len(recs)), children: map[string][]int{}}
	for i, r := range recs {
		s.byID[r.ID] = i
	}
	for i, r := range recs {
		if r.Parent != "" {
			s.children[r.Parent] = append(s.children[r.Parent], i)
		}
	}
	return s
}

// layerOf is the span name's first dot-separated element: the package the
// span's time is charged to ("bench" for the benchmark's own glue).
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// matches reports whether a span name is the given name or extends it with a
// further dot-separated element ("ml.fit" matches "ml.fit.knn").
func matches(spanName, name string) bool {
	return spanName == name || strings.HasPrefix(spanName, name+".")
}

// sum is the total duration in seconds of every span matching name.
func (s *spanSet) sum(name string) float64 {
	var us int64
	for _, r := range s.recs {
		if matches(r.Name, name) {
			us += r.Dur
		}
	}
	return float64(us) / 1e6
}

// durations lists the duration in seconds of every span matching name.
func (s *spanSet) durations(name string) []float64 {
	var out []float64
	for _, r := range s.recs {
		if matches(r.Name, name) {
			out = append(out, float64(r.Dur)/1e6)
		}
	}
	return out
}

// perRep returns, for each bench.rep span in start order, the summed duration
// in seconds of the matching spans beneath it. Its median is how long a layer
// operation took within one repetition.
func (s *spanSet) perRep(name string) []float64 {
	var reps []int
	for i, r := range s.recs {
		if r.Name == "bench.rep" {
			reps = append(reps, i)
		}
	}
	sort.Slice(reps, func(a, b int) bool { return s.recs[reps[a]].Start < s.recs[reps[b]].Start })
	out := make([]float64, len(reps))
	for k, root := range reps {
		var us int64
		var walk func(i int)
		walk = func(i int) {
			for _, c := range s.children[s.recs[i].ID] {
				if matches(s.recs[c].Name, name) {
					us += s.recs[c].Dur
				}
				walk(c)
			}
		}
		walk(root)
		out[k] = float64(us) / 1e6
	}
	return out
}

// selfMicros is a span's duration minus the part of its interval that its
// child spans cover. Children may overlap (concurrent clients, workers), so
// the covered part is the union of their intervals clipped to the parent.
func (s *spanSet) selfMicros(i int) int64 {
	r := s.recs[i]
	kids := s.children[r.ID]
	if len(kids) == 0 {
		return r.Dur
	}
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, c := range kids {
		lo, hi := s.recs[c].Start, s.recs[c].Start+s.recs[c].Dur
		lo, hi = max(lo, r.Start), min(hi, r.Start+r.Dur)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var covered, end int64
	end = r.Start
	for _, v := range ivs {
		if v.hi <= end {
			continue
		}
		covered += v.hi - max(v.lo, end)
		end = v.hi
	}
	return r.Dur - covered
}

// selfByLayer sums self time in seconds per layer over the spans beneath (and
// including) every span named root.
func (s *spanSet) selfByLayer(root string) map[string]float64 {
	out := map[string]float64{}
	var walk func(i int)
	walk = func(i int) {
		out[layerOf(s.recs[i].Name)] += float64(s.selfMicros(i)) / 1e6
		for _, c := range s.children[s.recs[i].ID] {
			walk(c)
		}
	}
	for i, r := range s.recs {
		if r.Name == root {
			walk(i)
		}
	}
	return out
}

// checkTree verifies the span tree is well formed: every parent exists, every
// child lies inside its parent and no self time is negative. Spans carry
// truncated microsecond stamps, so containment allows slackUS at each end; and
// a span's start is wall-clock time while its duration is monotonic, which
// drift apart while the system clock is being slewed, so it allows a
// thousandth of the parent's duration too.
func (s *spanSet) checkTree(slackUS int64) error {
	for i, r := range s.recs {
		if r.Parent != "" {
			pi, ok := s.byID[r.Parent]
			if !ok {
				return fmt.Errorf("span %s (%s): parent %s is not in the journal", r.ID, r.Name, r.Parent)
			}
			p := s.recs[pi]
			slack := slackUS + p.Dur/1000
			if r.Start < p.Start-slack || r.Start+r.Dur > p.Start+p.Dur+slack {
				return fmt.Errorf("span %s [%d,+%d] leaves its parent %s [%d,+%d]",
					r.Name, r.Start, r.Dur, p.Name, p.Start, p.Dur)
			}
		}
		if self := s.selfMicros(i); self < 0 {
			return fmt.Errorf("span %s (%s) has negative self time %d us", r.ID, r.Name, self)
		}
	}
	return nil
}
