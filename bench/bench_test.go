package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

// benchmarkFile mirrors ../BENCHMARK.json.
type benchmarkFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkFileMatchesProgram holds BENCHMARK.json and the program's metric
// tables in step: the gated workloads, same names, units and directions, each
// once.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(gatedWorkloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program gates %d", len(f.Workloads), len(gatedWorkloads))
	}
	for i, w := range f.Workloads {
		if w.Name != gatedWorkloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, gatedWorkloads[i])
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	seen := map[string]bool{}
	compare := func(kind string, defs []metricDef, name func(int) (string, string, string), n int) {
		if n != len(defs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, n, len(defs))
		}
		for i, d := range defs {
			gotName, unit, better := name(i)
			if gotName != d.Name || unit != d.Unit || better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json {%s %s %s}, program {%s %s %s}",
					kind, i, gotName, unit, better, d.Name, d.Unit, d.Better)
			}
			if !nameRE.MatchString(d.Name) {
				t.Errorf("%s: name %q is outside [A-Za-z0-9_.-]{1,64}", kind, d.Name)
			}
			if seen[d.Name] {
				t.Errorf("%s: name %q is used twice", kind, d.Name)
			}
			seen[d.Name] = true
		}
	}
	compare("end_to_end", endToEnd, func(i int) (string, string, string) {
		m := f.EndToEnd[i]
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %v is outside (0, 0.25]", m.Name, m.Bound)
		}
		return m.Name, m.Unit, m.Better
	}, len(f.EndToEnd))
	compare("per_layer", perLayer, func(i int) (string, string, string) {
		m := f.PerLayer[i]
		return m.Name, m.Unit, m.Better
	}, len(f.PerLayer))
}

// TestSmoke runs every workload at smoke-test size, traced, and checks what the
// contract promises about the result: every declared metric once, finite, in
// its declared unit; every output check passing; a well-formed span tree.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			t.Parallel() // the workloads share nothing but the CPU
			res, err := runWorkload(name, options{seed: 3, trace: true, small: true})
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%d of %d checks failed: %v", res.Failed, res.Attempted, res.Failures)
			}
			if res.Reps < 1 || res.TracedReps < 1 {
				t.Fatalf("%d untraced and %d traced repetitions", res.Reps, res.TracedReps)
			}
			for _, traced := range []bool{false, true} {
				line, ok := resultLine([]*runResult{res}, traced)
				if !ok {
					t.Fatalf("result line reports failure: %s", line)
				}
				var got struct {
					Correct   bool
					Attempted int
					Failed    int
					Metrics   map[string]metricValue
				}
				if err := json.Unmarshal([]byte(line), &got); err != nil {
					t.Fatalf("result line: %v", err)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(got.Metrics) != len(defs) {
					t.Errorf("trace=%v: %d metrics printed, %d declared", traced, len(got.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := got.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("metric %s is not printed", d.Name)
					case m.Unit != d.Unit:
						t.Errorf("metric %s printed in %q, declared %q", d.Name, m.Unit, d.Unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("metric %s is %v", d.Name, m.Value)
					case !traced && m.Value <= 0:
						t.Errorf("end-to-end metric %s is %v, want > 0", d.Name, m.Value)
					}
				}
			}
			recs, err := res.tracer.records()
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) == 0 {
				t.Fatal("the traced pass journaled no span")
			}
			// obs.Tracer truncates start and duration to whole microseconds
			// separately, so a child may appear to outlast its parent by two.
			if err := newSpanSet(recs).checkTree(2); err != nil {
				t.Error(err)
			}
			if f := res.Layers["bench.attributed_frac"]; f < 0.9 {
				t.Errorf("only %.3f of the timed wall is attributed to layer spans", f)
			}
		})
	}
}

func TestSelfTimeUnionsOverlappingChildren(t *testing.T) {
	s := newSpanSet([]spanRec{
		{ID: "p", Name: "bench.rep", Start: 0, Dur: 100},
		{ID: "a", Parent: "p", Name: "serve.x", Start: 10, Dur: 40},
		{ID: "b", Parent: "p", Name: "serve.x", Start: 30, Dur: 40},
		{ID: "c", Parent: "p", Name: "api.y", Start: 90, Dur: 20}, // clipped at the parent's end
	})
	if got := s.selfMicros(0); got != 100-60-10 {
		t.Errorf("self time %d, want 30", got)
	}
	by := s.selfByLayer("bench.rep")
	if by["bench"] != 30e-6 || by["serve"] != 80e-6 || by["api"] != 20e-6 {
		t.Errorf("self time by layer: %v", by)
	}
	if err := s.checkTree(0); err == nil {
		t.Error("checkTree accepted a child that outlasts its parent")
	}
}
