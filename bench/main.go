// Command bench is the repository's one benchmark: wall-clock time to a result
// on five workloads, measured end to end with tracing off and layer by layer
// in a traced pass. See README.md in this directory.
//
//	go run ./bench                                  every workload, tracing off
//	go run ./bench -trace 1 -out bench/results/x.json   every second repetition traced, recorded
//	go run ./bench -workload ml-protocol -seed 7 -seconds 26 -trace 0
//
// The last line of standard output is one JSON object: {correct, attempted,
// failed, metrics}. The exit code is 0 only when every output check passed.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

//go:embed golden.json
var goldenJSON []byte

// goldenFile pins, for one seed, the simulated statistics that must survive any
// change that only claims to be faster.
type goldenFile struct {
	Seed      int64                        `json:"seed"`
	Workloads map[string]map[string]string `json:"workloads"`
}

// options are the command's knobs.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	// small shrinks every workload to smoke-test size; only bench_test.go sets it.
	small bool
}

// gcPercent is the collector's pacing for every run. At the default 100 the
// workloads' small live heaps make it run every few milliseconds, and where
// its cycles fall differs from one repetition to the next of identical work:
// corpus-models repetitions then range over +-15 % on a quiet machine and the
// fast quarter no longer repeats. At 400 the collector still runs and every
// allocation is still paid for, but identical repetitions agree within 3 %.
const gcPercent = 400

func main() {
	var opt options
	var trace int
	flag.StringVar(&opt.workload, "workload", "all", "workload to run: all, "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&opt.seed, "seed", 1, "seed for campaign sampling, splits and the request stream")
	flag.Float64Var(&opt.seconds, "seconds", 26, "seconds of timed repetitions per workload and pass")
	flag.IntVar(&trace, "trace", 0, "1 adds the traced pass and reports the per-layer metrics")
	flag.StringVar(&opt.out, "out", "", "append this run to a JSON result file, and write its traces beside it")
	flag.Parse()
	opt.trace = trace != 0
	if flag.NArg() > 0 || trace < 0 || trace > 1 || opt.seconds < 0 {
		fmt.Fprintln(os.Stderr, "bench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	debug.SetGCPercent(gcPercent)
	ok, err := run(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// run executes the selected workloads, prints their metrics and the result
// line, and reports whether every check passed.
func run(opt options) (bool, error) {
	names := workloadNames
	if opt.workload != "all" {
		if !slices.Contains(workloadNames, opt.workload) {
			return false, fmt.Errorf("unknown workload %q (valid: all, %s)", opt.workload, strings.Join(workloadNames, ", "))
		}
		names = []string{opt.workload}
	}
	var results []*runResult
	for _, name := range names {
		res, err := runWorkload(name, opt)
		if err != nil {
			return false, fmt.Errorf("%s: %w", name, err)
		}
		res.print(os.Stdout)
		results = append(results, res)
	}
	if opt.out != "" {
		if err := appendRecord(opt, results); err != nil {
			return false, err
		}
	}
	line, ok := resultLine(results, opt.trace)
	fmt.Println(line)
	return ok, nil
}

// resultLine is the contract's last line. One workload prints its metrics under
// their own names; several print them as "<workload>/<metric>".
func resultLine(results []*runResult, trace bool) (string, bool) {
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Metrics: map[string]metricValue{}}
	for _, r := range results {
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		defs, values := endToEnd, r.Metrics
		if trace {
			defs, values = perLayer, r.Layers
		}
		for name, v := range render(defs, values) {
			if len(results) > 1 {
				name = r.Name + "/" + name
			}
			out.Metrics[name] = v
		}
	}
	out.Correct = out.Failed == 0
	b, _ := json.Marshal(out)
	return string(b), out.Correct
}

// ---- one workload ----------------------------------------------------------

// env is what a workload sees of one run.
type env struct {
	seed    int64
	workers int
	size    sizes
	// tr is nil on the untraced pass.
	tr *tracer
	// dir is scratch space inside the checkout, removed when the run ends.
	dir string

	// walls, cpus and tracedWalls hold one row of lap samples per repetition:
	// wall clock and CPU time of the untraced repetitions, wall clock of the
	// traced ones.
	walls, cpus, tracedWalls laps
	// inRep is set while a repetition's measured section runs; lapWall and
	// lapCPU are its laps so far, lapT0 and lapCPU0 the running lap's start.
	// cal measures the machine between repetitions; start is when the run began.
	cal             *calibration
	start           time.Time
	inRep           bool
	lapWall, lapCPU []float64
	lapT0           time.Time
	lapCPU0         float64

	attempted, failed int
	failures          []string
	digests           map[string]string
}

// check counts one verified output; a false ok is a failed operation.
func (e *env) check(ok bool, format string, args ...any) {
	e.attempted++
	if !ok {
		e.failed++
		if len(e.failures) < 20 {
			e.failures = append(e.failures, fmt.Sprintf(format, args...))
		}
	}
}

// timed runs one repetition's measured section: wall clock and process CPU
// time lap by lap and, on a traced repetition, a bench.rep span.
func (e *env) timed(ctx context.Context, fn func(ctx context.Context) error) error {
	runtime.GC() // garbage from preparing the repetition is not the repetition's cost
	e.cal.keepUp(e.start)
	ctx, end := e.tr.span(ctx, "bench.rep")
	e.inRep, e.lapWall, e.lapCPU = true, nil, nil
	e.lapCPU0, e.lapT0 = cpuSeconds(), time.Now()
	err := fn(ctx)
	e.lap()
	e.inRep = false
	end()
	if err != nil {
		return err
	}
	if e.tr != nil {
		return e.tracedWalls.add(e.lapWall)
	}
	e.cpus.add(e.lapCPU)
	return e.walls.add(e.lapWall)
}

// lap ends one lap of the running repetition and starts the next. A workload
// calls it between the steps of its flow, at the same points in every
// repetition; outside a repetition (a set-up that shares the flow's code) it
// does nothing. See laps.steady for what the laps are for.
func (e *env) lap() {
	if !e.inRep {
		return
	}
	now, cpu := time.Now(), cpuSeconds()
	e.lapWall = append(e.lapWall, now.Sub(e.lapT0).Seconds())
	e.lapCPU = append(e.lapCPU, cpu-e.lapCPU0)
	e.lapT0, e.lapCPU0 = now, cpu
}

// campaignWorkers is the worker (and client) count of every workload: the
// machine's cores but one, which is left to the collector, the runtime and the
// harness, and at most four. Two busy threads on a two-core share of a host
// measured the host's scheduler: identical repetitions ranged over +-28 %.
func campaignWorkers() int { return max(1, min(runtime.NumCPU()-1, 4)) }

// cpuSeconds is the process's user + system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// runResult is one workload's outcome.
type runResult struct {
	Name       string   `json:"name"`
	Reps       int      `json:"reps"`
	TracedReps int      `json:"traced_reps,omitempty"`
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	Failures   []string `json:"failures,omitempty"`
	// Raw are the end-to-end timings as the clock read them, Slowdown the
	// calibration's verdict on the machine during the run, Metrics their quotient.
	Raw                map[string]float64 `json:"raw"`
	Slowdown           float64            `json:"slowdown"`
	Metrics            map[string]float64 `json:"metrics"`
	Layers             map[string]float64 `json:"layers,omitempty"`
	SelfSecondsByLayer map[string]float64 `json:"self_seconds_by_layer,omitempty"`
	Digests            map[string]string  `json:"digests,omitempty"`
	Walls              []float64          `json:"walls,omitempty"`

	tracer           *tracer
	slowdownByKernel string
}

func (r *runResult) print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %d reps, %d checks, %d failed\n", r.Name, r.Reps, r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "   FAILED: %s\n", f)
	}
	for _, d := range endToEnd {
		fmt.Fprintf(w, "   %-32s %14.6g %s   (%.6g on the clock)\n", d.Name, r.Metrics[d.Name], d.Unit, r.Raw[d.Name])
	}
	fmt.Fprintf(w, "   machine slowdown %.4f  %s\n", r.Slowdown, r.slowdownByKernel)
	fmt.Fprintf(w, "   walls: %.4f\n", r.Walls)
	if r.Layers == nil {
		return
	}
	for _, d := range perLayer {
		if v := r.Layers[d.Name]; v != 0 {
			fmt.Fprintf(w, "   %-32s %14.6g %s\n", d.Name, v, d.Unit)
		}
	}
	layers := make([]string, 0, len(r.SelfSecondsByLayer))
	for l := range r.SelfSecondsByLayer {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	fmt.Fprintf(w, "   self time of the timed repetitions by layer:")
	for _, l := range layers {
		fmt.Fprintf(w, " %s=%.3fs", l, r.SelfSecondsByLayer[l])
	}
	fmt.Fprintln(w)
}

// runWorkload measures one workload: set-up several times, then timed
// repetitions for opt.seconds, then the output checks. With opt.trace the last
// set-up, the layer probes and every second repetition run under the tracer;
// alternating traced and untraced repetitions keeps warm-up and heap growth from
// favouring either side of the overhead comparison.
func runWorkload(name string, opt options) (*runResult, error) {
	e := &env{
		seed:    opt.seed,
		workers: campaignWorkers(),
		size:    fullSize,
		digests: map[string]string{},
		cal:     newCalibration(),
		start:   time.Now(),
	}
	if opt.small {
		e.size = smallSize
	}
	dir, err := os.MkdirTemp(".", ".bench-tmp-")
	if err != nil {
		return nil, err
	}
	e.dir = dir
	defer os.RemoveAll(dir)

	w := newWorkload(name)
	defer w.close()
	root := context.Background()

	// A set-up of milliseconds needs more samples than three for a figure that
	// holds still, so a cheap one repeats until set-ups have used
	// size.setupSeconds.
	var setups []float64
	for used := 0.0; len(setups) < e.size.setupReps ||
		(len(setups) < 5*e.size.setupReps && used < e.size.setupSeconds); {
		e.cal.keepUp(e.start)
		t0 := time.Now()
		if err := w.setup(root, e); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		used += setups[len(setups)-1]
	}

	var tr *tracer // nil without opt.trace: every span below is then a no-op
	if opt.trace {
		tr = newTracer()
	}
	root, endRoot := tr.span(root, "bench."+name)
	if tr != nil {
		e.tr = tr
		ctx, end := tr.span(root, "bench.setup")
		err := w.setup(ctx, e)
		end()
		if err != nil {
			return nil, fmt.Errorf("traced set-up: %w", err)
		}
		ctx, end = tr.span(root, "bench.probe")
		err = w.probe(ctx, e)
		end()
		if err != nil {
			return nil, fmt.Errorf("probe: %w", err)
		}
	}
	ctx, end := tr.span(root, "bench.timed")
	err = e.repeat(ctx, w, opt.seconds, tr)
	end()
	if err != nil {
		return nil, err
	}
	ctx, end = tr.span(root, "bench.verify")
	err = w.verify(ctx, e)
	end()
	endRoot()
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	checkGolden(name, opt, e)

	res := &runResult{
		Name: name, Reps: len(e.walls), TracedReps: len(e.tracedWalls),
		Slowdown: e.cal.slowdown(), slowdownByKernel: e.cal.String(),
		Raw: map[string]float64{
			"time_to_result_s": e.walls.steady(),
			"cpu_per_result_s": e.cpus.steady(),
			"setup_s":          steady(setups),
		},
		Metrics:   map[string]float64{},
		Attempted: e.attempted, Failed: e.failed, Failures: e.failures, Digests: e.digests,
		Walls:  e.walls.totals(),
		tracer: tr,
	}
	for name, v := range res.Raw {
		res.Metrics[name] = v / res.Slowdown
	}
	if res.Attempted == 0 {
		return nil, errors.New("no operation was checked")
	}
	if tr == nil {
		return res, nil
	}

	recs, err := tr.records()
	if err != nil {
		return nil, err
	}
	spans := newSpanSet(recs)
	res.Layers = map[string]float64{}
	w.layers(e, spans, res.Layers)
	res.Layers["bench.machine_slowdown"] = res.Slowdown
	res.Layers["bench.clock_time_to_result_s"] = res.Raw["time_to_result_s"]
	res.Layers["bench.trace_overhead_frac"] = e.tracedWalls.steady()/e.walls.steady() - 1
	res.SelfSecondsByLayer = spans.selfByLayer("bench.rep")
	var total float64
	for _, v := range res.SelfSecondsByLayer {
		total += v
	}
	res.Layers["bench.attributed_frac"] = 1 - res.SelfSecondsByLayer["bench"]/total
	for name, v := range res.Layers {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("per-layer metric %s is %v", name, v)
		}
	}
	return res, nil
}

// repeat runs timed repetitions until the time budget is spent, and at least
// size.minReps of them. Given a tracer it runs them in pairs, untraced then
// traced, within the same budget.
func (e *env) repeat(ctx context.Context, w workload, seconds float64, tr *tracer) error {
	defer func() { e.tr = tr }()
	start := time.Now()
	for i := 0; len(e.walls) < e.size.minReps || time.Since(start).Seconds() < seconds; {
		e.tr = nil
		if err := w.rep(ctx, e, i); err != nil {
			return fmt.Errorf("repetition %d: %w", i, err)
		}
		i++
		if tr == nil {
			continue
		}
		e.tr = tr
		if err := w.rep(ctx, e, i); err != nil {
			return fmt.Errorf("traced repetition %d: %w", i, err)
		}
		i++
	}
	return nil
}

// checkGolden compares the run's digests with golden.json when the run used
// the pinned seed at full size.
func checkGolden(name string, opt options, e *env) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		e.check(false, "golden.json: %v", err)
		return
	}
	if opt.small || opt.seed != g.Seed {
		return
	}
	for key, want := range g.Workloads[name] {
		e.check(e.digests[key] == want, "golden %s: got %s, pinned %s", key, e.digests[key], want)
	}
}

// ---- result file -----------------------------------------------------------

// record is one run of the benchmark as committed under bench/results/.
type record struct {
	Commit    string       `json:"commit"`
	Go        string       `json:"go"`
	CPU       string       `json:"cpu"`
	NProc     int          `json:"nproc"`
	Seed      int64        `json:"seed"`
	Seconds   float64      `json:"seconds"`
	Workloads []*runResult `json:"workloads"`
}

// appendRecord appends this run to the JSON array in opt.out and, for a traced
// run, writes each workload's span journal and chrome trace beside it.
func appendRecord(opt options, results []*runResult) error {
	var records []record
	if b, err := os.ReadFile(opt.out); err == nil {
		if err := json.Unmarshal(b, &records); err != nil {
			return fmt.Errorf("%s: %w", opt.out, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	records = append(records, record{
		Commit: gitCommit(), Go: runtime.Version(), CPU: cpuModel(), NProc: runtime.NumCPU(),
		Seed: opt.seed, Seconds: opt.seconds, Workloads: results,
	})
	b, err := json.MarshalIndent(records, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(opt.out), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(opt.out, append(b, '\n'), 0o644); err != nil {
		return err
	}
	base := strings.TrimSuffix(opt.out, filepath.Ext(opt.out))
	for _, r := range results {
		if r.tracer == nil {
			continue
		}
		stem := fmt.Sprintf("%s.%s.seed%d", base, r.Name, opt.seed)
		if err := r.tracer.writeFiles(stem+".spans.jsonl", stem+".trace.json"); err != nil {
			return err
		}
	}
	return nil
}

// gitCommit names the checked-out commit, "-dirty" when the tree differs from
// it, or "unknown" outside a git checkout.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	commit := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(st) > 0 {
		commit += "-dirty"
	}
	return commit
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
