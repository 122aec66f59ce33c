package cli

import (
	"fmt"
	"log/slog"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/obs"
)

// Sinks selects the telemetry flags a command registers beyond the
// -log-level/-log-format pair every command has.
type Sinks uint

const (
	// Trace adds -trace, a JSONL span journal.
	Trace Sinks = 1 << iota
	// Metrics adds a registry and -metrics-addr, its debug listener.
	Metrics
	// Profile adds -cpuprofile and -memprofile.
	Profile
)

// Telemetry is a command's observability flag group. Register it before
// Parse with Cmd.Telemetry; after flag validation, Start opens the chosen
// sinks and fills Logger, Tracer and Metrics. A sink that was not selected
// or not asked for stays nil, which every consumer accepts as "off".
type Telemetry struct {
	Logger  *slog.Logger
	Tracer  *obs.Tracer
	Metrics *obs.Registry

	c                                           *Cmd
	sinks                                       Sinks
	level, format, trace, metricsAddr, cpu, mem string
}

// Telemetry registers -log-level and -log-format, whose defaults come from
// the FFR_LOG environment variable ("level" or "level,format", e.g.
// FFR_LOG=debug,json) so a whole fleet can be made chatty without touching
// each invocation, plus the flags of the selected sinks.
func (c *Cmd) Telemetry(sinks Sinks) *Telemetry {
	t := &Telemetry{c: c, sinks: sinks}
	level, format := logDefaults(os.Getenv("FFR_LOG"))
	c.Flags.StringVar(&t.level, "log-level", level, "log verbosity: debug, info, warn or error (default from FFR_LOG)")
	c.Flags.StringVar(&t.format, "log-format", format, "log encoding: text or json (default from FFR_LOG \"level,format\")")
	if sinks&Trace != 0 {
		c.Flags.StringVar(&t.trace, "trace", "", "write a JSONL span journal to this file")
	}
	if sinks&Metrics != 0 {
		c.Flags.StringVar(&t.metricsAddr, "metrics-addr", "", "serve /metrics and /debug/pprof/ on this address during the run (off when empty)")
	}
	if sinks&Profile != 0 {
		c.Flags.StringVar(&t.cpu, "cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
		c.Flags.StringVar(&t.mem, "memprofile", "", "write a heap profile to this file on exit (go tool pprof)")
	}
	return t
}

// logLevels are the -log-level names (matched case-insensitively).
var logLevels = map[string]slog.Level{
	"debug": slog.LevelDebug,
	"info":  slog.LevelInfo,
	"warn":  slog.LevelWarn,
	"error": slog.LevelError,
}

// logDefaults decodes the FFR_LOG environment value ("level" or
// "level,format") into flag defaults, leaving the stock info/text pair
// for whatever the variable does not mention.
func logDefaults(env string) (level, format string) {
	level, format = "info", "text"
	parts := strings.SplitN(env, ",", 2)
	if parts[0] != "" {
		level = parts[0]
	}
	if len(parts) == 2 && parts[1] != "" {
		format = parts[1]
	}
	return level, format
}

// Start validates the log flags and opens the sinks: a stderr logger
// tagged proc=<command> so interleaved fleet logs stay attributable, the
// CPU profile, the span journal, the metrics registry and its listener.
// Call it only after flag validation — a usage error must not truncate an
// existing profile — and defer the returned stop, which closes what was
// opened and writes the heap profile.
func (t *Telemetry) Start() (stop func(), err error) {
	c := t.c
	level, ok := logLevels[strings.ToLower(t.level)]
	if !ok {
		return nil, c.UsageErrorf("-log-level must be debug, info, warn or error (got %q)", t.level)
	}
	opts := &slog.HandlerOptions{Level: level}
	var h slog.Handler
	switch strings.ToLower(t.format) {
	case "text":
		h = slog.NewTextHandler(c.Stderr, opts)
	case "json":
		h = slog.NewJSONHandler(c.Stderr, opts)
	default:
		return nil, c.UsageErrorf("-log-format must be text or json (got %q)", t.format)
	}
	t.Logger = slog.New(h).With("proc", c.Name)

	var stops []func()
	stop = func() {
		for _, f := range stops {
			f()
		}
	}
	fail := func(flag string, err error) (func(), error) {
		stop()
		return nil, fmt.Errorf("-%s: %w", flag, err)
	}
	if t.cpu != "" {
		f, err := os.Create(t.cpu)
		if err != nil {
			return fail("cpuprofile", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail("cpuprofile", err)
		}
		stops = append(stops, func() {
			pprof.StopCPUProfile()
			f.Close()
		})
	}
	if t.trace != "" {
		f, err := os.Create(t.trace)
		if err != nil {
			return fail("trace", err)
		}
		t.Tracer = obs.NewTracer(f, c.Name)
		stops = append(stops, func() {
			if err := f.Close(); err != nil {
				t.Logger.Warn("closing span journal", "error", err)
			}
		})
	}
	if t.sinks&Metrics != 0 {
		t.Metrics = obs.NewRegistry()
	}
	if t.metricsAddr != "" {
		bound, stopDebug, err := obs.ServeDebug(t.metricsAddr, t.Metrics)
		if err != nil {
			return fail("metrics-addr", err)
		}
		t.Logger.Info("metrics listener up", "addr", bound)
		stops = append(stops, stopDebug)
	}
	if t.mem != "" {
		stops = append(stops, t.writeHeapProfile)
	}
	return stop, nil
}

// writeHeapProfile dumps the -memprofile heap snapshot; a failure is
// reported but does not fail the command whose work is already done.
func (t *Telemetry) writeHeapProfile() {
	f, err := os.Create(t.mem)
	if err != nil {
		fmt.Fprintln(t.c.Stderr, "-memprofile:", err)
		return
	}
	defer f.Close()
	runtime.GC() // materialize final live-heap statistics
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(t.c.Stderr, "-memprofile:", err)
	}
}
