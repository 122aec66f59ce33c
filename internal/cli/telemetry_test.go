package cli

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"maps"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestLogDefaults(t *testing.T) {
	cases := []struct {
		env, level, format string
	}{
		{"", "info", "text"},
		{"debug", "debug", "text"},
		{"debug,json", "debug", "json"},
		{",json", "info", "json"},
		{"warn,", "warn", "text"},
	}
	for _, c := range cases {
		level, format := logDefaults(c.env)
		if level != c.level || format != c.format {
			t.Errorf("logDefaults(%q) = %q, %q, want %q, %q",
				c.env, level, format, c.level, c.format)
		}
	}
}

// start registers the telemetry group on "ffr x <args...>", parses and
// starts it.
func start(t *testing.T, sinks Sinks, args ...string) (tel *Telemetry, stderr string, err error) {
	t.Helper()
	c, _, errBuf := testCmd(args...)
	tel = c.Telemetry(sinks)
	if err := c.Parse(); err != nil {
		t.Fatal(err)
	}
	stop, err := tel.Start()
	if err == nil {
		tel.Logger.Debug("probe")
		stop()
	}
	return tel, errBuf.String(), err
}

func TestLogFlagsLogger(t *testing.T) {
	tel, stderr, err := start(t, 0, "-log-level", "debug", "-log-format", "json")
	if err != nil {
		t.Fatalf("valid flags rejected: %v", err)
	}
	if !tel.Logger.Enabled(context.Background(), slog.LevelDebug) {
		t.Error("debug level not applied")
	}
	if !strings.Contains(stderr, `"proc":"x"`) || !strings.Contains(stderr, `"msg":"probe"`) {
		t.Errorf("logger does not write tagged JSON to the command's stderr: %q", stderr)
	}
	if tel.Tracer != nil || tel.Metrics != nil {
		t.Error("unselected sinks are not nil")
	}

	for flag, bad := range map[string]string{"-log-level": "loud", "-log-format": "xml"} {
		_, _, err := start(t, 0, flag, bad)
		if err == nil || !strings.HasPrefix(err.Error(), flag+" must be ") || !strings.HasSuffix(err.Error(), "(run 'ffr x -h' for usage)") {
			t.Errorf("%s %s = %v, want a usage error naming the flag", flag, bad, err)
		}
	}
	// The level names are matched case-insensitively; "warning" went with
	// the hand-rolled parser.
	if _, _, err := start(t, 0, "-log-level", "WARN", "-log-format", "JSON"); err != nil {
		t.Errorf("upper-case names rejected: %v", err)
	}
	if _, _, err := start(t, 0, "-log-level", "warning"); err == nil {
		t.Error(`"warning" accepted as a level`)
	}
}

// TestLogPrecedence: flag > FFR_LOG > built-in info/text.
func TestLogPrecedence(t *testing.T) {
	cases := []struct {
		env   string
		args  []string
		debug bool
		json  bool
	}{
		{"", nil, false, false},
		{"debug,json", nil, true, true},
		{"debug,json", []string{"-log-level", "warn"}, false, true},
		{"debug,json", []string{"-log-format", "text"}, true, false},
	}
	for _, tc := range cases {
		t.Setenv("FFR_LOG", tc.env)
		c, _, stderr := testCmd(tc.args...)
		tel := c.Telemetry(0)
		if err := c.Parse(); err != nil {
			t.Fatal(err)
		}
		stop, err := tel.Start()
		if err != nil {
			t.Fatal(err)
		}
		tel.Logger.Error("probe")
		stop()
		if got := tel.Logger.Enabled(context.Background(), slog.LevelDebug); got != tc.debug {
			t.Errorf("FFR_LOG=%q %v: debug enabled = %v", tc.env, tc.args, got)
		}
		if got := strings.HasPrefix(stderr.String(), "{"); got != tc.json {
			t.Errorf("FFR_LOG=%q %v: JSON output = %v (%q)", tc.env, tc.args, got, stderr)
		}
	}
}

// TestLogContract pins what a log line is now that log/slog owns the
// encoding: one record per call, carrying time, level, msg, the command's
// proc, the component scope and the call's own keys, in either format; and
// a component handed no logger writes nothing.
func TestLogContract(t *testing.T) {
	for format, decode := range map[string]func(line string) map[string]string{
		"text": func(line string) map[string]string {
			rec := map[string]string{}
			for _, kv := range regexp.MustCompile(`(\w+)=("[^"]*"|\S+)`).FindAllStringSubmatch(line, -1) {
				rec[kv[1]] = strings.Trim(kv[2], `"`)
			}
			return rec
		},
		"json": func(line string) map[string]string {
			var fields map[string]any
			if err := json.Unmarshal([]byte(line), &fields); err != nil {
				t.Errorf("json record %q: %v", line, err)
			}
			rec := map[string]string{}
			for k, v := range fields {
				rec[k] = fmt.Sprint(v)
			}
			return rec
		},
	} {
		c, _, stderr := testCmd("-log-format", format)
		tel := c.Telemetry(0)
		if err := c.Parse(); err != nil {
			t.Fatal(err)
		}
		stop, err := tel.Start()
		if err != nil {
			t.Fatal(err)
		}
		log := obs.Component(tel.Logger, "campaign")
		log.Debug("below the default level")
		log.Info("campaign start", "jobs", 2108, "schedule", "clustered")
		log.Warn("lease conflict", "error", errors.New("chunk 3 taken"))
		stop()

		lines := strings.Split(strings.TrimSuffix(stderr.String(), "\n"), "\n")
		if len(lines) != 2 {
			t.Fatalf("%s: %d records for two enabled calls: %q", format, len(lines), stderr)
		}
		for i, want := range []map[string]string{
			{"level": "INFO", "msg": "campaign start", "proc": "x", "component": "campaign", "jobs": "2108", "schedule": "clustered"},
			{"level": "WARN", "msg": "lease conflict", "proc": "x", "component": "campaign", "error": "chunk 3 taken"},
		} {
			got := decode(lines[i])
			if _, err := time.Parse(time.RFC3339Nano, got["time"]); err != nil {
				t.Errorf("%s record %q: time: %v", format, lines[i], err)
			}
			delete(got, "time")
			if !maps.Equal(got, want) {
				t.Errorf("%s record %q\n got %v\nwant %v", format, lines[i], got, want)
			}
		}
	}

	silent := obs.Component(nil, "campaign")
	silent.Error("dropped") // must not panic, has nowhere to write
	if silent.Enabled(context.Background(), slog.LevelError) {
		t.Error("a nil logger config is not silent")
	}
}

// TestTelemetrySelectors: a command gets exactly the flags of the sinks
// it selected.
func TestTelemetrySelectors(t *testing.T) {
	for sinks, want := range map[Sinks]string{
		0:                         "log-format log-level",
		Trace:                     "log-format log-level trace",
		Metrics | Profile:         "cpuprofile log-format log-level memprofile metrics-addr",
		Trace | Metrics | Profile: "cpuprofile log-format log-level memprofile metrics-addr trace",
	} {
		c, _, _ := testCmd()
		c.Telemetry(sinks)
		var names []string
		c.Flags.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
		if got := strings.Join(names, " "); got != want {
			t.Errorf("sinks %b register %q, want %q", sinks, got, want)
		}
	}
}

// TestTelemetrySinks opens every sink at once: the span journal and both
// profiles are written, and the metrics listener answers at the address
// the log line names until stop.
func TestTelemetrySinks(t *testing.T) {
	dir := t.TempDir()
	trace, cpu, mem := filepath.Join(dir, "spans.jsonl"), filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	c, _, stderr := testCmd("-trace", trace, "-metrics-addr", "127.0.0.1:0", "-cpuprofile", cpu, "-memprofile", mem)
	tel := c.Telemetry(Trace | Metrics | Profile)
	if err := c.Parse(); err != nil {
		t.Fatal(err)
	}
	stop, err := tel.Start()
	if err != nil {
		t.Fatal(err)
	}
	tel.Metrics.Counter("ffr_test_total", "a counter").Inc()
	_, span := tel.Tracer.Start(c.Ctx, "test.span")
	span.End()
	m := regexp.MustCompile(`msg="metrics listener up" proc=x addr=(\S+)`).FindStringSubmatch(stderr.String())
	if m == nil {
		t.Fatalf("no listener line on stderr: %q", stderr)
	}
	resp, err := http.Get("http://" + m[1] + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "ffr_test_total 1") {
		t.Errorf("exposition lacks the counter:\n%s", body)
	}
	stop()

	if _, err := http.Get("http://" + m[1] + "/metrics"); err == nil {
		t.Error("the metrics listener outlived stop")
	}
	if b, _ := os.ReadFile(trace); !strings.Contains(string(b), `"name":"test.span"`) || !strings.Contains(string(b), `"proc":"x"`) {
		t.Errorf("span journal = %q", b)
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s not written (%v)", p, err)
		}
	}
}

// TestTelemetryStartFailure: a sink that cannot open fails Start with the
// flag named, and closes what was already opened.
func TestTelemetryStartFailure(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	_, _, err := start(t, Trace|Profile, "-cpuprofile", cpu, "-trace", filepath.Join(dir, "no", "such", "spans"))
	if err == nil || !strings.HasPrefix(err.Error(), "-trace: ") {
		t.Fatalf("Start = %v, want a -trace error", err)
	}
	// The CPU profiler is process-wide: had the failed Start left it
	// running, this second one could not start it.
	if _, _, err := start(t, Profile, "-cpuprofile", cpu); err != nil {
		t.Errorf("CPU profile still running after a failed Start: %v", err)
	}
}
