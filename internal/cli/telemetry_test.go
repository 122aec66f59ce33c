package cli

import (
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestLogDefaults(t *testing.T) {
	cases := []struct {
		env, level, format string
	}{
		{"", "info", obs.FormatText},
		{"debug", "debug", obs.FormatText},
		{"debug,json", "debug", "json"},
		{",json", "info", "json"},
		{"warn,", "warn", obs.FormatText},
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
	if !tel.Logger.Enabled(obs.LevelDebug) {
		t.Error("debug level not applied")
	}
	if !strings.Contains(stderr, `"proc":"x"`) || !strings.Contains(stderr, `"msg":"probe"`) {
		t.Errorf("logger does not write tagged JSON to the command's stderr: %q", stderr)
	}
	if tel.Tracer != nil || tel.Metrics != nil {
		t.Error("unselected sinks are not nil")
	}

	if _, _, err := start(t, 0, "-log-level", "loud"); err == nil || !strings.Contains(err.Error(), "-log-level") {
		t.Errorf("bad level = %v, want -log-level usage error", err)
	}
	if _, _, err := start(t, 0, "-log-format", "xml"); err == nil || !strings.Contains(err.Error(), "-log-format") {
		t.Errorf("bad format = %v, want -log-format usage error", err)
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
		if got := tel.Logger.Enabled(obs.LevelDebug); got != tc.debug {
			t.Errorf("FFR_LOG=%q %v: debug enabled = %v", tc.env, tc.args, got)
		}
		if got := strings.HasPrefix(stderr.String(), "{"); got != tc.json {
			t.Errorf("FFR_LOG=%q %v: JSON output = %v (%q)", tc.env, tc.args, got, stderr)
		}
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
	m := regexp.MustCompile(`metrics listener up proc=x addr=(\S+)`).FindStringSubmatch(stderr.String())
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
