package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// ffr runs "ffr <args...>" to completion in-process.
func ffr(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(context.Background(), args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// mustFFR is ffr for an invocation that has to succeed.
func mustFFR(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	code, stdout, stderr := ffr(t, args...)
	if code != 0 {
		t.Fatalf("ffr %s: exit %d\nstdout:\n%s\nstderr:\n%s", strings.Join(args, " "), code, stdout, stderr)
	}
	return stdout, stderr
}

// stream is a command's stdout or stderr while it runs in the background:
// safe to read during the run, and able to call back the first time the
// text written so far matches a pattern — how a test interrupts a command
// at a known point.
type stream struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	wrote chan struct{} // closed and replaced by every Write
	on    *regexp.Regexp
	fire  func()
}

func newStream() *stream { return &stream{wrote: make(chan struct{})} }

func (s *stream) Write(p []byte) (int, error) {
	s.mu.Lock()
	s.buf.Write(p)
	close(s.wrote)
	s.wrote = make(chan struct{})
	fire := s.fire
	if fire != nil && s.on.Match(s.buf.Bytes()) {
		s.fire = nil
	} else {
		fire = nil
	}
	s.mu.Unlock()
	if fire != nil {
		fire()
	}
	return len(p), nil
}

// onMatch arms the stream: fire runs once, from the Write that makes the
// text written so far match re.
func (s *stream) onMatch(re string, fire func()) {
	s.on, s.fire = regexp.MustCompile(re), fire
}

func (s *stream) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.String()
}

// proc is one "ffr <args...>" run in the background; cancel is its Ctrl-C.
type proc struct {
	args           []string
	ctx            context.Context
	cancel         context.CancelFunc
	stdout, stderr *stream
	exited         chan int
}

// newProc prepares an invocation without starting it, so a test can arm a
// stream with onMatch first.
func newProc(args ...string) *proc {
	ctx, cancel := context.WithCancel(context.Background())
	return &proc{args: args, ctx: ctx, cancel: cancel, stdout: newStream(), stderr: newStream(), exited: make(chan int, 1)}
}

// start launches the invocation. The test cannot end with it still
// running: cleanup cancels and waits.
func (p *proc) start(t *testing.T) *proc {
	t.Helper()
	go func() { p.exited <- run(p.ctx, p.args, p.stdout, p.stderr) }()
	t.Cleanup(func() {
		p.cancel()
		p.wait(t)
	})
	return p
}

func start(t *testing.T, args ...string) *proc {
	t.Helper()
	return newProc(args...).start(t)
}

// wait returns the exit code once the command has returned.
func (p *proc) wait(t *testing.T) int {
	t.Helper()
	select {
	case code := <-p.exited:
		p.exited <- code
		return code
	case <-time.After(time.Minute):
		t.Fatalf("ffr %s did not return\nstdout:\n%s\nstderr:\n%s", strings.Join(p.args, " "), p.stdout, p.stderr)
		return -1
	}
}

// await blocks until the stream's text matches re and returns the first
// submatch; it fails the test if the command exits first.
func (p *proc) await(t *testing.T, s *stream, re string) string {
	t.Helper()
	pattern := regexp.MustCompile(re)
	for {
		s.mu.Lock()
		m, wrote := pattern.FindSubmatch(s.buf.Bytes()), s.wrote
		s.mu.Unlock()
		if m != nil {
			return string(m[1])
		}
		select {
		case <-wrote:
		case code := <-p.exited:
			p.exited <- code
			t.Fatalf("ffr %s exited %d before writing %q\nstdout:\n%s\nstderr:\n%s",
				strings.Join(p.args, " "), code, re, p.stdout, p.stderr)
		case <-time.After(time.Minute):
			t.Fatalf("ffr %s never wrote %q", strings.Join(p.args, " "), re)
		}
	}
}

// listening returns the base URL of a serving command, read from its
// "listening on" line.
func (p *proc) listening(t *testing.T) string {
	t.Helper()
	return "http://" + p.await(t, p.stdout, `listening on (\S+)`)
}

func TestUsage(t *testing.T) {
	code, stdout, stderr := ffr(t)
	if code != 2 || stdout != "" {
		t.Errorf("no subcommand: exit %d, stdout %q", code, stdout)
	}
	if len(commands) != 12 {
		t.Errorf("%d subcommands registered, want 12", len(commands))
	}
	for _, cmd := range commands {
		if !regexp.MustCompile(`(?m)^  ` + cmd.name + ` +\S`).MatchString(stderr) {
			t.Errorf("usage does not list %q:\n%s", cmd.name, stderr)
		}
	}
	if code, _, help := ffr(t, "help"); code != 0 || help != stderr {
		t.Errorf("ffr help: exit %d, usage differs from the bare invocation's", code)
	}
	code, stdout, stderr = ffr(t, "frobnicate")
	if code != 2 || stdout != "" || !strings.HasPrefix(stderr, "ffr: unknown command \"frobnicate\"\nusage: ffr") {
		t.Errorf("unknown subcommand: exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
}

// TestMisuse runs every flag combination the commands reject: each must
// exit 1 with empty stdout and exactly one stderr line, "<cmd>: <reason>
// (run 'ffr <cmd> -h' for usage)", before any work starts — a command with
// -cpuprofile runs each case with one, and the existing file it names must
// keep its bytes. An unknown flag exits 2 and -h exits 0, both with the flag
// list on stderr; -schedule, which inject and coord had while packing was a
// user's choice, inject's -snapshot-every, which never changed a result, and
// the settings only tests changed (-checkpoint-every, -heartbeat,
// -retry-after) are such flags now, and so are inject's and corpus's
// -shards and inject's -seed, now -chunk and -campaign-seed. The three
// experiments -exp features replaced (importance, ablation, pca) are
// refused like any unknown -exp id.
func TestMisuse(t *testing.T) {
	t.Setenv("FFR_LOG", "")
	profile := filepath.Join(t.TempDir(), "cpu.pprof")
	const profileBytes = "8 bytes."
	misuse := map[string][][]string{
		"gen": {{"-fifo", "1"}, {"-statw", "0"}, {"-ffs", "-1"}, {"stray"}},
		"sim": {{"-packets", "0"}},
		"inject": {{"-n", "-1"}, {"-workers", "-1"}, {"-chunk", "-1"},
			{"-resume"}, {"-fault-model", "mbu:99"}, {"-fault-model", "bogus"},
			{"-log-level", "loud"}, {"-log-format", "xml"}},
		"feat": {{"-n", "0"}},
		"train": {{"-train", "0"}, {"-train", "1"}, {"-train", "NaN"}, {"-splits", "0"}, {"-n", "0"}, {"-samples", "0"},
			{"-model", "bogus"}, {"-model", "MLP", "-tune"}},
		"exp": {{"-n", "0"}, {"-exp", "bogus"}, {"-exp", "table1", "-load", "m.ffrm"}, {"-exp", "predict"},
			{"-exp", "table1", "-scenarios", "alupipe/randomops"}, {"-scale", "default"}, {"-exp", "fig2a", "-fault-models", "seu"},
			{"-exp", "importance"}, {"-exp", "ablation"}, {"-exp", "pca"}},
		"corpus": {{}, {"-list", "-sweep"}, {"-sweep", "-n", "-1"}, {"-sweep", "-chunk", "-1"},
			{"-sweep", "-workers", "-1"}, {"-sweep", "-fault-model", "bogus"},
			{"-sweep", "-scale", "bogus"}, {"-sweep", "-model", "bogus"}, {"-sweep", "-scenario", "bogus"}},
		"serve": {{}, {"-model", "m.ffrm", "-workers", "-1"}},
		"coord": {{}, {"-scenario", "random/noise", "-n", "-1"}, {"-scenario", "random/noise", "-chunk", "-1"},
			{"-scenario", "random/noise", "-max-lease", "0"}, {"-scenario", "random/noise", "-resume"},
			{"-scenario", "random/noise", "-harden", "1,x"}, {"-scenario", "random/noise", "-harden", "-3"},
			{"-scenario", "random/noise", "-fault-model", "bogus"}, {"-scenario", "random/noise", "-lease-ttl", "0s"},
			{"-scenario", "bogus"}, {"-scenario", "random/noise", "-scale", "bogus"}},
		"work": {{}, {"-coordinator", "http://127.0.0.1:1", "-workers", "-1"},
			{"-coordinator", "http://127.0.0.1:1", "-max-chunks", "-1"}},
		"plan": {{"-n", "-1"}, {"-rounds", "-1"}, {"-init", "-1"}, {"-batch", "-1"}, {"-patience", "-1"},
			{"-workers", "-1"}, {"-delta", "-1"}, {"-delta", "NaN"}, {"-ci", "-1"}, {"-ci", "NaN"}, {"-resume"},
			{"-strategy", "psychic"}, {"-strategy", "uncertainty"}, {"-strategy", "cluster"},
			{"-budget", "0"}, {"-budget", "1.5"}, {"-budget", "NaN"}, {"-fault-model", "bogus"},
			{"-scale", "bogus"}, {"-model", "bogus"}, {"-scenario", "bogus"}},
		"harden": {{}, {"-load", "m.ffrm", "-budget", "-1"}, {"-load", "m.ffrm", "-budget", "NaN"},
			{"-load", "m.ffrm", "-verify", "-n", "-1"}, {"-load", "m.ffrm", "-verify", "-workers", "-1"},
			{"-load", "m.ffrm", "-verify", "-chunk", "-1"}, {"-load", "m.ffrm", "-verify", "-resume"},
			// The verify campaign's flags without -verify: refused, not ignored.
			{"-load", "m.ffrm", "-n", "16"}, {"-load", "m.ffrm", "-campaign-seed", "3"}, {"-load", "m.ffrm", "-workers", "2"},
			{"-load", "m.ffrm", "-chunk", "64"}, {"-load", "m.ffrm", "-checkpoint", "v.ckpt"},
			{"-load", "m.ffrm", "-checkpoint", "v.ckpt", "-resume"}},
	}
	for _, cmd := range commands {
		cases := misuse[cmd.name]
		if len(cases) == 0 {
			t.Errorf("%s: no misuse case", cmd.name)
		}
		pointer := "(run 'ffr " + cmd.name + " -h' for usage)\n"
		profiled := registeredFlags(t, cmd.name, cmd.run).Lookup("cpuprofile") != nil
		for _, args := range cases {
			argv := []string{cmd.name}
			if profiled {
				if err := os.WriteFile(profile, []byte(profileBytes), 0o666); err != nil {
					t.Fatal(err)
				}
				argv = append(argv, "-cpuprofile", profile)
			}
			code, stdout, stderr := ffr(t, append(argv, args...)...)
			if code != 1 || stdout != "" || strings.Count(stderr, "\n") != 1 ||
				!strings.HasPrefix(stderr, cmd.name+": ") || !strings.HasSuffix(stderr, pointer) {
				t.Errorf("ffr %s %v: exit %d, stdout %q, stderr %q", cmd.name, args, code, stdout, stderr)
			}
			if !profiled {
				continue
			}
			if b, err := os.ReadFile(profile); string(b) != profileBytes {
				t.Errorf("ffr %s -cpuprofile %s %v: the profile holds %d bytes (%v), want its %d",
					cmd.name, profile, args, len(b), err, len(profileBytes))
			}
		}

		code, stdout, stderr := ffr(t, cmd.name, "-no-such-flag")
		if code != 2 || stdout != "" || !strings.HasPrefix(stderr, "flag provided but not defined: -no-such-flag\nUsage of ffr "+cmd.name+":\n") {
			t.Errorf("ffr %s -no-such-flag: exit %d, stdout %q, stderr %q", cmd.name, code, stdout, stderr)
		}
		code, stdout, stderr = ffr(t, cmd.name, "-h")
		if code != 0 || stdout != "" || !strings.HasPrefix(stderr, "Usage of ffr "+cmd.name+":\n  -") {
			t.Errorf("ffr %s -h: exit %d, stdout %q, stderr %q", cmd.name, code, stdout, stderr)
		}
	}
	// Removed flags are unknown flags now. The name of harden's removed
	// k-means seed flag is assembled, so no Go source spells it out.
	for _, args := range [][]string{{"inject", "-schedule", "zigzag"}, {"coord", "-scenario", "random/noise", "-schedule", "zigzag"},
		{"inject", "-snapshot-every", "4"}, {"harden", "-clusters", "4"}, {"harden", "-cluster" + "-seed", "1"},
		{"coord", "-scenario", "random/noise", "-checkpoint-every", "2"}, {"harden", "-load", "m.ffrm", "-checkpoint-every", "2"},
		{"work", "-coordinator", "http://127.0.0.1:1", "-heartbeat", "1s"}, {"serve", "-model", "m.ffrm", "-retry-after", "2"},
		{"inject", "-shards", "4"}, {"corpus", "-sweep", "-shards", "4"}, {"inject", "-seed", "7"}} {
		code, stdout, stderr := ffr(t, args...)
		if code != 2 || stdout != "" || !strings.HasPrefix(stderr, "flag provided but not defined: "+args[len(args)-2]+"\nUsage of ffr "+args[0]+":\n") {
			t.Errorf("ffr %v: exit %d, stdout %q, stderr %q", args, code, stdout, stderr)
		}
	}
}

// TestEnvironmentDefaults: FFR_LOG sets the defaults of -log-level and
// -log-format, the flags override it, and without it info/text apply;
// -fault-model defaults to seu.
func TestEnvironmentDefaults(t *testing.T) {
	plan := func(args ...string) (model, logs string) {
		t.Helper()
		args = append([]string{"plan", "-scenario", "random/noise", "-n", "1", "-rounds", "1"}, args...)
		stdout, stderr := mustFFR(t, args...)
		m := regexp.MustCompile(`fault model (\S+)\n`).FindStringSubmatch(stdout)
		if m == nil {
			t.Fatalf("no fault model on stdout:\n%s", stdout)
		}
		return m[1], stderr
	}
	t.Setenv("FFR_LOG", "")
	if model, logs := plan(); model != "seu" || !strings.Contains(logs, ` level=INFO msg="loop finished" proc=plan `) || strings.Contains(logs, "DEBUG") {
		t.Errorf("built-in defaults: model %q, logs:\n%s", model, logs)
	}
	t.Setenv("FFR_LOG", "debug,json")
	if _, logs := plan(); !strings.Contains(logs, `","level":"DEBUG","msg":"`) || !strings.HasPrefix(logs, `{"time":"`) {
		t.Errorf("environment defaults, logs:\n%s", logs)
	}
	if model, logs := plan("-fault-model", "stuck0:4", "-log-level", "error", "-log-format", "text"); model != "stuck0:4" || logs != "" {
		t.Errorf("flags over environment: model %q, logs:\n%s", model, logs)
	}
}
