package cli

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testCmd is the invocation "ffr x <args...>" with captured streams.
func testCmd(args ...string) (c *Cmd, stdout, stderr *bytes.Buffer) {
	stdout, stderr = new(bytes.Buffer), new(bytes.Buffer)
	return New(context.Background(), "x", args, stdout, stderr), stdout, stderr
}

func TestCheckReturnsFirstError(t *testing.T) {
	e1, e2 := errors.New("first"), errors.New("second")
	if got := Check(nil, e1, e2); got != e1 {
		t.Errorf("Check = %v, want the first error", got)
	}
	if got := Check(nil, nil); got != nil {
		t.Errorf("Check of nils = %v, want nil", got)
	}
}

func TestUsageErrorf(t *testing.T) {
	c, _, _ := testCmd()
	err := c.UsageErrorf("-n must be >= %d (got %d)", 1, 0)
	want := "-n must be >= 1 (got 0) (run 'ffr x -h' for usage)"
	if err.Error() != want {
		t.Errorf("UsageErrorf = %q, want %q", err.Error(), want)
	}
}

func TestMinInt(t *testing.T) {
	c, _, _ := testCmd()
	if err := c.MinInt("n", 5, 1); err != nil {
		t.Errorf("valid value rejected: %v", err)
	}
	err := c.MinInt("n", 0, 1)
	if err == nil || !strings.Contains(err.Error(), "-n must be >= 1 (got 0)") {
		t.Errorf("MinInt violation = %v", err)
	}
}

func TestOpenUnit(t *testing.T) {
	c, _, _ := testCmd()
	if err := c.OpenUnit("train", 0.5); err != nil {
		t.Errorf("valid fraction rejected: %v", err)
	}
	for _, v := range []float64{0, 1, -0.1, 1.5, math.NaN()} {
		if c.OpenUnit("train", v) == nil {
			t.Errorf("OpenUnit accepted %v", v)
		}
	}
}

func TestNonNegFloat(t *testing.T) {
	c, _, _ := testCmd()
	if err := c.NonNegFloat("delta", 0); err != nil {
		t.Errorf("zero rejected: %v", err)
	}
	for _, v := range []float64{-1, math.NaN()} {
		if c.NonNegFloat("delta", v) == nil {
			t.Errorf("NonNegFloat accepted %v", v)
		}
	}
}

func TestRequires(t *testing.T) {
	c, _, _ := testCmd()
	if err := c.Requires("resume", "checkpoint", true); err != nil {
		t.Errorf("satisfied dependency rejected: %v", err)
	}
	err := c.Requires("resume", "checkpoint", false)
	if err == nil || !strings.Contains(err.Error(), "-resume requires -checkpoint") {
		t.Errorf("Requires violation = %v", err)
	}
}

func TestOneOf(t *testing.T) {
	c, _, _ := testCmd()
	if err := c.OneOf("schedule", "clustered", "", "clustered", "plan"); err != nil {
		t.Errorf("valid value rejected: %v", err)
	}
	if err := c.OneOf("schedule", "", "", "clustered", "plan"); err != nil {
		t.Errorf("allowed empty rejected: %v", err)
	}
	err := c.OneOf("schedule", "zigzag", "", "clustered", "plan")
	if err == nil || !strings.Contains(err.Error(), `must be one of clustered, plan (got "zigzag")`) {
		t.Errorf("OneOf violation = %v", err)
	}
}

// TestRunExitCodes pins the exit-code contract: 0 on success and -h, 2
// for flags the flag package rejects, 1 with one "<name>: <error>" line
// for anything else — positional arguments included.
func TestRunExitCodes(t *testing.T) {
	sub := func(c *Cmd) error {
		c.Flags.Int("n", 1, "a number")
		if err := c.Parse(); err != nil {
			return err
		}
		c.Printf("ran\n")
		return nil
	}
	cases := []struct {
		args           []string
		code           int
		stdout, stderr string
	}{
		{[]string{"-n", "3"}, 0, "ran\n", ""},
		{[]string{"-h"}, 0, "", "Usage of ffr x:"},
		{[]string{"-bogus"}, 2, "", "flag provided but not defined: -bogus"},
		{[]string{"-n", "many"}, 2, "", "invalid value"},
		{[]string{"stray"}, 1, "", "x: unexpected arguments: [stray] (run 'ffr x -h' for usage)\n"},
	}
	for _, tc := range cases {
		c, stdout, stderr := testCmd(tc.args...)
		if code := c.Run(sub); code != tc.code {
			t.Errorf("%v: exit %d, want %d", tc.args, code, tc.code)
		}
		if stdout.String() != tc.stdout {
			t.Errorf("%v: stdout %q, want %q", tc.args, stdout, tc.stdout)
		}
		if !strings.Contains(stderr.String(), tc.stderr) || (tc.stderr == "") != (stderr.Len() == 0) {
			t.Errorf("%v: stderr %q, want it to contain %q", tc.args, stderr, tc.stderr)
		}
	}
	c, _, stderr := testCmd()
	if code := c.Run(func(*Cmd) error { return flag.ErrHelp }); code != 0 || stderr.Len() != 0 {
		t.Errorf("ErrHelp: exit %d, stderr %q", code, stderr)
	}
}

// TestFaultModelPrecedence: flag > FFR_FAULT_MODEL > built-in seu.
func TestFaultModelPrecedence(t *testing.T) {
	cases := []struct {
		env  string
		args []string
		want string
	}{
		{"", nil, "seu"},
		{"mbu:3", nil, "mbu:3"},
		{"mbu:3", []string{"-fault-model", "stuck0:8"}, "stuck0:8"},
		{"garbage", []string{"-fault-model", "seu"}, "seu"},
	}
	for _, tc := range cases {
		t.Setenv("FFR_FAULT_MODEL", tc.env)
		c, _, _ := testCmd(tc.args...)
		model := c.FaultModel("fault model")
		if err := c.Parse(); err != nil {
			t.Fatal(err)
		}
		m, err := model()
		if err != nil || m.String() != tc.want {
			t.Errorf("env %q args %v: model %q, %v; want %q", tc.env, tc.args, m, err, tc.want)
		}
	}

	t.Setenv("FFR_FAULT_MODEL", "mbu:99")
	c, _, _ := testCmd()
	model := c.FaultModel("fault model")
	if err := c.Parse(); err != nil {
		t.Fatal(err)
	}
	if _, err := model(); err == nil || !strings.Contains(err.Error(), "bad -fault-model") ||
		!strings.HasSuffix(err.Error(), "(run 'ffr x -h' for usage)") {
		t.Errorf("bad environment default = %v, want a -fault-model usage error", err)
	}
}

func TestScenarios(t *testing.T) {
	got, err := Scenarios("alupipe/randomops, uartser/paced")
	if err != nil || len(got) != 2 || got[0].ID() != "alupipe/randomops" || got[1].ID() != "uartser/paced" {
		t.Errorf("Scenarios = %v, %v", got, err)
	}
	if _, err := Scenarios("alupipe/randomops,alupipe/randomops"); err == nil || !strings.Contains(err.Error(), "selected twice") {
		t.Errorf("repeated scenario = %v", err)
	}
	if _, err := Scenarios("no/such"); err == nil {
		t.Error("unknown scenario accepted")
	}
}

func TestCreatable(t *testing.T) {
	dir := t.TempDir()
	if err := Creatable("csv", ""); err != nil {
		t.Errorf("empty path: %v", err)
	}
	fresh := filepath.Join(dir, "new.csv")
	if err := Creatable("csv", fresh); err != nil {
		t.Errorf("creatable path rejected: %v", err)
	}
	if _, err := os.Stat(fresh); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("the check left %s behind (%v)", fresh, err)
	}
	kept := filepath.Join(dir, "old.csv")
	if err := os.WriteFile(kept, []byte("keep"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Creatable("csv", kept); err != nil {
		t.Errorf("existing file rejected: %v", err)
	}
	if b, _ := os.ReadFile(kept); string(b) != "keep" {
		t.Errorf("the check rewrote an existing file: %q", b)
	}
	err := Creatable("csv", filepath.Join(dir, "no", "such", "x.csv"))
	if err == nil || !strings.HasPrefix(err.Error(), "-csv: ") {
		t.Errorf("missing directory = %v, want a -csv error", err)
	}
}

func TestWriteCSV(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.csv")
	err := WriteCSV(path, []string{"name", "v"}, [][]string{{"a,b", "1"}, {"c", "2"}})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(path)
	if want := "name,v\n\"a,b\",1\nc,2\n"; string(got) != want {
		t.Errorf("file = %q, want %q", got, want)
	}
	if err := WriteCSV(filepath.Join(path, "under-a-file.csv"), nil, nil); err == nil {
		t.Error("uncreatable path accepted")
	}
}

// TestServe drives the shared listen/serve/drain loop: the announced
// address answers while until runs, and Serve returns until's error once
// it is done.
func TestServe(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pr, pw := io.Pipe()
	c := New(ctx, "x", nil, pw, io.Discard)
	h := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, "pong") })
	sentinel := errors.New("until is done")
	done := make(chan error, 1)
	go func() {
		done <- c.Serve("127.0.0.1:0", h, " (note)", func(ctx context.Context) error {
			<-ctx.Done()
			return sentinel
		})
	}()

	line := make([]byte, 256)
	n, err := pr.Read(line)
	if err != nil {
		t.Fatal(err)
	}
	announced := strings.TrimSpace(string(line[:n]))
	addr, ok := strings.CutPrefix(announced, "x: listening on ")
	addr, ok2 := strings.CutSuffix(addr, " (note)")
	if !ok || !ok2 {
		t.Fatalf("announcement %q", announced)
	}
	resp, err := http.Get("http://" + addr + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "pong" {
		t.Errorf("body %q", body)
	}
	cancel()
	if err := <-done; err != sentinel {
		t.Errorf("Serve = %v, want until's error", err)
	}
	if _, err := http.Get("http://" + addr + "/"); err == nil {
		t.Error("the listener outlived Serve")
	}

	if err := c.Serve("256.0.0.1:bad", h, "", nil); err == nil {
		t.Error("bad address accepted")
	}
}
