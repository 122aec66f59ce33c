package main

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestValidateBeforeComputing: a bad experiment id, an output path that
// cannot be created and -tune on a model without hyperparameters are
// reported before the first campaign starts — not after it, with the result
// lost.
func TestValidateBeforeComputing(t *testing.T) {
	dir := t.TempDir()
	blocker := filepath.Join(dir, "a-file")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(dir, "no", "such", "dir")
	for _, args := range [][]string{
		{"exp", "-exp", "bogus", "-n", "1"},
		{"exp", "-exp", "fig2a", "-n", "1", "-csvdir", missing},
		{"exp", "-exp", "predict", "-load", filepath.Join(missing, "m.ffrm")},
		{"inject", "-n", "1", "-csv", filepath.Join(missing, "x.csv")},
		{"plan", "-scenario", "random/noise", "-n", "1", "-csv", filepath.Join(missing, "x.csv")},
		{"sim", "-activity", filepath.Join(missing, "x.csv")},
		{"feat", "-fdr", "-n", "1", "-o", filepath.Join(missing, "x.csv")},
		{"train", "-n", "1", "-save", filepath.Join(missing, "m.ffrm")},
		{"train", "-n", "1", "-model", "MLP", "-tune"},
		{"corpus", "-sweep", "-n", "1", "-out", filepath.Join(blocker, "artifacts")},
	} {
		code, stdout, stderr := ffr(t, args...)
		if code != 1 || stdout != "" || strings.Count(stderr, "\n") != 1 || strings.Contains(stderr, "campaign start") {
			t.Errorf("ffr %s: exit %d, stdout %q, stderr %q", strings.Join(args, " "), code, stdout, stderr)
		}
	}
	_, _, stderr := ffr(t, "exp", "-exp", "bogus")
	for _, id := range []string{"table1", "fig4b", "features", "predict", "cross", "all"} {
		if !strings.Contains(stderr, id) {
			t.Errorf("the -exp error does not list %q: %s", id, stderr)
		}
	}
}

// TestCorpusSweepChecksEveryArtifactPath: a -sweep -out whose artifact path
// for a later scenario cannot be written is refused before the first
// campaign runs, not after the earlier scenarios' campaigns and artifacts.
func TestCorpusSweepChecksEveryArtifactPath(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "rrarb-uniform.ffrm"), 0o755); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := ffr(t, "corpus", "-sweep", "-n", "1", "-out", dir,
		"-scenario", "alupipe/randomops,rrarb/uniform")
	if code != 1 || stdout != "" || strings.Count(stderr, "\n") != 1 || !strings.Contains(stderr, "rrarb-uniform.ffrm") {
		t.Errorf("exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
	if _, err := os.Stat(filepath.Join(dir, "alupipe-randomops.ffrm")); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("the first scenario's artifact exists (%v)", err)
	}
}

// TestInjectInterruptResume interrupts a checkpointed campaign right after
// its first checkpoint flush and resumes it: the resumed run must adopt the
// flushed chunks and write a CSV byte-identical to an uninterrupted run's.
func TestInjectInterruptResume(t *testing.T) {
	dir := t.TempDir()
	want, got, ckpt := filepath.Join(dir, "want.csv"), filepath.Join(dir, "got.csv"), filepath.Join(dir, "campaign.ffr")
	mustFFR(t, "inject", "-n", "8", "-chunk", "1088", "-csv", want)

	args := []string{"inject", "-n", "8", "-chunk", "1088", "-workers", "1", "-checkpoint", ckpt, "-csv", got, "-log-level", "debug"}
	first := newProc(args...)
	first.stderr.onMatch("checkpoint saved", first.cancel)
	first.start(t)
	if code := first.wait(t); code != 1 {
		t.Fatalf("interrupted campaign exited %d\nstderr:\n%s", code, first.stderr)
	}
	stderr := first.stderr.String()
	if !strings.Contains(stderr, "campaign interrupted after") ||
		!strings.Contains(stderr, "inject: campaign state saved to "+ckpt+"; rerun with -resume to continue") {
		t.Errorf("interrupt not reported with the resume hint:\n%s", stderr)
	}
	if _, err := os.Stat(got); err == nil {
		t.Error("the interrupted run wrote its CSV")
	}

	stdout, _ := mustFFR(t, append(args, "-resume")...)
	if !regexp.MustCompile(`\(\d+ chunks, [1-9]\d* resumed from checkpoint`).MatchString(stdout) {
		t.Errorf("the resumed run adopted no chunk:\n%s", stdout)
	}
	a, err := os.ReadFile(want)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("resumed campaign's CSV differs from the uninterrupted run's")
	}
}

// TestInjectResumesCheckpointOfEarlierBuild resumes from a checkpoint that the
// build before internal/durable wrote for `ffr inject -n 1 -shards 4` (see
// internal/fault/testdata), whose geometry is `-chunk 320`: 1054 jobs in
// four chunks. Every chunk must be adopted — so the plan,
// golden-trace and criterion fingerprints this build computes are the ones
// in that file's header — and the CSV must be a fresh campaign's.
func TestInjectResumesCheckpointOfEarlierBuild(t *testing.T) {
	dir := t.TempDir()
	want, got, ckpt := filepath.Join(dir, "want.csv"), filepath.Join(dir, "got.csv"), filepath.Join(dir, "campaign.ckpt")
	old, err := os.ReadFile(filepath.Join("..", "..", "internal", "fault", "testdata", "campaign.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckpt, old, 0o644); err != nil {
		t.Fatal(err)
	}
	mustFFR(t, "inject", "-n", "1", "-chunk", "320", "-csv", want)
	stdout, _ := mustFFR(t, "inject", "-n", "1", "-chunk", "320", "-checkpoint", ckpt, "-resume", "-csv", got)
	if !strings.Contains(stdout, "(4 chunks, 4 resumed from checkpoint") {
		t.Errorf("the resumed run did not adopt all four chunks:\n%s", stdout)
	}
	a, err := os.ReadFile(want)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("the CSV resumed from the earlier build's checkpoint differs from a fresh campaign's")
	}
}

// TestPlanInterruptResume interrupts the planner after round 1 and resumes
// it: the resumed loop must replay the checkpointed rounds and end on the
// model and estimate fingerprints of an uninterrupted loop.
func TestPlanInterruptResume(t *testing.T) {
	fingerprints := regexp.MustCompile(`model fingerprint [0-9a-f]{16}, estimate fingerprint [0-9a-f]{16}\n`)
	args := []string{"plan", "-scenario", "uartser/paced", "-n", "4"}
	stdout, _ := mustFFR(t, args...)
	want := fingerprints.FindString(stdout)
	if want == "" {
		t.Fatalf("no fingerprints:\n%s", stdout)
	}

	ckpt := filepath.Join(t.TempDir(), "loop.ffrp")
	args = append(args, "-checkpoint", ckpt)
	first := newProc(args...)
	first.stdout.onMatch(`round  1: `, first.cancel)
	first.start(t)
	if code := first.wait(t); code != 1 {
		t.Fatalf("interrupted loop exited %d\nstderr:\n%s", code, first.stderr)
	}
	if stderr := first.stderr.String(); !strings.Contains(stderr, "plan: loop state saved to "+ckpt+"; rerun with -resume to continue") {
		t.Errorf("interrupt not reported with the resume hint:\n%s", stderr)
	}
	if fingerprints.MatchString(first.stdout.String()) {
		t.Fatalf("the loop finished before the interrupt:\n%s", first.stdout)
	}

	stdout, _ = mustFFR(t, append(args, "-resume")...)
	// A round already in flight at the interrupt may still complete, so
	// more than rounds 0 and 1 can come back from the checkpoint.
	if n := strings.Count(stdout, "(resumed)\n"); n < 2 || n >= strings.Count(stdout, "\nround ") {
		t.Errorf("the resumed loop replayed %d rounds, want at least rounds 0 and 1 but not all:\n%s", n, stdout)
	}
	if got := fingerprints.FindString(stdout); got != want {
		t.Errorf("resumed loop ended on\n%swant\n%s", got, want)
	}
}

// TestInjectRefusesLegacyCheckpoint: `ffr inject -resume` over a checkpoint
// an earlier build packed in plan order (see internal/fault/testdata) exits
// 1 with one error line saying so, reports no campaign and leaves the file
// as it was.
func TestInjectRefusesLegacyCheckpoint(t *testing.T) {
	legacy, err := os.ReadFile(filepath.Join("..", "..", "internal", "fault", "testdata", "campaign-legacy.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "campaign.ckpt")
	if err := os.WriteFile(ckpt, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := ffr(t, "inject", "-n", "1", "-chunk", "320", "-checkpoint", ckpt, "-resume")
	if code != 1 || strings.Contains(stdout, "chunks") || strings.Count(stderr, "\n") != 1 ||
		!strings.Contains(stderr, "unsupported checkpoint version") || !strings.Contains(stderr, "plan order") {
		t.Errorf("exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
	if after, err := os.ReadFile(ckpt); err != nil || !bytes.Equal(after, legacy) {
		t.Errorf("the refused checkpoint was rewritten (%v)", err)
	}
}
