package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/fabric"
	"repro/internal/fault"
)

// zeroVector is a features.NumFeatures-wide prediction input.
const zeroVector = `[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]`

// get and post return the response body of a request that must answer 200.
func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return body(t, url, resp)
}

func post(t *testing.T, url, payload string) string {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	return body(t, url, resp)
}

func body(t *testing.T, url string, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d: %s", url, resp.StatusCode, b)
	}
	return string(b)
}

// lintMetrics fetches a /metrics exposition and runs the repo's
// Prometheus-text gate, scripts/metrics-lint.sh, over it.
func lintMetrics(t *testing.T, url string) string {
	t.Helper()
	text := get(t, url)
	if _, err := exec.LookPath("sh"); err != nil {
		t.Skipf("sh unavailable: %v", err)
	}
	cmd := exec.Command("sh", filepath.Join("..", "..", "scripts", "metrics-lint.sh"))
	cmd.Stdin = strings.NewReader(text)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("metrics-lint of %s failed: %v\n%s\nexposition:\n%s", url, err, out, text)
	}
	return text
}

// TestServeSmoke: train a tiny k-NN artifact, serve it, and require
// /healthz and one /v1/predict to answer 200, 200 concurrent predictions
// served in full, a lint-clean /metrics, and a clean drain on interrupt.
func TestServeSmoke(t *testing.T) {
	artifact := filepath.Join(t.TempDir(), "knn.ffrm")
	stdout, _ := mustFFR(t, "train", "-model", "k-NN", "-n", "2", "-save", artifact)
	if !strings.Contains(stdout, "serve it with: ffr serve -model "+artifact) {
		t.Errorf("train -save does not say how to serve the artifact:\n%s", stdout)
	}

	srv := start(t, "serve", "-addr", "127.0.0.1:0", "-model", artifact)
	base := srv.listening(t)
	get(t, base+"/healthz")
	if resp := post(t, base+"/v1/predict", `{"model":"k-NN","vector":`+zeroVector+`}`); !strings.Contains(resp, `"predictions":[`) {
		t.Errorf("/v1/predict answered %s", resp)
	}
	// 200 predictions from 20 concurrent clients, far below what sheds
	// load: every one is served (internal/serve's TestAdmissionFlood is the
	// 10k-request overload check).
	client := api.NewClient(base)
	models, err := client.Models()
	if err != nil || len(models.Models) != 1 {
		t.Fatalf("/v1/models: %+v, %v", models, err)
	}
	errs := make(chan error)
	for g := range 20 {
		go func() {
			for i := range 10 {
				x := make([]float64, models.Models[0].NumFeatures)
				x[0] = float64(10*g + i)
				_, err := client.Predict(api.PredictRequest{Model: "k-NN", Vector: x})
				errs <- err
			}
		}()
	}
	for range 200 {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if text := lintMetrics(t, base+"/metrics"); !strings.Contains(text, "ffr_serve_requests_total") {
		t.Errorf("/metrics lacks ffr_serve_requests_total:\n%s", text)
	}

	srv.cancel()
	if code := srv.wait(t); code != 0 {
		t.Errorf("interrupted serve exited %d\nstderr:\n%s", code, srv.stderr)
	}
	if !strings.Contains(srv.stderr.String(), "serve: shutting down") {
		t.Errorf("no shutdown notice on stderr:\n%s", srv.stderr)
	}

	// The artifact is also what exp -exp predict loads: no campaign runs.
	stdout, stderr := mustFFR(t, "exp", "-exp", "predict", "-load", artifact)
	if !strings.Contains(stdout, "predicted FDR for 1054 flip-flops") || strings.Contains(stderr, "campaign start") {
		t.Errorf("exp -exp predict:\n%s\nstderr:\n%s", stdout, stderr)
	}
}

// TestCorpusSmoke: enumerate and validate every DUT family, sweep the
// whole corpus (tiny geometry, 4 shards) with per-scenario artifacts, run
// one cross-circuit transfer matrix, then serve two of the swept artifacts
// and require their scenario tags in /v1/models.
func TestCorpusSmoke(t *testing.T) {
	if stdout, _ := mustFFR(t, "corpus", "-list"); !strings.Contains(stdout, "alupipe/randomops") {
		t.Errorf("corpus -list:\n%s", stdout)
	}
	if stdout, _ := mustFFR(t, "corpus", "-validate"); !strings.HasSuffix(stdout, "corpus validation OK\n") {
		t.Errorf("corpus -validate:\n%s", stdout)
	}
	artifacts := filepath.Join(t.TempDir(), "artifacts")
	if stdout, _ := mustFFR(t, "corpus", "-sweep", "-n", "2", "-shards", "4", "-out", artifacts); !strings.HasSuffix(stdout, "corpus sweep OK\n") {
		t.Errorf("corpus -sweep:\n%s", stdout)
	}
	stdout, _ := mustFFR(t, "exp", "-exp", "cross", "-n", "2", "-fault-models", "seu",
		"-scenarios", "alupipe/randomops,rrarb/uniform,uartser/paced")
	if !strings.Contains(stdout, "uartser/paced") {
		t.Errorf("exp -exp cross printed no transfer matrix:\n%s", stdout)
	}

	srv := start(t, "serve", "-addr", "127.0.0.1:0",
		"-model", filepath.Join(artifacts, "alupipe-randomops.ffrm"),
		"-model", filepath.Join(artifacts, "uartser-paced.ffrm"))
	models := get(t, srv.listening(t)+"/v1/models")
	for _, tag := range []string{`"circuit":"alupipe"`, `"workload":"paced"`} {
		if !strings.Contains(models, tag) {
			t.Errorf("/v1/models lacks %s: %s", tag, models)
		}
	}
}

// TestCorpusValidateSeedZero: seed 0 means seed 1 here as everywhere else,
// so -validate -seed 0 materializes, and prints, seed 1's circuits.
func TestCorpusValidateSeedZero(t *testing.T) {
	scenarios := "random/noise,alupipe/randomops"
	ok := regexp.MustCompile(`(?m)^ +\S+ +ok: .*golden [0-9a-f]{16}`)
	validated := func(seed string) []string {
		stdout, _ := mustFFR(t, "corpus", "-validate", "-scenario", scenarios, "-seed", seed)
		return ok.FindAllString(stdout, -1)
	}
	zero, one := validated("0"), validated("1")
	if len(one) != 2 || fmt.Sprint(zero) != fmt.Sprint(one) {
		t.Errorf("-seed 0 validated\n%s\n-seed 1 validated\n%s", strings.Join(zero, "\n"), strings.Join(one, "\n"))
	}
}

// TestFabricSmoke: a coordinator and two workers, each through run, over
// real TCP. The campaign must complete with a checkpoint fingerprint equal
// to a single-node run of the same spec, and the telemetry must be
// correlated: the trace ID a worker minted for one lease cycle appears in
// that worker's span journal and log and in the coordinator's span journal
// and log — one leased chunk, followable across processes.
func TestFabricSmoke(t *testing.T) {
	dir := t.TempDir()
	coordSpans, workSpans := filepath.Join(dir, "coord.spans"), filepath.Join(dir, "worker.spans")
	coord := start(t, "coord", "-scenario", "random/noise", "-seed", "11", "-n", "6",
		"-campaign-seed", "77", "-chunk", "64", "-addr", "127.0.0.1:0",
		"-checkpoint", filepath.Join(dir, "fabric.ckpt"),
		"-log-level", "debug", "-log-format", "json", "-trace", coordSpans)
	base := coord.listening(t)
	get(t, base+"/healthz")
	lintMetrics(t, base+"/metrics")

	a := start(t, "work", "-coordinator", base, "-name", "smoke-a", "-workers", "1",
		"-log-level", "debug", "-log-format", "json", "-trace", workSpans)
	b := start(t, "work", "-coordinator", base, "-name", "smoke-b", "-workers", "1")
	for _, p := range []*proc{a, b, coord} {
		if code := p.wait(t); code != 0 {
			t.Fatalf("ffr %s exited %d\nstdout:\n%s\nstderr:\n%s", p.args[0], code, p.stdout, p.stderr)
		}
	}
	stdout := coord.stdout.String()
	if !strings.Contains(stdout, "coord: campaign complete: 5/5 chunks") {
		t.Errorf("coordinator did not report completion:\n%s", stdout)
	}
	if !strings.Contains(a.stdout.String(), "work: done: ") {
		t.Errorf("worker did not report completion:\n%s", a.stdout)
	}

	want := singleNodeFingerprint(t, api.CampaignSpec{
		Scenario: "random/noise", Scale: "small", Seed: 11,
		InjectionsPerFF: 6, CampaignSeed: 77, ChunkJobs: 64,
	})
	m := regexp.MustCompile(`coord: checkpoint fingerprint ([0-9a-f]+)\n`).FindStringSubmatch(stdout)
	if m == nil || m[1] != strconv.FormatUint(want, 16) {
		t.Errorf("coordinator fingerprint %v, single-node run has %x\n%s", m, want, stdout)
	}

	journal, err := os.ReadFile(workSpans)
	if err != nil {
		t.Fatal(err)
	}
	var span struct {
		TraceID string `json:"trace_id"`
	}
	for _, line := range strings.Split(string(journal), "\n") {
		if strings.Contains(line, `"name":"fabric.simulate"`) {
			if err := json.Unmarshal([]byte(line), &span); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	if span.TraceID == "" {
		t.Fatalf("no fabric.simulate span in the worker journal:\n%s", journal)
	}
	coordJournal, err := os.ReadFile(coordSpans)
	if err != nil {
		t.Fatal(err)
	}
	for where, text := range map[string]string{
		"coordinator span journal": string(coordJournal),
		"coordinator log":          coord.stderr.String(),
		"worker log":               a.stderr.String(),
	} {
		if !strings.Contains(text, span.TraceID) {
			t.Errorf("trace %s missing from the %s:\n%s", span.TraceID, where, text)
		}
	}
}

// singleNodeFingerprint runs every chunk of the campaign in-process and
// returns the fingerprint of the merged checkpoint.
func singleNodeFingerprint(t *testing.T, spec api.CampaignSpec) uint64 {
	t.Helper()
	camp, err := fabric.BuildCampaign(spec, fault.RunnerConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	fp, err := camp.SingleNodeFingerprint(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// TestHardenSmoke: train a per-scenario artifact, advise a 50 %
// area-budget TMR plan, verify it by re-running the campaign on the
// TMR-rewritten netlist, and require both machine-readable verdicts — the
// measured residual FFR improved on the baseline and the prediction landed
// within 2x of the measurement. Then serve the artifact and require POST
// /v1/harden to plan over HTTP, counted in a lint-clean /metrics.
func TestHardenSmoke(t *testing.T) {
	dir := t.TempDir()
	artifacts, planCSV := filepath.Join(dir, "artifacts"), filepath.Join(dir, "plan.csv")
	// 16 injections per flip-flop keep the measured FDRs far enough from
	// zero that the verdicts mean something.
	mustFFR(t, "corpus", "-sweep", "-scenario", "alupipe/randomops", "-n", "16", "-out", artifacts)
	artifact := filepath.Join(artifacts, "alupipe-randomops.ffrm")
	stdout, _ := mustFFR(t, "harden", "-load", artifact, "-budget", "0.5", "-verify", "-n", "16", "-csv", planCSV)
	for _, verdict := range []string{"improved=true", "predicted_within_2x=true"} {
		if !strings.Contains(stdout, verdict) {
			t.Errorf("harden -verify lacks %s:\n%s", verdict, stdout)
		}
	}
	if fi, err := os.Stat(planCSV); err != nil || fi.Size() == 0 {
		t.Errorf("plan CSV not written (%v)", err)
	}
	// The printed selection is what coord -harden takes.
	var printed []int
	var err error
	if m := regexp.MustCompile(`-harden ([0-9,]+)\n`).FindStringSubmatch(stdout); m == nil {
		t.Errorf("no coord -harden selection:\n%s", stdout)
	} else if printed, err = parseFFList(m[1]); err != nil {
		t.Errorf("printed selection does not parse: %v", err)
	}

	// Without scenario_seed the service plans the workload ffr harden does.
	srv := start(t, "serve", "-addr", "127.0.0.1:0", "-model", artifact)
	base := srv.listening(t)
	var plan api.HardenResponse
	if err := json.Unmarshal([]byte(post(t, base+"/v1/harden", `{"model":"k-NN@alupipe/randomops","budget":0.5}`)), &plan); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(plan.SelectedFFs) != fmt.Sprint(printed) {
		t.Errorf("/v1/harden selects %v, ffr harden printed %v", plan.SelectedFFs, printed)
	}
	if text := lintMetrics(t, base+"/metrics"); !strings.Contains(text, "ffr_harden_requests_total 1\n") {
		t.Errorf("/metrics does not count the harden request:\n%s", text)
	}
}
