package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/corpus"
	"repro/internal/fault"
	"repro/internal/features"
	"repro/internal/harden"
	"repro/internal/ml"
	"repro/internal/ml/knn"
	"repro/internal/persist"
)

func postHarden(t testing.TB, h http.Handler, body string) (*httptest.ResponseRecorder, api.HardenResponse) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/harden", strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var resp api.HardenResponse
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("bad response body %q: %v", rec.Body.String(), err)
		}
	}
	return rec, resp
}

func TestHardenExplicitVectors(t *testing.T) {
	s, _ := testServer(t, Config{})
	h := s.Handler()
	// Four FFs with distinct feature rows; uniform costs default, so a 50%
	// budget hardens the two most critical. "clusters" was a request field
	// once; a body that still carries it decodes and plans the same.
	const rows = `"vectors":[[0.1,0.2,9],[0.9,3.9,0.1],[0.2,0.1,8],[0.8,3.5,0.4]],
		"names":["a","b","c","d"]}`
	body := `{"model":"k-NN","budget":0.5,"clusters":2,` + rows
	rec, resp := postHarden(t, h, body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if resp.Model != "k-NN" {
		t.Fatalf("response header %+v", resp)
	}
	if plain, _ := postHarden(t, h, `{"model":"k-NN","budget":0.5,`+rows); plain.Body.String() != rec.Body.String() {
		t.Fatalf("dropping \"clusters\" changed the plan:\n%s\n%s", rec.Body.String(), plain.Body.String())
	}
	if len(resp.Selected)+len(resp.Rest) != 4 {
		t.Fatalf("plan covers %d of 4 FFs", len(resp.Selected)+len(resp.Rest))
	}
	if len(resp.Selected) != 2 {
		t.Fatalf("50%% budget with uniform costs selected %d of 4", len(resp.Selected))
	}
	if len(resp.SelectedFFs) != len(resp.Selected) {
		t.Fatalf("selected_ffs %v disagrees with selected %v", resp.SelectedFFs, resp.Selected)
	}
	for i := 1; i < len(resp.SelectedFFs); i++ {
		if resp.SelectedFFs[i] <= resp.SelectedFFs[i-1] {
			t.Fatalf("selected_ffs %v not ascending", resp.SelectedFFs)
		}
	}
	if len(resp.Curve) != 5 {
		t.Fatalf("curve has %d points, want 5", len(resp.Curve))
	}
	if resp.ResidualFFR > resp.BaseFFR {
		t.Fatalf("residual %v above base %v", resp.ResidualFFR, resp.BaseFFR)
	}

	// Same request again must produce the identical plan (determinism).
	rec2, resp2 := postHarden(t, h, body)
	if rec2.Code != http.StatusOK {
		t.Fatalf("status %d", rec2.Code)
	}
	if resp2.ResidualFFR != resp.ResidualFFR || len(resp2.Selected) != len(resp.Selected) {
		t.Fatal("identical harden requests produced different plans")
	}
}

func TestHardenValidation(t *testing.T) {
	s, _ := testServer(t, Config{})
	h := s.Handler()
	cases := []struct {
		name, body string
		code       int
	}{
		{"missing model", `{"budget":0.5,"vectors":[[0,0,0]]}`, http.StatusBadRequest},
		{"unknown model", `{"model":"nope","budget":0.5,"vectors":[[0,0,0]]}`, http.StatusNotFound},
		{"negative budget", `{"model":"k-NN","budget":-1,"vectors":[[0,0,0]]}`, http.StatusBadRequest},
		{"both modes", `{"model":"k-NN","budget":0.5,"vectors":[[0,0,0]],"scenario":"alupipe/randomops"}`, http.StatusBadRequest},
		{"bad width", `{"model":"k-NN","budget":0.5,"vectors":[[1,2]]}`, http.StatusBadRequest},
		{"untagged model no scenario", `{"model":"k-NN","budget":0.5}`, http.StatusBadRequest},
		{"unknown scenario", `{"model":"k-NN","budget":0.5,"scenario":"nope/nope"}`, http.StatusBadRequest},
		// A finite vector the model answers with NaN, and costs whose sum
		// overflows: both once answered 500 because the plan could not be
		// encoded.
		{"nan prediction", `{"model":"k-NN","budget":0.5,"vectors":[[1e308,1e308,1e308],[0.1,0.2,9]]}`, http.StatusBadRequest},
		{"cost overflow", `{"model":"k-NN","budget":0.5,"vectors":[[0.1,0.2,9],[0.9,3.9,0.1]],"costs":[1e308,1e308]}`, http.StatusBadRequest},
		{"cost overflow zero budget", `{"model":"k-NN","budget":0,"vectors":[[0.1,0.2,9],[0.9,3.9,0.1]],"costs":[1e308,1e308]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec, _ := postHarden(t, h, tc.body)
			if rec.Code != tc.code {
				t.Fatalf("status %d, want %d: %s", rec.Code, tc.code, rec.Body.String())
			}
			if e := decodeEnvelope(t, rec); rec.Code == http.StatusBadRequest && e.Code != api.CodeBadRequest {
				t.Fatalf("400 with code %q", e.Code)
			}
		})
	}
}

// scenarioArtifact fits a k-NN named "truth" on a 16-injection ground truth
// of the scenario materialized at small scale and seed 1, tagged with the
// scenario and, like core's FitArtifact, with one training row per
// flip-flop, and returns it with that materialization.
func scenarioArtifact(t testing.TB, id string) (*persist.Artifact, *corpus.Materialized) {
	t.Helper()
	sc, err := corpus.Find(id)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sc.Materialize(corpus.ScaleSmall, 1)
	if err != nil {
		t.Fatal(err)
	}
	runner, err := m.Runner(fault.RunnerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runner.RunContext(context.Background(), m.Jobs(fault.Model{}, 16, sc.Entry.Defaults.CampaignSeed))
	if err != nil {
		t.Fatal(err)
	}
	model := &ml.Pipeline{Scaler: &ml.StandardScaler{}, Model: knn.New(3)}
	if err := model.Fit(m.Features.Rows, res.FDR); err != nil {
		t.Fatal(err)
	}
	art := persist.New("truth", model, features.Names())
	art.Circuit, art.Workload = sc.Entry.Name, sc.Workload.Name
	art.TrainRows = m.NumFFs()
	return art, m
}

// TestHardenScenarioSeedDefault: a scenario-mode request without
// scenario_seed plans the workload ffr harden plans by default and studies
// train on — materialization seed 1 — to the last field of the response.
func TestHardenScenarioSeedDefault(t *testing.T) {
	art, m := scenarioArtifact(t, "alupipe/randomops")
	s := New(Config{})
	if err := s.reg.add(art, ""); err != nil {
		t.Fatal(err)
	}

	plan, err := harden.Advise(art, m, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	want := hardenResponse(plan)
	for _, body := range []string{
		`{"model":"truth","budget":0.5}`,
		`{"model":"truth","budget":0.5,"scenario":"alupipe/randomops","scale":"small"}`,
		`{"model":"truth","budget":0.5,"scenario":"alupipe/randomops","scenario_seed":1}`,
	} {
		rec, got := postHarden(t, s.Handler(), body)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", body, rec.Code, rec.Body.String())
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: response selects %v, harden.Advise over seed 1 selects %v",
				body, got.SelectedFFs, want.SelectedFFs)
		}
	}
}

// TestHardenTaggedScenarioMustMatchTraining: a request that names no
// scenario plans the artifact's tagged one at the request's scale and
// scenario_seed, and an artifact records neither, so a circuit whose FF
// count is not the model's training rows is refused with a 400 naming both
// counts. A request that names the scenario may advise across circuits.
func TestHardenTaggedScenarioMustMatchTraining(t *testing.T) {
	art, m := scenarioArtifact(t, "alupipe/randomops")
	s := New(Config{})
	if err := s.reg.add(art, ""); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	rec, _ := postHarden(t, h, `{"model":"truth","budget":0.5,"scale":"default"}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("tagged scenario at another scale: status %d, want 400: %s", rec.Code, rec.Body.String())
	}
	e := decodeEnvelope(t, rec)
	for _, want := range []string{"trained on " + strconv.Itoa(m.NumFFs()), "scale and scenario_seed"} {
		if !strings.Contains(e.Message, want) {
			t.Errorf("refusal %q does not say %q", e.Message, want)
		}
	}
	if _, other := postHarden(t, h, `{"model":"truth","budget":0.5,"scale":"default","scenario":"alupipe/randomops"}`); len(other.Selected)+len(other.Rest) <= m.NumFFs() {
		t.Errorf("explicit scenario at default scale planned %d FFs, want more than the %d trained on",
			len(other.Selected)+len(other.Rest), m.NumFFs())
	}
}

// TestHardenRefusesForeignSchema: scenario mode scores the extractor's
// rows, so a model whose feature names are the extractor's in another order
// is refused with a 400 envelope. Explicit vectors come in the artifact's
// own order, and only their width is checked.
func TestHardenRefusesForeignSchema(t *testing.T) {
	art, m := scenarioArtifact(t, "alupipe/randomops")
	names := features.Names()
	slices.Reverse(names)
	reordered := persist.New("reordered", art.Model, names)
	reordered.Circuit, reordered.Workload, reordered.TrainRows = art.Circuit, art.Workload, art.TrainRows
	s := New(Config{})
	if err := s.reg.add(reordered, ""); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	rec, _ := postHarden(t, h, `{"model":"reordered","budget":0.5}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("reordered schema: status %d, want 400: %s", rec.Code, rec.Body.String())
	}
	if e := decodeEnvelope(t, rec); e.Code != api.CodeBadRequest || !strings.Contains(e.Message, "feature schema mismatch") {
		t.Fatalf("refusal %+v does not name the schema mismatch", e)
	}
	row, err := json.Marshal(m.Features.Rows[:2])
	if err != nil {
		t.Fatal(err)
	}
	if rec, _ := postHarden(t, h, `{"model":"reordered","budget":0.5,"vectors":`+string(row)+`}`); rec.Code != http.StatusOK {
		t.Fatalf("explicit vectors: status %d: %s", rec.Code, rec.Body.String())
	}
}

func TestHardenMetricsExported(t *testing.T) {
	s, _ := testServer(t, Config{})
	h := s.Handler()
	rec, _ := postHarden(t, h, `{"model":"k-NN","budget":1,"vectors":[[0.1,0.2,9],[0.9,3.9,0.1]]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	mrec := httptest.NewRecorder()
	h.ServeHTTP(mrec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	text := mrec.Body.String()
	for _, fam := range []string{
		"ffr_harden_requests_total 1",
		"ffr_harden_selected_ffs 2",
		"ffr_harden_residual_ffr",
		"ffr_harden_request_seconds",
	} {
		if !strings.Contains(text, fam) {
			t.Fatalf("metrics exposition missing %q", fam)
		}
	}
}
