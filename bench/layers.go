package main

// layers.go is the benchmark's one adapter onto the program under test: the
// only file that imports repro/internal/... . Every function here wraps one
// call into a layer's public API in a span named "<layer>.<operation>" and
// hands plain Go values back, so an API refactor of the program costs an edit
// of this file and nothing else in the benchmark. The benchmark leaves every
// Backend and Schedule at its zero value and never asks for the naive path.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/fabric"
	"repro/internal/fault"
	"repro/internal/features"
	"repro/internal/ml"
	"repro/internal/ml/metrics"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/plan"
	"repro/internal/serve"
	"repro/internal/sim"
)

// ---- tracing ---------------------------------------------------------------

// tracer journals spans into memory through the program's own obs.Tracer. A
// nil *tracer records nothing and costs nothing, which is the untraced pass.
type tracer struct {
	t   *obs.Tracer
	buf bytes.Buffer // obs.Tracer serializes its writes
}

func newTracer() *tracer {
	tr := &tracer{}
	tr.t = obs.NewTracer(&tr.buf, "bench")
	return tr
}

// span opens a span under ctx's current span; the returned func ends it.
func (tr *tracer) span(ctx context.Context, name string) (context.Context, func()) {
	if tr == nil {
		return ctx, func() {}
	}
	ctx, sp := tr.t.Start(ctx, name)
	return ctx, sp.End
}

// spanRec is one finished span, times in microseconds.
type spanRec struct {
	ID, Parent, Name string
	Start, Dur       int64
}

// records parses the in-memory journal.
func (tr *tracer) records() ([]spanRec, error) {
	recs, err := obs.ReadJournal(bytes.NewReader(tr.buf.Bytes()))
	if err != nil {
		return nil, fmt.Errorf("reading span journal: %w", err)
	}
	out := make([]spanRec, len(recs))
	for i, r := range recs {
		out[i] = spanRec{ID: r.SpanID, Parent: r.ParentID, Name: r.Name, Start: r.StartUS, Dur: r.DurUS}
	}
	return out, nil
}

// writeFiles writes the span journal (JSONL) and its chrome://tracing form.
func (tr *tracer) writeFiles(jsonlPath, chromePath string) error {
	if err := os.WriteFile(jsonlPath, tr.buf.Bytes(), 0o644); err != nil {
		return err
	}
	var chrome bytes.Buffer
	if err := obs.ConvertChromeTrace(&chrome, bytes.NewReader(tr.buf.Bytes())); err != nil {
		return err
	}
	return os.WriteFile(chromePath, chrome.Bytes(), 0o644)
}

// ---- models ----------------------------------------------------------------

// modelNames are the benchmark's short names for the seven regressors, in
// core.PaperModels() + core.ExtendedModels() order.
var modelNames = []string{"lls", "knn", "svr", "tree", "forest", "gboost", "mlp"}

func modelSpec(name string) (core.ModelSpec, error) {
	specs := append(core.PaperModels(), core.ExtendedModels()...)
	for i, n := range modelNames {
		if n == name && i < len(specs) {
			return specs[i], nil
		}
	}
	return core.ModelSpec{}, fmt.Errorf("no model %q", name)
}

// fitted is a trained regressor and its short name.
type fitted struct {
	name string
	m    ml.Regressor
}

func fit(ctx context.Context, tr *tracer, model string, X [][]float64, y []float64) (*fitted, error) {
	spec, err := modelSpec(model)
	if err != nil {
		return nil, err
	}
	_, end := tr.span(ctx, "ml.fit."+model)
	defer end()
	m := spec.Factory()
	if err := m.Fit(X, y); err != nil {
		return nil, fmt.Errorf("fitting %s: %w", model, err)
	}
	return &fitted{model, m}, nil
}

func (f *fitted) predict(ctx context.Context, tr *tracer, X [][]float64) []float64 {
	_, end := tr.span(ctx, "ml.predict."+f.name)
	defer end()
	return ml.PredictAll(f.m, X)
}

// stratifiedSplit draws the paper's 50 % stratified train/test partition.
func stratifiedSplit(ctx context.Context, tr *tracer, y []float64, seed int64) (train, test []int, err error) {
	_, end := tr.span(ctx, "ml.split")
	defer end()
	splits, err := ml.StratifiedShuffleSplits(y, 1, core.PaperTrainFrac, core.PaperStratifyBins, seed)
	if err != nil {
		return nil, nil, fmt.Errorf("stratified split: %w", err)
	}
	return splits[0].Train, splits[0].Test, nil
}

func gather(X [][]float64, y []float64, idx []int) ([][]float64, []float64) {
	return ml.Gather(X, y, idx)
}

func r2(y, yhat []float64) float64 { return metrics.R2(y, yhat) }

// ---- studies and campaigns -------------------------------------------------

// campaign is the outcome of one fault-injection campaign.
type campaign struct {
	FDR                     []float64
	Failures, Injections    []int
	Runs, Batches           int
	SimCycles, ReplayCycles int64
}

func newCampaign(r *fault.Result) *campaign {
	return &campaign{
		FDR: r.FDR, Failures: r.Failures, Injections: r.Injections,
		Runs: r.TotalRuns, Batches: r.Batches,
		SimCycles: r.SimulatedCycles, ReplayCycles: r.ReplayCycles,
	}
}

// study is a built circuit + testbench + features, ready to run campaigns.
type study struct{ s *core.Study }

// newMACStudy builds the paper's 1054-FF MAC study, or with small the
// quickstart-scale MAC the corpus uses for smoke runs.
func newMACStudy(ctx context.Context, tr *tracer, small bool, injections int, campaignSeed int64, workers int) (*study, error) {
	_, end := tr.span(ctx, "core.study_build")
	defer end()
	cfg := core.DefaultStudyConfig()
	if small {
		cfg.MAC = circuit.MACConfig{FIFODepth: 16, StatWidth: 8}
		cfg.Bench.Packets, cfg.Bench.MinPayload, cfg.Bench.MaxPayload = 6, 4, 6
	}
	cfg.InjectionsPerFF = injections
	cfg.CampaignSeed = campaignSeed
	cfg.Workers = workers
	s, err := core.NewStudy(cfg)
	if err != nil {
		return nil, err
	}
	return &study{s}, nil
}

// corpusScenarios lists the corpus scenario IDs outside the MAC family.
func corpusScenarios() []string {
	var ids []string
	for _, sc := range corpus.List() {
		if sc.Entry.Name != "mac10ge" {
			ids = append(ids, sc.ID())
		}
	}
	return ids
}

func corpusScale(small bool) corpus.Scale {
	if small {
		return corpus.ScaleSmall
	}
	return corpus.ScaleDefault
}

// corpusConfig selects one corpus campaign. Injections 0 takes the scenario's
// default budget; a Checkpoint path turns campaign checkpointing on.
type corpusConfig struct {
	Scenario, FaultModel string
	Small                bool
	Seed, CampaignSeed   int64
	Injections, Workers  int
	Checkpoint           string
}

// newCorpusStudy materializes one corpus scenario under one fault model.
func newCorpusStudy(ctx context.Context, tr *tracer, c corpusConfig) (*study, error) {
	sc, err := corpus.Find(c.Scenario)
	if err != nil {
		return nil, err
	}
	model, err := fault.ParseModel(c.FaultModel)
	if err != nil {
		return nil, err
	}
	_, end := tr.span(ctx, "core.study_build")
	defer end()
	s, err := core.NewCorpusStudy(sc, core.CorpusStudyConfig{
		Scale: corpusScale(c.Small), Seed: c.Seed, CampaignSeed: c.CampaignSeed, Model: model,
		InjectionsPerFF: c.Injections, Workers: c.Workers, Checkpoint: c.Checkpoint,
	})
	if err != nil {
		return nil, err
	}
	return &study{s}, nil
}

func (st *study) numFFs() int               { return st.s.NumFFs() }
func (st *study) rows() [][]float64         { return st.s.FeatureRows() }
func (st *study) goldenFingerprint() uint64 { return st.s.GoldenTrace().Fingerprint() }
func (st *study) truth() ([]float64, error) { return st.s.FDR() }
func (st *study) truthCampaign() *campaign  { return newCampaign(st.s.Campaign) }

// groundTruth runs the full flat campaign. RunGroundTruth caches its first
// result on the study, so a repetition clears the cache first.
func (st *study) groundTruth(ctx context.Context, tr *tracer) (*campaign, error) {
	_, end := tr.span(ctx, "fault.campaign")
	defer end()
	st.s.Campaign = nil
	res, err := st.s.RunGroundTruth()
	if err != nil {
		return nil, err
	}
	return newCampaign(res), nil
}

// partial fault-injects only the given flip-flops.
func (st *study) partial(ctx context.Context, tr *tracer, ffs []int) (*campaign, error) {
	_, end := tr.span(ctx, "fault.partial_campaign")
	defer end()
	res, err := st.s.RunPartialCampaign(ffs)
	if err != nil {
		return nil, err
	}
	return newCampaign(res), nil
}

// adaptiveResult is the outcome of the committee planner.
type adaptiveResult struct {
	Rounds, Measured, Injections int
	FFR                          float64
	Estimates                    []float64
}

// adaptive runs the committee planner to budgetFFs measured flip-flops. Each
// planner round is journaled as a plan.round span, opened when the previous
// round's OnRound callback fires; onRound is called there too.
func (st *study) adaptive(ctx context.Context, tr *tracer, seed int64, budgetFFs int, onRound func()) (*adaptiveResult, error) {
	ctx, end := tr.span(ctx, "plan.adaptive")
	defer end()
	_, endRound := tr.span(ctx, "plan.round")
	as, err := core.NewAdaptiveStudy(st.s, core.AdaptiveConfig{
		Seed:      seed,
		BudgetFFs: budgetFFs,
		OnRound: func(plan.Round) {
			endRound()
			onRound()
			_, endRound = tr.span(ctx, "plan.round")
		},
	})
	if err != nil {
		return nil, err
	}
	res, err := as.Run()
	endRound() // the tail after the last round: final fit and estimate vector
	if err != nil {
		return nil, err
	}
	return &adaptiveResult{
		Rounds: len(res.Rounds), Measured: len(res.Measured), Injections: res.TotalInjections,
		FFR: res.FFR, Estimates: res.Estimates,
	}, nil
}

// ---- the Section IV-B protocol ---------------------------------------------

// protocolSize sizes one repetition of the ml-protocol workload.
type protocolSize struct {
	Models      []string
	Splits      int
	CurveFracs  []float64
	CurveFolds  int
	TuneSamples int
}

// protocol runs Table I over the given models, the k-NN learning curve and the
// k-NN hyperparameter search on the study's ground truth. It returns every
// score it computed, in a fixed order, so repetitions can be compared. It calls
// stage after each Table I model and after the curve and the search.
func (st *study) protocol(ctx context.Context, tr *tracer, size protocolSize, seed int64, stage func()) ([]float64, error) {
	specs := make([]core.ModelSpec, len(size.Models))
	for i, name := range size.Models {
		spec, err := modelSpec(name)
		if err != nil {
			return nil, err
		}
		specs[i] = spec
	}
	knn, err := modelSpec("knn")
	if err != nil {
		return nil, err
	}
	var scores []float64

	// Table I goes model by model (the splits depend on the seed alone, so the
	// rows are those of one call) to give the harness a lap per model.
	for _, spec := range specs {
		_, end := tr.span(ctx, "ml.table1")
		rows, err := st.s.Table1([]core.ModelSpec{spec}, size.Splits, core.PaperTrainFrac, seed)
		end()
		stage()
		if err != nil {
			return nil, err
		}
		scores = append(scores, rows[0].MAE, rows[0].RMSE, rows[0].R2)
	}

	_, end := tr.span(ctx, "ml.learning_curve")
	points, err := st.s.LearningCurve(knn, size.CurveFracs, size.CurveFolds, seed)
	end()
	stage()
	if err != nil {
		return nil, err
	}
	for _, p := range points {
		scores = append(scores, p.TrainScore, p.TestScore)
	}

	_, end = tr.span(ctx, "ml.tune")
	out, err := st.s.TuneModel(knn, size.TuneSamples, seed)
	end()
	stage()
	if err != nil {
		return nil, err
	}
	return append(scores, out.Random.BestScore, out.Grid.BestScore), nil
}

// ---- front-end and simulator probes ----------------------------------------

// probeFrontEnd walks one corpus scenario through the front end stage by
// stage, a span per stage, and once more through corpus.Materialize as a
// whole. It returns the golden snapshot store size in bytes.
func probeFrontEnd(ctx context.Context, tr *tracer, scenario string, small bool, seed int64) (snapshotBytes int, err error) {
	sc, err := corpus.Find(scenario)
	if err != nil {
		return 0, err
	}
	scale := corpusScale(small)

	_, end := tr.span(ctx, "circuit.generate_synth")
	nl, err := sc.Entry.Generate(scale, seed)
	if err == nil {
		err = circuit.Synthesize(nl)
	}
	end()
	if err != nil {
		return 0, err
	}

	_, end = tr.span(ctx, "sim.compile")
	p, err := sim.Compile(nl)
	end()
	if err != nil {
		return 0, err
	}

	_, end = tr.span(ctx, "corpus.workload_build")
	bench, err := sc.Workload.Build(p, scale, seed)
	end()
	if err != nil {
		return 0, err
	}

	_, end = tr.span(ctx, "sim.golden")
	snaps := sim.NewSnapshots(p, bench.Stim, 0)
	_, act := sim.Run(sim.NewEngine(p), bench.Stim, sim.RunConfig{
		Monitors: bench.Monitors, CollectActivity: true, Snapshots: snaps,
	})
	end()

	_, end = tr.span(ctx, "features.extract")
	ex, err := features.NewExtractor(nl)
	if err == nil {
		_, err = ex.Extract(act)
	}
	end()
	if err != nil {
		return 0, err
	}

	_, end = tr.span(ctx, "sim.kernel_build")
	_, err = sim.BuildKernel(p, sim.KernelConfig{KeepOutputs: keptOutputs(bench.Stim, bench.Monitors)})
	end()
	if err != nil {
		return 0, err
	}

	_, end = tr.span(ctx, "corpus.materialize")
	_, err = sc.Materialize(scale, seed)
	end()
	return snaps.MemoryBytes(), err
}

// keptOutputs is the observed output set a campaign kernel keeps: the monitored
// ports and the loopback sources.
func keptOutputs(stim *sim.Stimulus, monitors []int) []int {
	keep := append([]int(nil), monitors...)
	for _, l := range stim.Loopbacks() {
		keep = append(keep, l.Out)
	}
	return keep
}

// kernelProbe is the outcome of probeKernel.
type kernelProbe struct {
	LaneCycles            int64 // lanes × cycles simulated
	KernelOps, ProgramOps int
	Seconds               float64
}

// probeKernel compiles the study's program to a kernel and drives a 4-word
// (256-lane) KernelEngine over the whole stimulus, passes times.
func (st *study) probeKernel(ctx context.Context, tr *tracer, passes int) (*kernelProbe, error) {
	p, stim := st.s.Program, st.s.Stim()
	monitors := st.s.GoldenTrace().Monitors
	k, err := sim.BuildKernel(p, sim.KernelConfig{KeepOutputs: keptOutputs(stim, monitors)})
	if err != nil {
		return nil, err
	}
	snaps := sim.NewSnapshots(p, stim, 0)
	sim.Run(sim.NewEngine(p), stim, sim.RunConfig{Snapshots: snaps})
	e := sim.NewKernelEngine(k, sim.DefaultKernelWords)
	traces := make([]*sim.Trace, e.Words())
	for w := range traces {
		traces[w] = sim.NewTrace(monitors, stim.Cycles())
	}
	_, end := tr.span(ctx, "sim.kernel_loop")
	start := time.Now()
	for i := 0; i < passes; i++ {
		sim.RunWindowWide(e, stim, snaps, 0, sim.WideWindowConfig{Monitors: monitors, Traces: traces})
	}
	secs := time.Since(start).Seconds()
	end()
	for w, t := range traces {
		if !t.Equal(st.s.GoldenTrace()) {
			return nil, fmt.Errorf("kernel probe: word %d diverges from the golden trace", w)
		}
	}
	stats := k.Stats()
	return &kernelProbe{
		LaneCycles: int64(passes) * int64(stim.Cycles()) * int64(e.Lanes()),
		KernelOps:  stats.KernelOps, ProgramOps: stats.ProgramOps,
		Seconds: secs,
	}, nil
}

// probePlan times drawing the study's full injection plan.
func (st *study) probePlan(ctx context.Context, tr *tracer) int {
	_, end := tr.span(ctx, "fault.plan")
	defer end()
	cfg := st.s.Config
	return len(fault.NewModelPlan(cfg.Model, st.numFFs(), cfg.InjectionsPerFF, st.s.ActiveCycles(), cfg.CampaignSeed))
}

// ---- prediction service ----------------------------------------------------

// predictService is an in-process serve.Server behind a real loopback listener,
// with the same models kept in hand for direct evaluation.
type predictService struct {
	srv     *http.Server
	handler http.Handler
	client  *api.Client
	direct  map[string]ml.Regressor
	served  chan error
	// ArtifactBytes is the summed size of the saved artifact files.
	ArtifactBytes int64
}

// servedModels are the artifacts the serve-predict workload loads; the map
// gives each one's name on the wire.
var servedModels = []string{"knn", "svr"}

// startPredictService fits the served models on (X, y), round-trips each
// through persist.Save and Registry.AddFrom, checks the reloaded artifact
// predicts exactly what the fitted model does, and starts the server.
func startPredictService(ctx context.Context, tr *tracer, dir string, X [][]float64, y []float64, clients int) (*predictService, error) {
	ps := &predictService{direct: map[string]ml.Regressor{}, served: make(chan error, 1)}
	reg := serve.NewRegistry()
	for _, name := range servedModels {
		f, err := fit(ctx, tr, name, X, y)
		if err != nil {
			return nil, err
		}
		art := persist.New(name, f.m, features.Names())
		art.TrainRows = len(X)
		art.TrainHash = persist.DataFingerprint(X, y)
		path := filepath.Join(dir, name+".ffrm")
		_, end := tr.span(ctx, "persist.save")
		err = persist.Save(path, art)
		end()
		if err != nil {
			return nil, err
		}
		if fi, err := os.Stat(path); err == nil {
			ps.ArtifactBytes += fi.Size()
		}
		_, end = tr.span(ctx, "persist.load")
		loaded, err := reg.AddFrom(path)
		end()
		if err != nil {
			return nil, err
		}
		for i, x := range X {
			if got, want := loaded.Model.Predict(x), f.m.Predict(x); got != want {
				return nil, fmt.Errorf("reloaded %s artifact predicts %v for row %d, fitted model %v", name, got, i, want)
			}
		}
		ps.direct[name] = f.m
	}
	server := serve.New(serve.Config{Registry: reg})
	ps.handler = server.Handler()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ps.srv = &http.Server{Handler: ps.handler}
	go func() { ps.served <- ps.srv.Serve(ln) }()
	ps.client = api.NewClient("http://" + ln.Addr().String())
	// One kept-alive connection per client goroutine.
	ps.client.HTTP = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	return ps, nil
}

// close stops the server and waits for its goroutine.
func (ps *predictService) close() {
	ps.srv.Close()
	<-ps.served
	ps.client.HTTP.CloseIdleConnections()
}

// predictReply is one /v1/predict answer.
type predictReply struct {
	Predictions     []float64
	Hits, Coalesced int
	Shed            bool // refused with 429
}

// predict posts one request: a single vector when len(vectors) == 1.
func (ps *predictService) predict(model string, vectors [][]float64) (predictReply, error) {
	req := api.PredictRequest{Model: model}
	if len(vectors) == 1 {
		req.Vector = vectors[0]
	} else {
		req.Vectors = vectors
	}
	resp, err := ps.client.Predict(req)
	if err != nil {
		if e, ok := err.(*api.Error); ok && e.Status == http.StatusTooManyRequests {
			return predictReply{Shed: true}, err
		}
		return predictReply{}, err
	}
	return predictReply{Predictions: resp.Predictions, Hits: resp.CacheHits, Coalesced: resp.Coalesced}, nil
}

// directPredict evaluates the fitted model in hand.
func (ps *predictService) directPredict(model string, x []float64) float64 {
	return ps.direct[model].Predict(x)
}

// probeHandler serves n single-vector requests straight through the handler,
// no socket, under one serve.handler span.
func (ps *predictService) probeHandler(ctx context.Context, tr *tracer, model string, x []float64, n int) error {
	body, err := json.Marshal(api.PredictRequest{Model: model, Vector: x})
	if err != nil {
		return err
	}
	_, end := tr.span(ctx, "serve.handler")
	defer end()
	for i := 0; i < n; i++ {
		rec := httptest.NewRecorder()
		ps.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("handler probe: status %d: %s", rec.Code, rec.Body.String())
		}
	}
	return nil
}

// probeWire encodes a batch request and decodes a batch response n times each,
// under one api.encode and one api.decode span.
func probeWire(ctx context.Context, tr *tracer, vectors [][]float64, n int) error {
	req := api.PredictRequest{Model: "knn", Vectors: vectors}
	respBody, err := json.Marshal(api.PredictResponse{Model: "knn", Predictions: make([]float64, len(vectors))})
	if err != nil {
		return err
	}
	_, end := tr.span(ctx, "api.encode")
	for i := 0; i < n; i++ {
		if _, err = json.Marshal(req); err != nil {
			break
		}
	}
	end()
	if err != nil {
		return err
	}
	_, end = tr.span(ctx, "api.decode")
	defer end()
	for i := 0; i < n; i++ {
		var resp api.PredictResponse
		if err := json.Unmarshal(respBody, &resp); err != nil {
			return err
		}
	}
	return nil
}

// ---- distributed fabric ----------------------------------------------------

// fabricSpec is a resolved campaign spec.
type fabricSpec struct{ spec api.CampaignSpec }

func newFabricSpec(c corpusConfig) (*fabricSpec, error) {
	spec, err := fabric.ResolveSpec(api.CampaignSpec{
		Scenario: c.Scenario, Scale: corpusScale(c.Small).String(), Seed: c.Seed,
		InjectionsPerFF: c.Injections, CampaignSeed: c.CampaignSeed, FaultModel: c.FaultModel,
	})
	if err != nil {
		return nil, err
	}
	return &fabricSpec{spec}, nil
}

// checkpointFingerprint loads a campaign checkpoint file and returns its
// canonical digest.
func checkpointFingerprint(path string) (uint64, error) {
	ck, err := fault.LoadCheckpoint(path)
	if err != nil {
		return 0, err
	}
	return ck.Fingerprint(), nil
}

// probeCheckpoint saves a finished campaign's checkpoint again and reloads it.
func probeCheckpoint(ctx context.Context, tr *tracer, path string) error {
	ck, err := fault.LoadCheckpoint(path)
	if err != nil {
		return err
	}
	_, end := tr.span(ctx, "fault.checkpoint_roundtrip")
	defer end()
	if err := fault.SaveCheckpoint(path+".copy", ck); err != nil {
		return err
	}
	back, err := fault.LoadCheckpoint(path + ".copy")
	if err != nil {
		return err
	}
	if back.Fingerprint() != ck.Fingerprint() {
		return fmt.Errorf("checkpoint round trip changed the fingerprint")
	}
	return nil
}

// rpcStats counts the coordinator's HTTP traffic.
type rpcStats struct {
	Calls, Bytes atomic.Int64
}

// countingHandler wraps the coordinator's handler to count requests and the
// bytes of their bodies in both directions.
func countingHandler(next http.Handler, st *rpcStats) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		st.Calls.Add(1)
		body := &countingReader{r: r.Body, n: &st.Bytes}
		r.Body = body
		next.ServeHTTP(&countingWriter{ResponseWriter: w, n: &st.Bytes}, r)
	})
}

type countingReader struct {
	r io.ReadCloser
	n *atomic.Int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}
func (c *countingReader) Close() error { return c.r.Close() }

type countingWriter struct {
	http.ResponseWriter
	n *atomic.Int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// tracedTransport journals one fabric.rpc.<op> span per worker request, under
// the worker's fabric.worker span.
type tracedTransport struct {
	ctx context.Context
	tr  *tracer
}

func (t tracedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	_, end := t.tr.span(t.ctx, "fabric.rpc."+filepath.Base(r.URL.Path))
	defer end()
	return http.DefaultTransport.RoundTrip(r)
}

// fabricRun is the outcome of one distributed campaign.
type fabricRun struct {
	Fingerprint uint64
	Result      *campaign
	RPCs, Bytes int64
}

// runFabric runs the spec through a coordinator (checkpointing to dir) and
// nWorkers single-threaded workers over loopback HTTP. It calls stage once the
// coordinator is listening and once the workers have returned.
func (fs *fabricSpec) runFabric(ctx context.Context, tr *tracer, dir string, nWorkers int, stage func()) (*fabricRun, error) {
	_, end := tr.span(ctx, "fabric.coordinator_build")
	coord, err := fabric.NewCoordinator(fabric.CoordinatorConfig{
		Spec: fs.spec, CheckpointPath: filepath.Join(dir, "merged.ckpt"),
	})
	end()
	if err != nil {
		return nil, err
	}
	var stats rpcStats
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: countingHandler(coord.Handler(), &stats)}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
	}()
	base := "http://" + ln.Addr().String()
	stage()

	errs := make([]error, nWorkers)
	var wg sync.WaitGroup
	for i := 0; i < nWorkers; i++ {
		wctx, endWorker := tr.span(ctx, "fabric.worker")
		hc := http.DefaultClient
		if tr != nil {
			hc = &http.Client{Transport: tracedTransport{ctx: wctx, tr: tr}}
		}
		w, err := fabric.NewWorker(fabric.WorkerConfig{
			Name:    fmt.Sprintf("worker-%d", i),
			Client:  fabric.NewClientHTTP(base, hc),
			Workers: 1,
		})
		if err != nil {
			endWorker()
			return nil, err
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer endWorker()
			errs[i] = w.Run(wctx)
		}(i)
	}
	wg.Wait()
	stage()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	_, end = tr.span(ctx, "fabric.wait")
	res, err := coord.Wait(ctx)
	end()
	if err != nil {
		return nil, err
	}
	fp, ok := coord.CheckpointFingerprint()
	if !ok {
		return nil, fmt.Errorf("coordinator finished without a checkpoint fingerprint")
	}
	return &fabricRun{
		Fingerprint: fp, Result: newCampaign(res),
		RPCs: stats.Calls.Load(), Bytes: stats.Bytes.Load(),
	}, nil
}
