package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// workloadNames lists the workloads in the order "all" runs them.
var workloadNames = []string{"mac-estimate", "corpus-models", "ml-protocol", "fabric-2w", "serve-predict"}

// gatedWorkloads are the ones BENCHMARK.json lists, which the driver runs and
// holds to the bounds. serve-predict is measured and recorded like the others
// but not gated: a request over loopback is two thread wake-ups, each as long
// as the host takes to schedule a halted vCPU, and ten 36-second runs of
// identical code spread over 18 % of their median (26 % before calibration)
// where the gated four stay within 3-8 %.
var gatedWorkloads = workloadNames[:4]

// workload is one set of inputs and the flow that consumes them. The harness
// calls setup (several times, the last one's state is used), then rep until
// the time budget is spent, probe on the traced pass only, then verify.
type workload interface {
	// setup builds everything the timed flow needs; it replaces any state a
	// previous setup left.
	setup(ctx context.Context, e *env) error
	// rep runs one repetition; its measured section goes through e.timed.
	rep(ctx context.Context, e *env, i int) error
	// probe exercises single layers the flow cannot isolate.
	probe(ctx context.Context, e *env) error
	// verify runs the output checks that need the whole run.
	verify(ctx context.Context, e *env) error
	// layers fills the per-layer metrics from the traced pass's spans.
	layers(e *env, s *spanSet, out map[string]float64)
	// close releases what setup acquired.
	close()
}

func newWorkload(name string) workload {
	switch name {
	case "mac-estimate":
		return &macEstimate{}
	case "corpus-models":
		return &corpusModels{}
	case "ml-protocol":
		return &mlProtocol{}
	case "serve-predict":
		return &servePredict{}
	case "fabric-2w":
		return &fabric2w{}
	}
	panic("unknown workload " + name)
}

// sizes scales the workloads: full for measurement, small for the smoke test.
type sizes struct {
	// macInjections is the per-FF budget of the MAC campaigns (the paper's 170).
	macInjections int
	// budgetDiv sets the planner's flip-flop budget to 1/budgetDiv of the
	// circuit; 2 matches the estimate stage's 50 % training half.
	budgetDiv int
	// datasetInjections is the per-FF budget of the campaign that only
	// prepares a dataset for ml-protocol and serve-predict.
	datasetInjections int
	// corpusInjections is the per-FF budget of each corpus-models campaign.
	corpusInjections int
	// small selects the corpus's small scale and the quickstart-scale MAC.
	small    bool
	protocol protocolSize
	// requests is the request count of one serve-predict pass.
	requests int
	// probeRows bounds the rows the per-model fit probes train on (0 = half).
	probeRows int
	// kernelPasses is how often the simulator probe replays the stimulus.
	kernelPasses int
	// Set-up runs at least setupReps times, and on (up to five times that)
	// until it has used setupSeconds; a run has at least minReps repetitions.
	setupReps, minReps int
	setupSeconds       float64
}

var fullSize = sizes{
	macInjections:     32,
	budgetDiv:         2,
	datasetInjections: 24,
	corpusInjections:  24,
	protocol: protocolSize{
		Models: modelNames, Splits: 1,
		CurveFracs: []float64{0.1, 0.3, 0.5, 0.7, 0.9}, CurveFolds: 2,
		TuneSamples: 3,
	},
	requests:     2000,
	kernelPasses: 40,
	setupReps:    3,
	minReps:      3,
	setupSeconds: 1.5,
}

var smallSize = sizes{
	macInjections:     8,
	budgetDiv:         8,
	datasetInjections: 8,
	corpusInjections:  8,
	small:             true,
	protocol: protocolSize{
		Models: []string{"lls", "knn", "tree"}, Splits: 1,
		CurveFracs: []float64{0.2, 0.8}, CurveFolds: 2,
		TuneSamples: 2,
	},
	requests:     200,
	probeRows:    120,
	kernelPasses: 2,
	setupReps:    1,
	minReps:      1,
}

// campaignSeed derives the injection-sampling seed; seed 1 gives the paper's 2019.
func campaignSeed(seed int64) int64 { return 2018 + seed }

// sameCounts reports whether two campaigns agree on the given flip-flops.
func sameCounts(a, b *campaign, ffs []int) bool {
	for _, ff := range ffs {
		if a.Failures[ff] != b.Failures[ff] || a.Injections[ff] != b.Injections[ff] {
			return false
		}
	}
	return true
}

// campaignCounts fills the fault.* counters of one campaign (or a sum of them).
func campaignCounts(out map[string]float64, c *campaign, seconds float64) {
	out["fault.injections"] = float64(c.Runs)
	out["fault.batches"] = float64(c.Batches)
	out["fault.sim_cycles"] = float64(c.SimCycles)
	out["fault.replay_cycles"] = float64(c.ReplayCycles)
	if c.ReplayCycles > 0 {
		out["fault.cycle_skip_ratio"] = 1 - float64(c.SimCycles)/float64(c.ReplayCycles)
	}
	if c.Runs > 0 {
		out["fault.ns_per_injection"] = seconds * 1e9 / float64(c.Runs)
	}
}

// frontEndLayers fills the front-end metrics from the probe's spans.
func frontEndLayers(s *spanSet, out map[string]float64) {
	out["circuit.generate_synth_s"] = s.sum("circuit.generate_synth")
	out["corpus.materialize_s"] = s.sum("corpus.materialize")
	out["sim.compile_s"] = s.sum("sim.compile")
	out["sim.kernel_build_s"] = s.sum("sim.kernel_build")
	out["sim.golden_s"] = s.sum("sim.golden")
	out["features.extract_s"] = s.sum("features.extract")
}

// ---- mac-estimate ----------------------------------------------------------

// macEstimate is the paper's Fig. 1 flow on the 1054-FF MAC: the full
// ground-truth campaign, the 50 % partial campaign + k-NN estimate of the rest,
// and the committee planner to the same flip-flop budget.
type macEstimate struct {
	st       *study
	truth    *campaign
	r2       float64
	adaptive *adaptiveResult
	kernel   *kernelProbe
	snapshot int
}

func (w *macEstimate) setup(ctx context.Context, e *env) error {
	st, err := newMACStudy(ctx, e.tr, e.size.small, e.size.macInjections, campaignSeed(e.seed), e.workers)
	*w = macEstimate{st: st}
	return err
}

func (w *macEstimate) rep(ctx context.Context, e *env, i int) error {
	return e.timed(ctx, func(ctx context.Context) error {
		first := w.truth == nil
		truth, err := w.st.groundTruth(ctx, e.tr)
		if err != nil {
			return err
		}
		e.lap()
		e.check(first || slices.Equal(truth.Failures, w.truth.Failures), "full campaign %d differs from the first", i)
		w.truth = truth

		ectx, end := e.tr.span(ctx, "bench.estimate")
		train, test, err := stratifiedSplit(ectx, e.tr, truth.FDR, e.seed)
		if err != nil {
			return err
		}
		part, err := w.st.partial(ectx, e.tr, train)
		if err != nil {
			return err
		}
		trX, trY := gather(w.st.rows(), part.FDR, train)
		teX, teY := gather(w.st.rows(), truth.FDR, test)
		model, err := fit(ectx, e.tr, "knn", trX, trY)
		if err != nil {
			return err
		}
		pred := model.predict(ectx, e.tr, teX)
		end()
		e.lap()
		e.check(sameCounts(part, truth, train), "partial campaign counts differ from the ground truth's")
		score := r2(teY, pred)
		e.check(first || score == w.r2, "estimate R² %v differs from the first repetition's %v", score, w.r2)
		w.r2 = score

		budget := w.st.numFFs() / e.size.budgetDiv
		ad, err := w.st.adaptive(ctx, e.tr, e.seed, budget, e.lap)
		if err != nil {
			return err
		}
		e.check(ad.Measured > 0 && ad.Measured <= budget && len(ad.Estimates) == w.st.numFFs(),
			"planner measured %d flip-flops of a budget of %d", ad.Measured, budget)
		e.check(first || ad.FFR == w.adaptive.FFR, "planner FFR %v differs from the first repetition's", ad.FFR)
		w.adaptive = ad
		return nil
	})
}

func (w *macEstimate) probe(ctx context.Context, e *env) error {
	var err error
	if w.snapshot, err = probeFrontEnd(ctx, e.tr, "mac10ge/loopback", e.size.small, e.seed); err != nil {
		return err
	}
	w.st.probePlan(ctx, e.tr)
	w.kernel, err = w.st.probeKernel(ctx, e.tr, e.size.kernelPasses)
	return err
}

func (w *macEstimate) verify(ctx context.Context, e *env) error {
	e.check(w.r2 > 0 && w.r2 <= 1, "estimate R² %v is not in (0,1]", w.r2)
	e.digests["golden_trace"] = fmt.Sprintf("%016x", w.st.goldenFingerprint())
	e.digests["failures"] = digest(w.truth.Failures, w.truth.Injections)
	e.digests["estimate_r2"] = fmt.Sprintf("%.9f", w.r2)
	return nil
}

func (w *macEstimate) layers(e *env, s *spanSet, out map[string]float64) {
	frontEndLayers(s, out)
	out["core.study_build_s"] = s.sum("core.study_build")
	out["fault.plan_s"] = s.sum("fault.plan")
	full := median(s.perRep("fault.campaign"))
	out["fault.campaign_s"] = full
	// plan.adaptive's own partial campaigns are inside the planner, unseen from
	// here, so fault.partial_campaign spans are the estimate stage's alone.
	out["fault.partial_campaign_s"] = median(s.perRep("fault.partial_campaign"))
	campaignCounts(out, w.truth, full)
	out["ml.split_s"] = median(s.perRep("ml.split"))
	out["ml.fit_s.knn"] = median(s.perRep("ml.fit.knn"))
	out["ml.predict_s.knn"] = median(s.perRep("ml.predict.knn"))
	out["bench.estimate_s"] = median(s.perRep("bench.estimate"))
	out["bench.adaptive_estimate_s"] = median(s.perRep("plan.adaptive"))
	out["bench.estimate_r2"] = w.r2
	out["plan.rounds"] = float64(w.adaptive.Rounds)
	out["plan.ffs_measured"] = float64(w.adaptive.Measured)
	out["plan.round_s"] = median(s.durations("plan.round"))
	out["plan.overhead_s"] = out["bench.adaptive_estimate_s"] - out["bench.estimate_s"]
	out["sim.ns_per_lane_cycle"] = w.kernel.Seconds * 1e9 / float64(w.kernel.LaneCycles)
	out["sim.gate_evals_per_s"] = float64(w.kernel.KernelOps) * float64(w.kernel.LaneCycles) / w.kernel.Seconds
	out["sim.kernel_ops"] = float64(w.kernel.KernelOps)
	out["sim.kernel_op_ratio"] = float64(w.kernel.KernelOps) / float64(w.kernel.ProgramOps)
	out["sim.snapshot_bytes"] = float64(w.snapshot)
}

func (w *macEstimate) close() {}

// ---- corpus-models ---------------------------------------------------------

// corpusFaultModels are the fault models every corpus scenario is swept under.
var corpusFaultModels = []string{"seu", "mbu:3", "stuck0:8", "stuck1:4@0.25-0.75"}

// corpusModels sweeps the seven non-MAC corpus scenarios under four fault
// models, each campaign on a freshly built study: 28 short campaigns whose
// fixed costs are a fifth of the wall, and the non-SEU execution path.
type corpusModels struct {
	// ref holds the set-up pass's digest per "scenario model".
	ref   map[string]string
	total campaign // summed counters of the last pass
}

// pass runs the 28 campaigns once and returns each one's digest.
func (w *corpusModels) pass(ctx context.Context, e *env) (map[string]string, error) {
	out := map[string]string{}
	w.total = campaign{}
	for _, sc := range corpusScenarios() {
		for _, model := range corpusFaultModels {
			st, err := newCorpusStudy(ctx, e.tr, corpusConfig{
				Scenario: sc, FaultModel: model, Small: e.size.small,
				Seed: e.seed, CampaignSeed: campaignSeed(e.seed),
				Injections: e.size.corpusInjections, Workers: e.workers,
			})
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", sc, model, err)
			}
			e.lap()
			c, err := st.groundTruth(ctx, e.tr)
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", sc, model, err)
			}
			e.lap()
			out[sc+" "+model] = digest(c.Failures, c.Injections)
			w.total.Runs += c.Runs
			w.total.Batches += c.Batches
			w.total.SimCycles += c.SimCycles
			w.total.ReplayCycles += c.ReplayCycles
		}
	}
	return out, nil
}

// setup runs the reference pass the timed passes are compared with; it also
// fills the process-wide caches a long-lived process would have warm.
func (w *corpusModels) setup(ctx context.Context, e *env) error {
	ref, err := w.pass(ctx, e)
	w.ref = ref
	return err
}

func (w *corpusModels) rep(ctx context.Context, e *env, i int) error {
	var got map[string]string
	err := e.timed(ctx, func(ctx context.Context) (err error) {
		got, err = w.pass(ctx, e)
		return err
	})
	if err != nil {
		return err
	}
	for key, want := range w.ref {
		e.check(got[key] == want, "pass %d: campaign %q counts differ from the reference pass", i, key)
	}
	return nil
}

func (w *corpusModels) probe(ctx context.Context, e *env) error {
	for _, sc := range corpusScenarios() {
		if _, err := probeFrontEnd(ctx, e.tr, sc, e.size.small, e.seed); err != nil {
			return fmt.Errorf("%s: %w", sc, err)
		}
	}
	return nil
}

func (w *corpusModels) verify(ctx context.Context, e *env) error {
	keys := make([]string, 0, len(w.ref))
	for k := range w.ref {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var all strings.Builder
	for _, k := range keys {
		all.WriteString(k + "=" + w.ref[k] + ";")
	}
	e.digests["failures"] = digestBytes([]byte(all.String()))
	return nil
}

func (w *corpusModels) layers(e *env, s *spanSet, out map[string]float64) {
	frontEndLayers(s, out)
	out["core.study_build_s"] = median(s.perRep("core.study_build"))
	campaigns := median(s.perRep("fault.campaign"))
	out["fault.campaign_s"] = campaigns
	campaignCounts(out, &w.total, campaigns)
}

func (w *corpusModels) close() {}

// ---- ml-protocol -----------------------------------------------------------

// mlProtocol is Section IV-B on a fixed dataset: Table I over all seven models,
// the k-NN learning curve and the k-NN hyperparameter search. The simulator
// does nothing in the timed section.
type mlProtocol struct {
	st     *study
	scores []float64
}

func (w *mlProtocol) setup(ctx context.Context, e *env) error {
	st, err := newMACStudy(ctx, e.tr, e.size.small, e.size.datasetInjections, campaignSeed(e.seed), e.workers)
	if err != nil {
		return err
	}
	*w = mlProtocol{st: st}
	_, err = st.groundTruth(ctx, e.tr)
	return err
}

func (w *mlProtocol) rep(ctx context.Context, e *env, i int) error {
	return e.timed(ctx, func(ctx context.Context) error {
		scores, err := w.st.protocol(ctx, e.tr, e.size.protocol, e.seed, e.lap)
		if err != nil {
			return err
		}
		ok := w.scores == nil || len(scores) == len(w.scores)
		for k := range scores {
			ok = ok && !math.IsNaN(scores[k]) && (w.scores == nil || scores[k] == w.scores[k])
		}
		e.check(ok, "protocol scores of repetition %d differ from the first", i)
		w.scores = scores
		return nil
	})
}

// probe fits and evaluates each model once on one 50 % split.
func (w *mlProtocol) probe(ctx context.Context, e *env) error {
	y, err := w.st.truth()
	if err != nil {
		return err
	}
	train, test, err := stratifiedSplit(ctx, e.tr, y, e.seed)
	if err != nil {
		return err
	}
	if n := e.size.probeRows; n > 0 && n < len(train) {
		train, test = train[:n], test[:n]
	}
	trX, trY := gather(w.st.rows(), y, train)
	teX, _ := gather(w.st.rows(), y, test)
	for _, name := range modelNames {
		m, err := fit(ctx, e.tr, name, trX, trY)
		if err != nil {
			return err
		}
		pred := m.predict(ctx, e.tr, teX)
		ok := len(pred) == len(teX)
		for _, v := range pred {
			ok = ok && !math.IsNaN(v)
		}
		e.check(ok, "%s predicts NaN on the probe split", name)
	}
	return nil
}

func (w *mlProtocol) verify(ctx context.Context, e *env) error {
	// Table I rows are (MAE, RMSE, R²) per model; k-NN is the second model.
	knnR2 := w.scores[5]
	e.check(knnR2 > 0 && knnR2 <= 1, "Table I k-NN R² %v is not in (0,1]", knnR2)
	e.digests["golden_trace"] = fmt.Sprintf("%016x", w.st.goldenFingerprint())
	e.digests["failures"] = digest(w.st.truthCampaign().Failures)
	e.digests["table1_knn_r2"] = fmt.Sprintf("%.9f", knnR2)
	return nil
}

func (w *mlProtocol) layers(e *env, s *spanSet, out map[string]float64) {
	out["core.study_build_s"] = s.sum("core.study_build")
	out["fault.campaign_s"] = s.sum("fault.campaign")
	out["ml.split_s"] = s.sum("ml.split")
	out["ml.table1_s"] = median(s.perRep("ml.table1"))
	out["ml.learning_curve_s"] = median(s.perRep("ml.learning_curve"))
	out["ml.tune_s"] = median(s.perRep("ml.tune"))
	for _, m := range modelNames {
		out["ml.fit_s."+m] = s.sum("ml.fit." + m)
		out["ml.predict_s."+m] = s.sum("ml.predict." + m)
	}
}

func (w *mlProtocol) close() {}

// ---- serve-predict ---------------------------------------------------------

// Request mix of serve-predict.
const (
	hotRows       = 64 // size of the hot set, whose vectors hit the response cache
	passRounds    = 20 // laps of a pass: the clients meet after every 1/20 of the requests
	batchVectors  = 64 // vectors in a batch request
	batchPercent  = 10 // share of requests that are batches
	verifyOneIn   = 8  // share of requests whose freshly perturbed vectors are re-evaluated directly
	handlerProbeN = 2000
	wireProbeN    = 200
)

// servePredict is a closed loop of campaignWorkers() clients posting a fixed number
// of /v1/predict requests per pass to an in-process server on a loopback
// socket: 90 % single vectors, 10 % batches of 64; half of all vectors come
// from a 64-row hot set (cache hits), half are freshly perturbed (misses).
type servePredict struct {
	st   *study
	svc  *predictService
	rows [][]float64
	hot  [][]float64
	// hotWant[model][k] is the direct prediction for hot row k.
	hotWant map[string][]float64

	vectors, hits, coalesced, shed int
	requests                       int
	wall                           float64
	latencies                      []float64 // seconds, one per request
}

// request is one generated /v1/predict call and where its vectors came from.
type request struct {
	model   string
	vectors [][]float64
	// hotIdx[k] is the hot-set index of vector k, or -1 for a fresh one.
	hotIdx []int
	reply  predictReply
	err    error
	took   time.Duration
}

func (w *servePredict) setup(ctx context.Context, e *env) error {
	w.close()
	st, err := newMACStudy(ctx, e.tr, e.size.small, e.size.datasetInjections, campaignSeed(e.seed), e.workers)
	if err != nil {
		return err
	}
	truth, err := st.groundTruth(ctx, e.tr)
	if err != nil {
		return err
	}
	dir := filepath.Join(e.dir, "artifacts")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	svc, err := startPredictService(ctx, e.tr, dir, st.rows(), truth.FDR, e.workers)
	if err != nil {
		return err
	}
	*w = servePredict{st: st, svc: svc, rows: st.rows(), hotWant: map[string][]float64{}}
	rng := rand.New(rand.NewSource(e.seed))
	for _, k := range rng.Perm(len(w.rows))[:hotRows] {
		w.hot = append(w.hot, w.rows[k])
	}
	for _, m := range servedModels {
		for _, x := range w.hot {
			w.hotWant[m] = append(w.hotWant[m], svc.directPredict(m, x))
		}
	}
	return nil
}

// generate draws pass i's request stream from the seed. Every pass has the
// same shape (which model, single or batch, hot row or fresh vector of which
// dataset row), so that a lap is the same work in every pass; what differs
// from pass to pass is the perturbation of the fresh vectors, which keeps them
// cache misses.
func (w *servePredict) generate(e *env, i int) []*request {
	rng := rand.New(rand.NewSource(e.seed))
	noise := rand.New(rand.NewSource(e.seed*1_000_003 + int64(i)))
	reqs := make([]*request, e.size.requests)
	for r := range reqs {
		req := &request{model: servedModels[rng.Intn(len(servedModels))]}
		n := 1
		if rng.Intn(100) < batchPercent {
			n = batchVectors
		}
		for k := 0; k < n; k++ {
			if rng.Intn(2) == 0 {
				h := rng.Intn(len(w.hot))
				req.vectors = append(req.vectors, w.hot[h])
				req.hotIdx = append(req.hotIdx, h)
				continue
			}
			x := append([]float64(nil), w.rows[rng.Intn(len(w.rows))]...)
			for j := range x {
				x[j] += 1e-3 * noise.NormFloat64()
			}
			req.vectors = append(req.vectors, x)
			req.hotIdx = append(req.hotIdx, -1)
		}
		reqs[r] = req
	}
	return reqs
}

func (w *servePredict) rep(ctx context.Context, e *env, i int) error {
	reqs := w.generate(e, i)
	clients := e.workers
	var wall time.Duration
	err := e.timed(ctx, func(ctx context.Context) error {
		_, end := e.tr.span(ctx, "serve.predict_pass")
		defer end()
		t0 := time.Now()
		for round := 0; round < passRounds; round++ {
			part := reqs[round*len(reqs)/passRounds : (round+1)*len(reqs)/passRounds]
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for r := c; r < len(part); r += clients {
						start := time.Now()
						part[r].reply, part[r].err = w.svc.predict(part[r].model, part[r].vectors)
						part[r].took = time.Since(start)
					}
				}(c)
			}
			wg.Wait()
			e.lap()
		}
		wall = time.Since(t0)
		return nil
	})
	if err != nil {
		return err
	}
	w.wall += wall.Seconds()
	w.requests += len(reqs)
	for r, req := range reqs {
		if req.reply.Shed {
			w.shed++
		}
		ok := req.err == nil && len(req.reply.Predictions) == len(req.vectors)
		for k := 0; ok && k < len(req.vectors); k++ {
			switch {
			case req.hotIdx[k] >= 0:
				ok = req.reply.Predictions[k] == w.hotWant[req.model][req.hotIdx[k]]
			case r%verifyOneIn == 0:
				ok = req.reply.Predictions[k] == w.svc.directPredict(req.model, req.vectors[k])
			}
		}
		e.check(ok, "pass %d request %d: response differs from direct Model.Predict (err %v)", i, r, req.err)
		w.vectors += len(req.vectors)
		w.hits += req.reply.Hits
		w.coalesced += req.reply.Coalesced
		w.latencies = append(w.latencies, req.took.Seconds())
	}
	return nil
}

func (w *servePredict) probe(ctx context.Context, e *env) error {
	if err := w.svc.probeHandler(ctx, e.tr, "knn", w.hot[0], handlerProbeN); err != nil {
		return err
	}
	batch := w.rows
	if len(batch) > batchVectors {
		batch = batch[:batchVectors]
	}
	return probeWire(ctx, e.tr, batch, wireProbeN)
}

func (w *servePredict) verify(ctx context.Context, e *env) error {
	e.check(w.shed == 0, "%d requests were shed with 429", w.shed)
	e.digests["golden_trace"] = fmt.Sprintf("%016x", w.st.goldenFingerprint())
	e.digests["failures"] = digest(w.st.truthCampaign().Failures)
	return nil
}

func (w *servePredict) layers(e *env, s *spanSet, out map[string]float64) {
	out["core.study_build_s"] = s.sum("core.study_build")
	out["fault.campaign_s"] = s.sum("fault.campaign")
	for _, m := range servedModels {
		out["ml.fit_s."+m] = s.sum("ml.fit." + m)
	}
	out["persist.save_s"] = s.sum("persist.save")
	out["persist.load_s"] = s.sum("persist.load")
	out["persist.artifact_bytes"] = float64(w.svc.ArtifactBytes)
	out["serve.handler_s"] = s.sum("serve.handler") / handlerProbeN
	out["api.encode_s"] = s.sum("api.encode") / wireProbeN
	out["api.decode_s"] = s.sum("api.decode") / wireProbeN
	out["serve.rps"] = float64(w.requests) / w.wall
	out["serve.p50_ms"] = 1e3 * quantile(w.latencies, 0.50)
	out["serve.p99_ms"] = 1e3 * quantile(w.latencies, 0.99)
	out["serve.cache_hit_ratio"] = float64(w.hits) / float64(w.vectors)
	out["serve.coalesced"] = float64(w.coalesced)
	out["serve.shed_429"] = float64(w.shed)
}

func (w *servePredict) close() {
	if w.svc != nil {
		w.svc.close()
		w.svc = nil
	}
}

// ---- fabric-2w -------------------------------------------------------------

// fabric2w runs the MAC ground-truth campaign through a coordinator with
// checkpointing on and two single-threaded workers over loopback HTTP. Its
// time minus the single-node campaign's is what the fabric adds.
type fabric2w struct {
	spec *fabricSpec
	// ref is the same campaign as a single-node checkpointed study.
	ref         *study
	refPath     string
	refResult   *campaign
	refChecksum uint64
	runs        []*fabricRun
}

func (w *fabric2w) setup(ctx context.Context, e *env) error {
	c := corpusConfig{
		Scenario: "mac10ge/loopback", Small: e.size.small,
		Seed: e.seed, CampaignSeed: campaignSeed(e.seed),
		Injections: e.size.macInjections, Workers: e.workers,
	}
	spec, err := newFabricSpec(c)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(e.dir, "reference-")
	if err != nil {
		return err
	}
	c.Checkpoint = filepath.Join(dir, "single.ckpt")
	c.Workers = 2 // the fabric's parallelism, so that the difference is what the fabric adds
	ref, err := newCorpusStudy(ctx, e.tr, c)
	*w = fabric2w{spec: spec, ref: ref, refPath: c.Checkpoint}
	return err
}

func (w *fabric2w) rep(ctx context.Context, e *env, i int) error {
	dir, err := os.MkdirTemp(e.dir, "fabric-")
	if err != nil {
		return err
	}
	return e.timed(ctx, func(ctx context.Context) error {
		run, err := w.spec.runFabric(ctx, e.tr, dir, 2, e.lap)
		if err != nil {
			return err
		}
		w.runs = append(w.runs, run)
		return nil
	})
}

// reference runs the single-node checkpointed campaign, once per set-up.
func (w *fabric2w) reference(ctx context.Context, e *env) (err error) {
	if w.refResult != nil {
		return nil
	}
	if w.refResult, err = w.ref.groundTruth(ctx, e.tr); err != nil {
		return err
	}
	w.refChecksum, err = checkpointFingerprint(w.refPath)
	return err
}

func (w *fabric2w) probe(ctx context.Context, e *env) error {
	if err := w.reference(ctx, e); err != nil {
		return err
	}
	return probeCheckpoint(ctx, e.tr, w.refPath)
}

func (w *fabric2w) verify(ctx context.Context, e *env) error {
	if err := w.reference(ctx, e); err != nil {
		return err
	}
	for i, run := range w.runs {
		e.check(run.Fingerprint == w.refChecksum,
			"fabric run %d: merged checkpoint fingerprint %016x, single-node %016x", i, run.Fingerprint, w.refChecksum)
		e.check(slices.Equal(run.Result.Failures, w.refResult.Failures),
			"fabric run %d: merged failure counts differ from the single-node campaign's", i)
	}
	e.digests["golden_trace"] = fmt.Sprintf("%016x", w.ref.goldenFingerprint())
	e.digests["failures"] = digest(w.refResult.Failures, w.refResult.Injections)
	e.digests["checkpoint"] = fmt.Sprintf("%016x", w.refChecksum)
	return nil
}

func (w *fabric2w) layers(e *env, s *spanSet, out map[string]float64) {
	single := s.sum("fault.campaign")
	out["fault.campaign_s"] = single
	campaignCounts(out, w.refResult, single)
	out["fault.checkpoint_roundtrip_s"] = s.sum("fault.checkpoint_roundtrip")
	out["core.study_build_s"] = s.sum("core.study_build")
	out["fabric.overhead_s"] = e.walls.steady() - single
	last := w.runs[len(w.runs)-1]
	out["fabric.rpcs"] = float64(last.RPCs)
	out["fabric.rpc_bytes"] = float64(last.Bytes)

	// Per worker: materialization is the gap from the join reply to the first
	// lease request; busy time is every gap from a lease reply to the next
	// chunk completion.
	var joins, busy []float64
	for i, r := range s.recs {
		if r.Name != "fabric.worker" {
			continue
		}
		var rpcs []spanRec
		for _, c := range s.children[s.recs[i].ID] {
			if name := s.recs[c].Name; name != "fabric.rpc.heartbeat" {
				rpcs = append(rpcs, s.recs[c])
			}
		}
		sort.Slice(rpcs, func(a, b int) bool { return rpcs[a].Start < rpcs[b].Start })
		var busyUS int64
		for k := 1; k < len(rpcs); k++ {
			gap := rpcs[k].Start - (rpcs[k-1].Start + rpcs[k-1].Dur)
			switch {
			case rpcs[k-1].Name == "fabric.rpc.join":
				joins = append(joins, float64(gap)/1e6)
			case rpcs[k-1].Name == "fabric.rpc.lease" && rpcs[k].Name == "fabric.rpc.complete":
				busyUS += gap
			}
		}
		if r.Dur > 0 {
			busy = append(busy, float64(busyUS)/float64(r.Dur))
		}
	}
	out["fabric.join_s"] = median(joins)
	out["fabric.worker_busy_frac"] = median(busy)
}

func (w *fabric2w) close() {}
