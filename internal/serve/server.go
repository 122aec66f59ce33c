package serve

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"sync"

	"repro/internal/api"
	"repro/internal/obs"
	"repro/internal/persist"
)

// MaxBatch bounds the vectors accepted in one predict request when
// Limits.MaxBatch is zero; larger workloads should be split client-side so
// no single request can pin the worker pool.
const MaxBatch = 65536

// DefaultCacheSize is the response-cache capacity when Cache.Size is zero.
const DefaultCacheSize = 4096

// DefaultQueueDepth is the per-model admission bound when
// Limits.QueueDepth is zero: the number of requests per model allowed in
// flight before the server answers 429.
const DefaultQueueDepth = 1024

// DefaultRetryAfterSeconds is the Retry-After hint on 429 responses when
// Limits.RetryAfterSeconds is zero.
const DefaultRetryAfterSeconds = 1

// PoolConfig sizes the shared evaluation worker pool.
type PoolConfig struct {
	// Workers bounds concurrent model evaluations across all in-flight
	// requests (0 = GOMAXPROCS).
	Workers int
}

// CacheConfig sizes the response cache.
type CacheConfig struct {
	// Size is the LRU response-cache capacity in vectors (0 = default
	// 4096, negative = caching disabled).
	Size int
}

// LimitConfig is the admission-control surface.
type LimitConfig struct {
	// MaxBatch bounds vectors per predict request (0 = MaxBatch const).
	MaxBatch int
	// QueueDepth bounds in-flight requests per model; request number
	// QueueDepth+1 is answered 429 + Retry-After (0 = DefaultQueueDepth,
	// negative = unbounded).
	QueueDepth int
	// RetryAfterSeconds is the Retry-After hint on 429 responses
	// (0 = DefaultRetryAfterSeconds).
	RetryAfterSeconds int
}

// Config parameterizes a Server.
type Config struct {
	// Registry is the model store to serve; nil creates an empty one.
	// Sharing a registry between servers (or with a background loader) is
	// safe.
	Registry *Registry
	// Pool sizes the evaluation worker pool.
	Pool PoolConfig
	// Cache sizes the prediction response cache.
	Cache CacheConfig
	// Limits is the admission-control configuration.
	Limits LimitConfig
	// Metrics optionally receives the serve metric families; nil creates a
	// private registry (still exported at /metrics).
	Metrics *obs.Registry
	// Logger optionally receives structured request logs; nil disables
	// logging.
	Logger *slog.Logger
}

// Server is the prediction service: a model registry behind HTTP handlers
// with response caching, per-model admission control, hot reload and a
// metrics endpoint. Safe for concurrent use: the registry is guarded, the
// cache is internally synchronized, and loaded models are only read.
type Server struct {
	reg    *Registry
	cache  *lruCache
	sem    chan struct{}
	limits LimitConfig

	admitMu sync.Mutex
	admit   map[string]chan struct{}

	obsReg  *obs.Registry
	metrics *metrics
	log     *slog.Logger
}

// New builds a server; load models with Add or LoadArtifact (or pass a
// pre-populated Registry).
func New(cfg Config) *Server {
	workers := cfg.Pool.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cacheSize := cfg.Cache.Size
	if cacheSize == 0 {
		cacheSize = DefaultCacheSize
	}
	if cacheSize < 0 {
		cacheSize = 0
	}
	limits := cfg.Limits
	if limits.MaxBatch <= 0 {
		limits.MaxBatch = MaxBatch
	}
	if limits.QueueDepth == 0 {
		limits.QueueDepth = DefaultQueueDepth
	}
	if limits.RetryAfterSeconds <= 0 {
		limits.RetryAfterSeconds = DefaultRetryAfterSeconds
	}
	reg := cfg.Registry
	if reg == nil {
		reg = NewRegistry()
	}
	obsReg := cfg.Metrics
	if obsReg == nil {
		obsReg = obs.NewRegistry()
	}
	return &Server{
		reg:     reg,
		cache:   newLRUCache(cacheSize),
		sem:     make(chan struct{}, workers),
		limits:  limits,
		admit:   make(map[string]chan struct{}),
		obsReg:  obsReg,
		metrics: newMetrics(obsReg),
		log:     obs.Component(cfg.Logger, "serve"),
	}
}

// Registry returns the server's model store.
func (s *Server) Registry() *Registry { return s.reg }

// Metrics returns the registry serving /metrics.
func (s *Server) Metrics() *obs.Registry { return s.obsReg }

// Add registers a loaded artifact under its model name.
func (s *Server) Add(a *persist.Artifact) error { return s.reg.Add(a) }

// LoadArtifact loads a persist artifact file and registers it with the
// path tracked for hot reload.
func (s *Server) LoadArtifact(path string) (*persist.Artifact, error) {
	return s.reg.AddFrom(path)
}

// NumModels reports the registered model count.
func (s *Server) NumModels() int { return s.reg.Len() }

// Models lists the registered artifacts in registration order.
func (s *Server) Models() []api.ModelInfo { return s.reg.Models() }

// ErrNoModels is returned by Ready when the server has nothing to serve.
var ErrNoModels = errors.New("serve: no models loaded")

// Ready validates the server can serve traffic (at least one model).
func (s *Server) Ready() error {
	if s.reg.Len() == 0 {
		return ErrNoModels
	}
	return nil
}

// Handler returns the service mux: the versioned prediction API, hot
// reload, health and metrics. Every API route runs under the trace
// middleware, so responses carry Ffr-Trace-Id and request logs are
// correlatable with client-side spans.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/predict", s.instrument("/v1/predict", s.handlePredict))
	mux.HandleFunc("GET /v1/models", s.instrument("/v1/models", s.handleModels))
	mux.HandleFunc("POST /v1/models/reload", s.instrument("/v1/models/reload", s.handleReload))
	mux.HandleFunc("POST /v1/harden", s.instrument("/v1/harden", s.handleHarden))
	mux.HandleFunc("GET /healthz", s.instrument("/healthz", s.handleHealthz))
	mux.Handle("GET /metrics", s.obsReg.Handler())
	return api.Traced(mux)
}

// instrument layers request metrics and structured request logging over a
// handler.
func (s *Server) instrument(path string, h http.HandlerFunc) http.HandlerFunc {
	return s.metrics.instrument(s.log, path, h)
}

// admission returns the bounded per-model slot channel.
func (s *Server) admission(model string) chan struct{} {
	s.admitMu.Lock()
	defer s.admitMu.Unlock()
	ch, ok := s.admit[model]
	if !ok {
		ch = make(chan struct{}, s.limits.QueueDepth)
		s.admit[model] = ch
	}
	return ch
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	var req api.PredictRequest
	if err := api.ReadJSON(r, w, 64<<20, &req); err != nil {
		api.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, "bad request body: %v", err)
		return
	}
	if req.Model == "" {
		api.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, "missing model name")
		return
	}
	single := req.Vector != nil
	if single == (req.Vectors != nil) {
		api.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, "provide exactly one of vector or vectors")
		return
	}
	a, ok := s.reg.Get(req.Model)
	if !ok {
		api.WriteError(w, http.StatusNotFound, api.CodeNotFound, "unknown model %q", req.Model)
		return
	}
	X := req.Vectors
	if single {
		X = [][]float64{req.Vector}
	}
	if len(X) == 0 {
		api.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, "empty batch")
		return
	}
	if len(X) > s.limits.MaxBatch {
		api.WriteError(w, http.StatusBadRequest, api.CodeBadRequest,
			"batch of %d vectors exceeds limit %d", len(X), s.limits.MaxBatch)
		return
	}
	for i, x := range X {
		if err := a.CheckVector(x); err != nil {
			api.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, "vector %d: %v", i, err)
			return
		}
	}

	// Per-model admission: a bounded number of requests may be in flight
	// per model; the rest are shed immediately with 429 + Retry-After so
	// overload degrades into fast, explicit backpressure instead of
	// unbounded queueing.
	if s.limits.QueueDepth > 0 {
		slots := s.admission(req.Model)
		select {
		case slots <- struct{}{}:
			defer func() { <-slots }()
		default:
			s.metrics.rejected.Inc()
			api.WriteOverloaded(w, s.limits.RetryAfterSeconds,
				"model %q has %d requests in flight", req.Model, cap(slots))
			return
		}
	}
	g := s.metrics.inflight.With(req.Model)
	g.Inc()
	defer g.Dec()

	preds, hits, err := s.predictBatch(a, X)
	if err != nil {
		api.WriteError(w, http.StatusInternalServerError, api.CodeInternal, "%v", err)
		return
	}
	// A finite vector can still be one the model cannot answer: features
	// near ±MaxFloat64 put every k-NN neighbour at +Inf and give 0/0.
	for i, p := range preds {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			api.WriteError(w, http.StatusBadRequest, api.CodeBadRequest,
				"vector %d: model %q predicts %v, which is not a number JSON can carry", i, a.Name, p)
			return
		}
	}
	resp := api.PredictResponse{Model: a.Name, Predictions: preds, CacheHits: hits}
	if single {
		resp.Prediction = &preds[0]
	}
	api.WriteJSON(w, http.StatusOK, resp)
}

// predictBatch serves each vector from the cache when possible and runs the
// misses in parallel on the shared worker pool. Cache keys include the
// artifact fingerprint, so a hot-reloaded model can never serve
// predictions cached from its predecessor. A panicking model (e.g. an
// artifact whose payload was trained on a different width than its header
// claims) is contained: evaluation recovers, the request fails with an
// error, and the server keeps serving — net/http's per-connection recover
// would not cover the pool goroutines.
func (s *Server) predictBatch(a *persist.Artifact, X [][]float64) (preds []float64, hits int, err error) {
	fp := a.Fingerprint()
	out := make([]float64, len(X))
	keys := make([]string, len(X))
	var misses []int
	for i, x := range X {
		keys[i] = cacheKey(a.Name, fp, x)
		if v, ok := s.cache.get(keys[i]); ok {
			out[i] = v
		} else {
			misses = append(misses, i)
		}
	}
	s.metrics.cacheHits.Add(float64(len(X) - len(misses)))
	s.metrics.cacheMisses.Add(float64(len(misses)))

	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	for _, i := range misses {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.sem <- struct{}{}
			v, perr := safePredict(a, X[i])
			<-s.sem
			out[i] = v
			if perr != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = perr
				}
				errMu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, 0, firstErr
	}
	for _, i := range misses {
		s.cache.put(keys[i], out[i])
	}
	return out, len(X) - len(misses), nil
}

// safePredict evaluates one vector with panic containment.
func safePredict(a *persist.Artifact, x []float64) (v float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("model %q failed to evaluate: %v", a.Name, r)
		}
	}()
	return a.Model.Predict(x), nil
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	api.WriteJSON(w, http.StatusOK, api.ModelsResponse{Models: s.reg.Models()})
}

// handleReload hot-swaps file-backed artifacts without draining traffic:
// in-flight predictions finish against the artifact pointer they resolved;
// new requests see the fresh artifact (and, through fingerprinted cache
// keys, never a stale cached prediction).
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	var req api.ReloadRequest
	// An empty body means "reload everything".
	if err := api.ReadJSON(r, w, 1<<20, &req); err != nil && !errors.Is(err, io.EOF) {
		api.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, "bad request body: %v", err)
		return
	}
	resp := s.reg.Reload(req.Models)
	s.metrics.reloads.Add(float64(resp.Reloaded))
	api.WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	n := s.reg.Len()
	if n == 0 {
		api.WriteError(w, http.StatusServiceUnavailable, api.CodeUnavailable, "no models loaded")
		return
	}
	api.WriteJSON(w, http.StatusOK, api.HealthResponse{Status: "ok", Models: n, Cached: s.cache.len()})
}
