package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/api"
	"repro/internal/cli"
)

// runLoad is the prediction-service load harness: it floods a running ffr
// serve with concurrent POST /v1/predict requests and reports throughput,
// latency percentiles and the error budget. 429 responses (admission
// control shedding load) are expected under overload and counted
// separately; any other non-2xx response fails the run, which is what makes
// the harness usable as a CI gate.
//
// -p99-slo turns the latency report into an assertion: when the measured
// p99 exceeds the bound the run fails, so smoke jobs catch serving
// regressions, not just availability failures.
//
// Vectors are generated from -seed against the model's advertised feature
// width, so runs are reproducible. The file-descriptor soft limit is raised
// automatically so ten thousand concurrent sockets fit in one process.
func runLoad(c *cli.Cmd) error {
	var (
		url         = c.Flags.String("url", "", "service base URL (e.g. http://127.0.0.1:8080)")
		model       = c.Flags.String("model", "", "model to predict against (default: first served model)")
		requests    = c.Flags.Int("requests", 10000, "total predict requests to issue")
		concurrency = c.Flags.Int("concurrency", 10000, "concurrent in-flight requests")
		batch       = c.Flags.Int("batch", 1, "vectors per request")
		seed        = c.Flags.Int64("seed", 1, "vector generation seed")
		timeout     = c.Flags.Duration("timeout", 30*time.Second, "per-request timeout")
		p99SLO      = c.Flags.Duration("p99-slo", 0, "fail the run when p99 latency exceeds this bound (0 = report only)")
		tel         = c.Telemetry(0)
	)
	if err := c.Parse(); err != nil {
		return err
	}
	if err := cli.Check(
		c.MinInt("requests", *requests, 1),
		c.MinInt("concurrency", *concurrency, 1),
		c.MinInt("batch", *batch, 1),
	); err != nil {
		return err
	}
	if *url == "" {
		return c.UsageErrorf("-url is required")
	}
	if *p99SLO < 0 {
		return c.UsageErrorf("-p99-slo must be >= 0 (got %s)", *p99SLO)
	}
	stop, err := tel.Start()
	if err != nil {
		return err
	}
	defer stop()
	if *concurrency > *requests {
		*concurrency = *requests
	}
	raiseFDLimit(uint64(*concurrency)*2 + 256)

	// One transport sized for the target concurrency: every in-flight
	// request gets a reusable connection instead of churning through
	// TIME_WAIT sockets.
	transport := &http.Transport{
		MaxIdleConns:        *concurrency,
		MaxIdleConnsPerHost: *concurrency,
		MaxConnsPerHost:     0,
		IdleConnTimeout:     90 * time.Second,
	}
	defer transport.CloseIdleConnections()
	client := api.NewClient(*url)
	client.HTTP = &http.Client{Transport: transport, Timeout: *timeout}

	name, width, err := resolveModel(client, *model)
	if err != nil {
		return err
	}
	c.Printf("load: targeting %s model %q (%d features): %d requests × %d vectors at concurrency %d\n",
		*url, name, width, *requests, *batch, *concurrency)

	var (
		next      atomic.Int64 // next request index to claim
		ok        atomic.Int64
		throttled atomic.Int64
		failed    atomic.Int64
		firstErr  atomic.Value // string: first unacceptable failure
	)
	latencies := make([]time.Duration, *requests) // slot per request, no lock
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < *concurrency; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + int64(g)))
			for {
				i := int(next.Add(1)) - 1
				if i >= *requests {
					return
				}
				req := api.PredictRequest{Model: name}
				if *batch == 1 {
					req.Vector = randVector(rng, width)
				} else {
					req.Vectors = make([][]float64, *batch)
					for j := range req.Vectors {
						req.Vectors[j] = randVector(rng, width)
					}
				}
				t0 := time.Now()
				_, err := client.Predict(req)
				latencies[i] = time.Since(t0)
				switch {
				case err == nil:
					ok.Add(1)
				case isThrottle(err):
					throttled.Add(1)
				default:
					failed.Add(1)
					firstErr.CompareAndSwap(nil, err.Error())
				}
			}
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start)

	p99 := loadReport(c, latencies, elapsed, ok.Load(), throttled.Load(), failed.Load())
	tel.Logger.Debug("run finished",
		"ok", ok.Load(), "throttled", throttled.Load(),
		"failed", failed.Load(), "p99", p99)
	if n := failed.Load(); n > 0 {
		msg, _ := firstErr.Load().(string)
		return fmt.Errorf("%d non-429 failures (first: %s)", n, msg)
	}
	if ok.Load() == 0 {
		return errors.New("every request was throttled; nothing was served")
	}
	if *p99SLO > 0 && p99 > *p99SLO {
		return fmt.Errorf("p99 latency %s exceeds the -p99-slo bound %s", p99, *p99SLO)
	}
	return nil
}

// resolveModel asks the service for its model list and returns the chosen
// model's name and feature width.
func resolveModel(c *api.Client, want string) (string, int, error) {
	resp, err := c.Models()
	if err != nil {
		return "", 0, fmt.Errorf("listing models: %w", err)
	}
	if len(resp.Models) == 0 {
		return "", 0, errors.New("service reports no models")
	}
	if want == "" {
		m := resp.Models[0]
		return m.Name, m.NumFeatures, nil
	}
	for _, m := range resp.Models {
		if m.Name == want {
			return m.Name, m.NumFeatures, nil
		}
	}
	return "", 0, fmt.Errorf("model %q not served (have %d models)", want, len(resp.Models))
}

func randVector(rng *rand.Rand, width int) []float64 {
	v := make([]float64, width)
	for i := range v {
		v[i] = rng.Float64()
	}
	return v
}

// isThrottle reports whether err is an admission-control rejection (HTTP
// 429), which the harness tolerates: shedding load politely under overload
// is correct behavior, not a failure.
func isThrottle(err error) bool {
	var apiErr *api.Error
	if errors.As(err, &apiErr) {
		return apiErr.Status == http.StatusTooManyRequests || apiErr.Code == api.CodeOverloaded
	}
	return false
}

// raiseFDLimit lifts the soft RLIMIT_NOFILE toward the hard limit so the
// harness can hold the requested number of sockets open at once. Failure is
// non-fatal: the run proceeds and surfaces socket errors if the limit bites.
func raiseFDLimit(want uint64) {
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
		return
	}
	if lim.Cur >= want {
		return
	}
	lim.Cur = want
	if lim.Cur > lim.Max {
		lim.Cur = lim.Max
	}
	syscall.Setrlimit(syscall.RLIMIT_NOFILE, &lim)
}

// loadReport prints the latency summary and returns the measured p99,
// which -p99-slo asserts against.
func loadReport(c *cli.Cmd, latencies []time.Duration, elapsed time.Duration, ok, throttled, failed int64) time.Duration {
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	pct := func(p float64) time.Duration {
		i := int(p * float64(len(latencies)-1))
		return latencies[i].Round(time.Microsecond)
	}
	total := ok + throttled + failed
	c.Printf("load: %d requests in %s (%.0f req/s)\n",
		total, elapsed.Round(time.Millisecond), float64(total)/elapsed.Seconds())
	c.Printf("load: ok %d, throttled(429) %d, failed %d\n", ok, throttled, failed)
	c.Printf("load: latency p50 %s  p90 %s  p99 %s  max %s\n",
		pct(0.50), pct(0.90), pct(0.99), pct(1.0))
	return pct(0.99)
}
