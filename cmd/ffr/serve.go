package main

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/cli"
	"repro/internal/serve"
)

// stringList collects a repeatable flag.
type stringList []string

func (l *stringList) String() string { return strings.Join(*l, ",") }

func (l *stringList) Set(v string) error {
	if v == "" {
		return fmt.Errorf("empty path")
	}
	*l = append(*l, v)
	return nil
}

// runServe is the FFR prediction service: it loads trained model artifacts
// (written by ffr train -save or ffr corpus -sweep -out) and serves
// predictions over HTTP, so the expensive train-once path never has to run
// in the serving path.
//
// Endpoints: POST /v1/predict (single + batch, cached), POST
// /v1/harden, POST /v1/models/reload (hot-swap artifacts without drain),
// GET /v1/models, GET /healthz, GET /metrics (Prometheus text format).
// Overload is shed per model with 429 + Retry-After. Cancellation drains
// in-flight requests before returning.
func runServe(c *cli.Cmd) error {
	var models stringList
	var (
		addr       = c.Flags.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
		workers    = c.Flags.Int("workers", 0, "concurrent model evaluations across all requests (0 = GOMAXPROCS)")
		cache      = c.Flags.Int("cache", 0, "LRU response cache capacity in vectors (0 = default 4096, negative disables)")
		queue      = c.Flags.Int("queue", 0, "per-model in-flight request bound before 429 (0 = default 1024, negative = unbounded)")
		retryAfter = c.Flags.Int("retry-after", 0, "Retry-After seconds on 429 responses (0 = default 1)")
		tel        = c.Telemetry(cli.Profile)
	)
	c.Flags.Var(&models, "model", "model artifact file to serve (repeatable)")
	if err := c.Parse(); err != nil {
		return err
	}
	if err := cli.Check(
		c.MinInt("workers", *workers, 0),
		c.MinInt("retry-after", *retryAfter, 0),
	); err != nil {
		return err
	}
	if len(models) == 0 {
		return c.UsageErrorf("at least one -model artifact is required")
	}
	stop, err := tel.Start()
	if err != nil {
		return err
	}
	defer stop()

	srv := serve.New(serve.Config{
		Pool:   serve.PoolConfig{Workers: *workers},
		Cache:  serve.CacheConfig{Size: *cache},
		Limits: serve.LimitConfig{QueueDepth: *queue, RetryAfterSeconds: *retryAfter},
		Logger: tel.Logger,
	})
	for _, path := range models {
		a, err := srv.LoadArtifact(path)
		if err != nil {
			return err
		}
		c.Printf("loaded %q (%s, %d features, trained on %d rows) from %s\n",
			a.Name, a.Kind, a.NumFeatures(), a.TrainRows, path)
	}
	if err := srv.Ready(); err != nil {
		return err
	}
	return c.Serve(*addr, srv.Handler(), fmt.Sprintf(" (%d models)", srv.NumModels()),
		func(ctx context.Context) error {
			<-ctx.Done()
			fmt.Fprintln(c.Stderr, "serve: shutting down")
			return nil
		})
}
