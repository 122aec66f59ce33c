# Local mirror of the CI pipeline (.github/workflows/ci.yml): every CI step
# is one of these targets, so local and CI invocations stay identical.
#
# `make test` is where the end-to-end checks live: the serve, corpus,
# fabric and harden smokes, interrupt-and-resume, flag misuse, the
# docs/CLI.md check and the /metrics lint are Go tests in cmd/ffr that drive
# the real commands in-process. The performance record is `go run ./bench`
# (BENCHMARK.json, bench/README.md).

GO ?= go

.PHONY: all build test race lint loc bench fuzz-smoke load-smoke

all: lint build test

# go build ./... compiles examples/ too; go vet (make lint) vets it.
build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

lint:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed:"; echo "$$unformatted"; exit 1; \
	fi

# The size metric ROADMAP and CHANGES.md quote: non-test Go lines outside
# bench/, per internal/ package tree and in all. CI prints it in every PR's
# log; it is a number to report, not a gate.
loc:
	@count() { find "$$@" -name '*.go' ! -name '*_test.go' ! -path './bench/*' -print0 | xargs -0 cat | wc -l; }; \
	for d in internal/*/; do printf '%7d %s\n' "$$(count $$d)" "$${d%/}"; done; \
	printf '%7d non-test Go lines outside bench/\n' "$$(count .)"

# Every micro-benchmark once, each beside the layer it measures, so a
# regression localizes below the workloads of ./bench: the simulator
# (BenchmarkKernelEval/Commit), the chunk executor (BenchmarkRunChunks per
# circuit and fault model, with ns/injection, sim-cycles/injection and lane
# occupancy; BenchmarkLease: an empty and a 2-chunk fabric lease on one
# prepared plan; BenchmarkWilsonInterval), feature extraction per circuit
# (BenchmarkExtract, ns/flip-flop), the front end phase by phase
# (BenchmarkMaterialize, ms per phase), the per-model fit/predict/tune
# benchmarks, artifact save/load and raw predict throughput, and one batch
# through the prediction service's HTTP stack.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./internal/sim ./internal/fault \
		./internal/features ./internal/corpus ./internal/core ./internal/persist ./internal/serve

# Ten seconds of each fuzz target, one `go test -fuzz` invocation apiece (the
# flag takes a single target). FuzzExtractMatchesReference is differential:
# netlist bytes the parser accepts must extract without a panic and to the
# bits of the reference extractor kept in internal/features/reference_test.go.
# The three decoder targets feed arbitrary bytes to the loaders of the
# on-disk formats (seeded from each package's testdata/): a typed error or a
# value that survives save -> load with its fingerprint, never a panic. The
# two parser targets hold the same for text: netlist.Parse (an error, or a
# netlist that Write -> Parse reproduces to the same Fingerprint) and
# fault.ParseModel (an error, or a model whose String parses back to itself).
# FuzzPredictRequest and FuzzHardenRequest post arbitrary bodies to the
# prediction service's /v1/predict and /v1/harden: a 200 with finite numbers
# or a 4xx error envelope, never a 5xx, an empty body or a panic.
# FuzzReloadRequest does the same to /v1/models/reload (a 200 with one result
# per requested model, or a 4xx envelope), and FuzzCoordinatorRequests to the
# fabric coordinator's four POST routes (join, lease, heartbeat, complete): a
# 200 that decodes to the route's response type or a 4xx envelope.
# FuzzNeighbors is differential: k-NN's bounded neighbour search must return
# the indices and distance bits of the full search kept in
# internal/ml/knn/equiv_test.go, whatever the rows, widths, NaNs and infinities.
# Minimizing each coverage-increasing input would eat the whole budget (60 s
# apiece by default), so it is capped at ten executions.
FUZZ = $(GO) test -run='^$$' -fuzztime=10s -fuzzminimizetime=10x
fuzz-smoke:
	$(FUZZ) -fuzz=FuzzExtractMatchesReference ./internal/features
	$(FUZZ) -fuzz=FuzzLoadCheckpoint ./internal/fault
	$(FUZZ) -fuzz=FuzzLoadLoopCheckpoint ./internal/plan
	$(FUZZ) -fuzz=FuzzLoadArtifact ./internal/persist
	$(FUZZ) -fuzz=FuzzParse ./internal/netlist
	$(FUZZ) -fuzz=FuzzParseModel ./internal/fault
	$(FUZZ) -fuzz=FuzzPredictRequest ./internal/serve
	$(FUZZ) -fuzz=FuzzHardenRequest ./internal/serve
	$(FUZZ) -fuzz=FuzzReloadRequest ./internal/serve
	$(FUZZ) -fuzz=FuzzCoordinatorRequests ./internal/fabric
	$(FUZZ) -fuzz=FuzzNeighbors ./internal/ml/knn

# Load-test parameters: LOAD_CONCURRENCY requests in flight at once until
# LOAD_REQUESTS have been issued. The harness exits nonzero on any non-429
# error, so this is the "survives ten thousand concurrent clients" gate.
# LOAD_P99_SLO additionally fails the run when p99 latency exceeds the
# bound — generous enough for shared CI runners, tight enough to catch a
# serving-path regression that queues requests for whole seconds.
LOAD_REQUESTS ?= 10000
LOAD_CONCURRENCY ?= 10000
LOAD_P99_SLO ?= 10s

# End-to-end overload smoke, the one check that needs real processes: the
# server's fd ceiling has to be lifted with ulimit before it starts (ffr
# load raises its own). Train a tiny artifact, serve it, and flood it with
# $(LOAD_CONCURRENCY) concurrent predict requests. Admission control may
# shed load with 429 + Retry-After; anything else non-2xx fails the run.
load-smoke:
	@set -e; \
	ulimit -n 65536 2>/dev/null || true; \
	tmp=$$(mktemp -d); \
	trap 'kill $$pid 2>/dev/null || true; rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/ffr ./cmd/ffr; \
	$$tmp/ffr train -model "k-NN" -n 2 -save $$tmp/knn.ffrm; \
	$$tmp/ffr serve -addr 127.0.0.1:18082 -model $$tmp/knn.ffrm & pid=$$!; \
	for i in $$(seq 1 50); do \
		curl -fsS http://127.0.0.1:18082/healthz >/dev/null 2>&1 && break; \
		kill -0 $$pid 2>/dev/null || { echo "ffr serve exited early"; exit 1; }; \
		sleep 0.2; \
	done; \
	$$tmp/ffr load -url http://127.0.0.1:18082 \
		-requests $(LOAD_REQUESTS) -concurrency $(LOAD_CONCURRENCY) \
		-p99-slo $(LOAD_P99_SLO); \
	curl -fsS http://127.0.0.1:18082/metrics | tee $$tmp/metrics.txt \
		| grep ffr_serve_requests_total; \
	sh scripts/metrics-lint.sh $$tmp/metrics.txt; \
	echo "load smoke OK"
