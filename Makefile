# Local mirror of the CI pipeline (.github/workflows/ci.yml): every CI step
# is one of these targets, so local and CI invocations stay identical.

GO ?= go

# Injection budget for the benchmark smoke run. The paper's 170/FF budget
# takes far too long for a smoke check; 2/FF exercises every code path.
FFR_INJECTIONS ?= 2

# Injection budget for the ffrserve smoke fixture: 2/FF trains a usable
# (if noisy) artifact in seconds.
SMOKE_INJECTIONS ?= 2
# A 25-zero feature vector (features.NumFeatures wide) for the smoke predict.
SMOKE_VECTOR := [0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]

# Campaign-benchmark baseline file (see bench-baseline).
BENCH_FILE ?= BENCH_7.json

# Hardening-acceptance record file (see harden-baseline) and the injection
# budget the harden smoke verifies with: 16/FF keeps the measured FDRs far
# enough from zero that the improved/within-2x verdicts are meaningful.
HARDEN_BENCH_FILE ?= BENCH_8.json
HARDEN_INJECTIONS ?= 16

.PHONY: all build examples test race lint doc-check metrics-lint bench bench-baseline serve-smoke corpus-smoke fabric-smoke load-smoke harden-smoke harden-baseline faultmodel-smoke

all: lint build examples test doc-check

build:
	$(GO) build ./...

examples:
	$(GO) build ./examples/...

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

# Documentation staleness gate: every flag a cmd/ binary defines must be
# documented in docs/CLI.md (and every documented command must exist).
doc-check:
	@sh scripts/doc-check.sh

# Telemetry exposition gate: train a tiny artifact, serve it, take one
# prediction, and lint the live /metrics exposition (well-formedness +
# ffr_ prefix; see scripts/metrics-lint.sh). The smoke targets addition-
# ally lint every exposition they already fetch.
metrics-lint:
	@set -e; \
	tmp=$$(mktemp -d); \
	trap 'kill $$pid 2>/dev/null || true; rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/ffrtrain ./cmd/ffrtrain; \
	$(GO) build -o $$tmp/ffrserve ./cmd/ffrserve; \
	$$tmp/ffrtrain -model "k-NN" -n $(SMOKE_INJECTIONS) -save $$tmp/knn.ffrm; \
	$$tmp/ffrserve -addr 127.0.0.1:18083 -model $$tmp/knn.ffrm & pid=$$!; \
	for i in $$(seq 1 50); do \
		curl -fsS http://127.0.0.1:18083/healthz >/dev/null 2>&1 && break; \
		kill -0 $$pid 2>/dev/null || { echo "ffrserve exited early"; exit 1; }; \
		sleep 0.2; \
	done; \
	curl -fsS -X POST -d '{"model":"k-NN","vector":$(SMOKE_VECTOR)}' \
		http://127.0.0.1:18083/v1/predict >/dev/null; \
	curl -fsS http://127.0.0.1:18083/metrics | sh scripts/metrics-lint.sh; \
	echo "metrics lint OK"

# BENCH_SKIP optionally excludes benchmarks by regex (go test -skip); CI
# uses it to avoid re-running the campaign benchmarks that bench-baseline
# records right after. Note BenchmarkFlatInjectionCampaign is a prefix of
# its Instrumented variant, so one pattern covers both. Besides the paper
# experiments of the root package the run covers the simulator and chunk-
# executor micro-benchmarks (BenchmarkKernelEval/Commit; BenchmarkRunChunks
# per circuit and fault model, with ns/injection, sim-cycles/injection and
# lane occupancy), BenchmarkExtract in
# internal/features and the per-model ones in internal/core
# (BenchmarkModelFit/Predict per Table I model, BenchmarkTuneKNN), so a
# cycle-loop, feature or training-loop regression localizes below the
# campaign and protocol level.
bench:
	FFR_INJECTIONS=$(FFR_INJECTIONS) $(GO) test -bench=. $(if $(BENCH_SKIP),-skip='$(BENCH_SKIP)') -benchtime=1x -run='^$$' . ./internal/sim ./internal/fault ./internal/features ./internal/core

# Record the campaign and active-learning benchmarks (the perf trajectory of
# the incremental engine plus the planner's budget-vs-quality headline) to
# $(BENCH_FILE) as `go test -json` events. The flat-campaign pattern also
# matches BenchmarkFlatInjectionCampaignInstrumented, so the baseline records
# the plain and telemetry-enabled campaign side by side — the instrumented
# variant reports its own overhead_pct metric and the two ns/op columns pin
# telemetry overhead under 2 %. The benchstat-compatible benchmark text is
# embedded in the Output events; extract it with:
#
#	jq -r 'select(.Action=="output").Output' BENCH_7.json | benchstat /dev/stdin
#
# replay_cycles/op beside sim_cycles/op is what replaying every batch from
# cycle 0 would have simulated (computed, not run).
bench-baseline:
	FFR_INJECTIONS=$(FFR_INJECTIONS) $(GO) test -json \
		-bench='BenchmarkFlatInjectionCampaign|BenchmarkCorpusSweep|BenchmarkAdaptivePlanner|BenchmarkAdaptiveCorpusPlanner' \
		-benchtime=1x -run='^$$' . > $(BENCH_FILE)
	@grep -F '"Output":"Benchmark' $(BENCH_FILE) >/dev/null || \
		{ echo "no benchmark results recorded in $(BENCH_FILE)"; exit 1; }
	@echo "recorded campaign benchmarks to $(BENCH_FILE)"

# Fault-model distinctness gate: the pinned fixed-seed run asserting that
# MBU/stuck-at campaigns do NOT reproduce the SEU failure profile and that
# a SET campaign is sized by combinational target (a threading bug that
# silently fell back to SEU would pass every equivalence check — only this
# cross-model comparison catches it).
faultmodel-smoke:
	$(GO) test -run 'TestFaultModelDistinctProfiles' -v ./internal/fault

# End-to-end service smoke: train a tiny k-NN artifact, serve it, and
# assert /healthz and one /v1/predict both return 200.
serve-smoke:
	@set -e; \
	tmp=$$(mktemp -d); \
	trap 'kill $$pid 2>/dev/null || true; rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/ffrtrain ./cmd/ffrtrain; \
	$(GO) build -o $$tmp/ffrserve ./cmd/ffrserve; \
	$$tmp/ffrtrain -model "k-NN" -n $(SMOKE_INJECTIONS) -save $$tmp/knn.ffrm; \
	$$tmp/ffrserve -addr 127.0.0.1:18080 -model $$tmp/knn.ffrm & pid=$$!; \
	for i in $$(seq 1 50); do \
		curl -fsS http://127.0.0.1:18080/healthz >/dev/null 2>&1 && break; \
		kill -0 $$pid 2>/dev/null || { echo "ffrserve exited early"; exit 1; }; \
		sleep 0.2; \
	done; \
	curl -fsS http://127.0.0.1:18080/healthz; echo; \
	curl -fsS -X POST -d '{"model":"k-NN","vector":$(SMOKE_VECTOR)}' \
		http://127.0.0.1:18080/v1/predict; echo; \
	echo "serve smoke OK"

# End-to-end corpus smoke: enumerate and validate every DUT family, sweep
# the whole corpus (tiny geometry) through generate→synthesize→simulate→
# inject→extract→train with per-scenario artifact saving, run one
# cross-circuit train/predict transfer matrix, then serve the swept
# artifacts and assert the scenario tags surface in /v1/models.
corpus-smoke:
	@set -e; \
	tmp=$$(mktemp -d); \
	trap 'kill $$pid 2>/dev/null || true; rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/ffrcorpus ./cmd/ffrcorpus; \
	$(GO) build -o $$tmp/ffrexp ./cmd/ffrexp; \
	$(GO) build -o $$tmp/ffrserve ./cmd/ffrserve; \
	$$tmp/ffrcorpus -list; \
	$$tmp/ffrcorpus -validate; \
	$$tmp/ffrcorpus -sweep -n $(SMOKE_INJECTIONS) -shards 4 -out $$tmp/artifacts; \
	$$tmp/ffrexp -exp cross -n $(SMOKE_INJECTIONS) \
		-scenarios alupipe/randomops,rrarb/uniform,uartser/paced; \
	$$tmp/ffrserve -addr 127.0.0.1:18081 \
		-model $$tmp/artifacts/alupipe-randomops.ffrm \
		-model $$tmp/artifacts/uartser-paced.ffrm & pid=$$!; \
	for i in $$(seq 1 50); do \
		curl -fsS http://127.0.0.1:18081/healthz >/dev/null 2>&1 && break; \
		kill -0 $$pid 2>/dev/null || { echo "ffrserve exited early"; exit 1; }; \
		sleep 0.2; \
	done; \
	curl -fsS http://127.0.0.1:18081/v1/models | tee $$tmp/models.json; echo; \
	grep -q '"circuit":"alupipe"' $$tmp/models.json; \
	grep -q '"workload":"paced"' $$tmp/models.json; \
	echo "corpus smoke OK"

# End-to-end distributed-campaign smoke: first the in-process example
# (which asserts the distributed checkpoint fingerprint equals the
# single-node reference and exits nonzero on mismatch), then the real
# binaries — ffrcoord serving the fabric protocol over TCP with two
# ffrwork processes racing for leases until the campaign completes.
# Both sides run with debug JSON logs and span journals; after the run
# the smoke asserts the telemetry is *correlated*: a trace ID minted by a
# worker's lease cycle must appear in the worker's span journal AND the
# coordinator's span journal AND the coordinator's log — one leased chunk,
# followable across processes. The coordinator's /metrics exposition is
# linted mid-campaign.
fabric-smoke:
	@set -e; \
	tmp=$$(mktemp -d); \
	trap 'kill $$cpid $$w1 $$w2 2>/dev/null || true; rm -rf $$tmp' EXIT; \
	$(GO) run ./examples/distributed; \
	$(GO) build -o $$tmp/ffrcoord ./cmd/ffrcoord; \
	$(GO) build -o $$tmp/ffrwork ./cmd/ffrwork; \
	$$tmp/ffrcoord -scenario random/noise -seed 11 -n 6 -campaign-seed 77 \
		-chunk 64 -addr 127.0.0.1:19090 -checkpoint $$tmp/fabric.ckpt \
		-log-level debug -log-format json -trace $$tmp/coord.spans \
		> $$tmp/coord.log 2>&1 & cpid=$$!; \
	for i in $$(seq 1 50); do \
		curl -fsS http://127.0.0.1:19090/healthz >/dev/null 2>&1 && break; \
		kill -0 $$cpid 2>/dev/null || { cat $$tmp/coord.log; echo "ffrcoord exited early"; exit 1; }; \
		sleep 0.2; \
	done; \
	curl -fsS http://127.0.0.1:19090/metrics | sh scripts/metrics-lint.sh; \
	$$tmp/ffrwork -coordinator http://127.0.0.1:19090 -name smoke-a \
		-log-level debug -log-format json -trace $$tmp/worker.spans \
		> $$tmp/worker.log 2>&1 & w1=$$!; \
	$$tmp/ffrwork -coordinator http://127.0.0.1:19090 -name smoke-b & w2=$$!; \
	wait $$w1; wait $$w2; wait $$cpid; \
	cat $$tmp/coord.log; \
	grep -q "campaign complete" $$tmp/coord.log; \
	tid=$$(grep '"name":"fabric.simulate"' $$tmp/worker.spans | head -1 \
		| sed 's/.*"trace_id":"\([0-9a-f]*\)".*/\1/'); \
	test -n "$$tid" || { echo "no fabric.simulate span in worker journal"; exit 1; }; \
	grep -q "$$tid" $$tmp/coord.spans || { echo "trace $$tid missing from coordinator span journal"; exit 1; }; \
	grep -q "$$tid" $$tmp/coord.log || { echo "trace $$tid missing from coordinator log"; exit 1; }; \
	grep -q "$$tid" $$tmp/worker.log || { echo "trace $$tid missing from worker log"; exit 1; }; \
	echo "correlated trace $$tid observed in both processes"; \
	echo "fabric smoke OK"

# End-to-end hardening smoke: train a per-scenario artifact, advise a 50%
# area-budget TMR plan, verify it by re-running the campaign on the
# TMR-rewritten netlist, and assert the two machine-readable verdicts —
# the measured residual FFR improved on the baseline and the prediction
# landed within 2x of the measurement. Then serve the same artifact and
# assert POST /v1/harden plans over HTTP with the ffr_harden_* families
# visible in a linted /metrics exposition.
harden-smoke:
	@set -e; \
	tmp=$$(mktemp -d); \
	trap 'kill $$pid 2>/dev/null || true; rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/ffrcorpus ./cmd/ffrcorpus; \
	$(GO) build -o $$tmp/ffrharden ./cmd/ffrharden; \
	$(GO) build -o $$tmp/ffrserve ./cmd/ffrserve; \
	$$tmp/ffrcorpus -sweep -scenario alupipe/randomops -n $(HARDEN_INJECTIONS) \
		-out $$tmp/artifacts; \
	$$tmp/ffrharden -load $$tmp/artifacts/alupipe-randomops.ffrm \
		-budget 0.5 -verify -n $(HARDEN_INJECTIONS) -csv $$tmp/plan.csv \
		| tee $$tmp/harden.out; \
	grep -q 'improved=true' $$tmp/harden.out; \
	grep -q 'predicted_within_2x=true' $$tmp/harden.out; \
	test -s $$tmp/plan.csv; \
	$$tmp/ffrserve -addr 127.0.0.1:18084 \
		-model $$tmp/artifacts/alupipe-randomops.ffrm & pid=$$!; \
	for i in $$(seq 1 50); do \
		curl -fsS http://127.0.0.1:18084/healthz >/dev/null 2>&1 && break; \
		kill -0 $$pid 2>/dev/null || { echo "ffrserve exited early"; exit 1; }; \
		sleep 0.2; \
	done; \
	curl -fsS -X POST -d '{"model":"k-NN@alupipe/randomops","budget":0.5}' \
		http://127.0.0.1:18084/v1/harden | tee $$tmp/harden.json; echo; \
	grep -q '"selected_ffs":\[' $$tmp/harden.json; \
	grep -q '"residual_ffr"' $$tmp/harden.json; \
	curl -fsS http://127.0.0.1:18084/metrics | tee $$tmp/metrics.txt \
		| grep -q 'ffr_harden_requests_total 1'; \
	sh scripts/metrics-lint.sh $$tmp/metrics.txt; \
	echo "harden smoke OK"

# Record the pinned hardening acceptance run (measured residual strictly
# below baseline at a 50% budget on two corpus scenarios, prediction
# within 2x of measurement) to $(HARDEN_BENCH_FILE) as `go test -json`
# events; CI uploads the file as an artifact next to BENCH_7.json.
harden-baseline:
	$(GO) test -json -run 'TestHardenAcceptance' -v ./internal/harden \
		> $(HARDEN_BENCH_FILE)
	@grep -q '"Action":"pass"' $(HARDEN_BENCH_FILE) || \
		{ echo "no passing acceptance runs recorded in $(HARDEN_BENCH_FILE)"; exit 1; }
	@grep -qF 'measured residual' $(HARDEN_BENCH_FILE) || \
		{ echo "no residual-FFR measurements recorded in $(HARDEN_BENCH_FILE)"; exit 1; }
	@echo "recorded hardening acceptance to $(HARDEN_BENCH_FILE)"

# Load-test parameters: LOAD_CONCURRENCY requests in flight at once until
# LOAD_REQUESTS have been issued. The harness exits nonzero on any non-429
# error, so this is the "survives ten thousand concurrent clients" gate.
# LOAD_P99_SLO additionally fails the run when p99 latency exceeds the
# bound — generous enough for shared CI runners, tight enough to catch a
# serving-path regression that queues requests for whole seconds.
LOAD_REQUESTS ?= 10000
LOAD_CONCURRENCY ?= 10000
LOAD_P99_SLO ?= 10s

# End-to-end overload smoke: train a tiny artifact, serve it, and flood it
# with $(LOAD_CONCURRENCY) concurrent predict requests. Admission control
# may shed load with 429 + Retry-After; anything else non-2xx fails the
# run. ulimit lifts the fd ceiling for the server side (ffrload raises its
# own).
load-smoke:
	@set -e; \
	ulimit -n 65536 2>/dev/null || true; \
	tmp=$$(mktemp -d); \
	trap 'kill $$pid 2>/dev/null || true; rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/ffrtrain ./cmd/ffrtrain; \
	$(GO) build -o $$tmp/ffrserve ./cmd/ffrserve; \
	$(GO) build -o $$tmp/ffrload ./cmd/ffrload; \
	$$tmp/ffrtrain -model "k-NN" -n $(SMOKE_INJECTIONS) -save $$tmp/knn.ffrm; \
	$$tmp/ffrserve -addr 127.0.0.1:18082 -model $$tmp/knn.ffrm & pid=$$!; \
	for i in $$(seq 1 50); do \
		curl -fsS http://127.0.0.1:18082/healthz >/dev/null 2>&1 && break; \
		kill -0 $$pid 2>/dev/null || { echo "ffrserve exited early"; exit 1; }; \
		sleep 0.2; \
	done; \
	$$tmp/ffrload -url http://127.0.0.1:18082 \
		-requests $(LOAD_REQUESTS) -concurrency $(LOAD_CONCURRENCY) \
		-p99-slo $(LOAD_P99_SLO); \
	curl -fsS http://127.0.0.1:18082/metrics | tee $$tmp/metrics.txt \
		| grep ffr_serve_requests_total; \
	sh scripts/metrics-lint.sh $$tmp/metrics.txt; \
	echo "load smoke OK"
