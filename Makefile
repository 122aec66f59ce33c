# Local mirror of the CI pipeline (.github/workflows/ci.yml): every CI step
# is one of these targets, so local and CI invocations stay identical.
#
# `make test` is where the end-to-end checks live: the serve, corpus,
# fabric and harden smokes, interrupt-and-resume, flag misuse, the
# docs/CLI.md check and the /metrics lint are Go tests in cmd/ffr that drive
# the real commands in-process; the walkthroughs are Example functions with
# Output lines in the root package, and the 10k-request overload check is
# TestAdmissionFlood in internal/serve. The performance record is
# `go run ./bench` (BENCHMARK.json, bench/README.md).

GO ?= go

.PHONY: all build cross test race lint loc knobs bench fuzz-smoke

all: lint build test

build:
	$(GO) build ./...

# The file set of a platform without the amd64 assembly (internal/ml/mlp's
# AVX kernels): it must build, not only vet, since vet passes a function
# declared without a body that the build rejects. On amd64 itself, vet's
# asmdecl check (make lint) holds each .s frame to its Go declaration.
cross:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./...

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

# The size metric ROADMAP and CHANGES.md quote: non-test Go and assembly
# (*.s) lines outside bench/, per internal/ package tree, for each command
# and for the root facade (the rows add up to the total). CI prints it in
# every PR's log; it is a number to report, not a gate.
loc:
	@count() { find "$$@" \( -name '*.go' -o -name '*.s' \) ! -name '*_test.go' ! -path './bench/*' -print0 | xargs -0 cat | wc -l; }; \
	for d in internal/*/ cmd/*/; do printf '%7d %s\n' "$$(count $$d)" "$${d%/}"; done; \
	printf '%7d repro (root facade)\n' "$$(count . -maxdepth 1)"; \
	printf '%7d non-test Go and assembly lines outside bench/\n' "$$(count .)"

# The option count the simplicity review asks every PR to report: the flags
# each ffr command registers (the lines of its -h list) and their total. Like
# loc, CI prints it in every PR's log; it is a number to report, not a gate.
knobs:
	@ffr=$$(mktemp); trap 'rm -f "$$ffr"' EXIT; $(GO) build -o "$$ffr" ./cmd/ffr; total=0; \
	for c in $$("$$ffr" help 2>&1 | sed -n 's/^  \([a-z]*\) .*/\1/p'); do \
		k=$$("$$ffr" $$c -h 2>&1 | grep -c '^  -'); total=$$((total + k)); \
		printf '%7d ffr %s\n' $$k $$c; \
	done; \
	printf '%7d flags in all\n' $$total

# Every micro-benchmark once, each beside the layer it measures, so a
# regression localizes below the workloads of ./bench: the simulator
# (BenchmarkKernelEval/Commit on a reset register file, BenchmarkKernelWindow
# over the MAC stimulus's activity), the chunk executor (BenchmarkRunChunks per
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
# FuzzPredictEachK holds the shared pass that scores several k from one
# distance scan to a model of its own per k, prediction bit for bit.
# FuzzMLPFitMatchesScalarLoops is differential: mlp.Fit must train small
# networks to the weight bits of the scalar loops kept in
# internal/ml/mlp/equiv_test.go, non-finite rows and zero deltas included.
# FuzzSortSamplesMatchesSortFunc is differential: the split search's copy of
# pdqsort (internal/ml/tree/pdqsort.go) must leave tie-heavy, patterned and
# NaN keys in the permutation slices.SortFunc gives them. A failure after a
# toolchain upgrade means the standard library's sort changed; the copy is
# what the pinned tree bits rest on, so it stays as it is.
# FuzzKernelMatchesEngine is differential too: whatever netlist the parser
# accepts, its compiled kernel must match four packed Engines word for word
# through 16 cycles of random inputs and flip-flop upsets.
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
	$(FUZZ) -fuzz=FuzzPredictEachK ./internal/ml/knn
	$(FUZZ) -fuzz=FuzzMLPFitMatchesScalarLoops ./internal/ml/mlp
	$(FUZZ) -fuzz=FuzzSortSamplesMatchesSortFunc ./internal/ml/tree
	$(FUZZ) -fuzz=FuzzKernelMatchesEngine ./internal/sim
