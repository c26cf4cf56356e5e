# Convenience targets for the SUBSIM/HIST reproduction.

GO ?= go

.PHONY: all build vet lint escape-gate escape-baseline fuzz-smoke test test-alloc race bench-smoke cover bench bench-kernel examples experiments quick clean

all: build vet lint test test-alloc race bench-smoke escape-gate

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Project-invariant static analysis (determinism, hot-path allocations,
# nil-safe tracers, float equality, unchecked errors, directive hygiene).
# See DESIGN.md "Enforced invariants". Exits non-zero on any diagnostic,
# and on any tracked Go file outside testdata/ that gofmt would change
# (the lint fixtures under testdata/ are inputs, kept as written).
lint:
	$(GO) run ./cmd/subsimlint ./...
	@files=$$(git ls-files '*.go' ':!testdata/*' ':!*/testdata/*') || exit 1; \
	unformatted=$$(gofmt -l $$files) || exit 1; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists files that need formatting:"; echo "$$unformatted"; exit 1; \
	fi

# Compiler-telemetry gate: compile with -m=1 and check_bce debugging
# (forced rebuild, so the build cache cannot swallow diagnostics) and
# fail if any //subsim:hotpath function gained a heap escape or bounds
# check over the committed lint_baseline.json budget.
escape-gate:
	$(GO) run ./cmd/subsimlint -compiler -baseline lint_baseline.json ./...

# Deliberately refresh the budget after a reviewed change.
escape-baseline:
	$(GO) run ./cmd/subsimlint -compiler -baseline lint_baseline.json -baseline-write ./...

# 30s native-fuzzing smoke pass per target over the untrusted-input
# parsers and Maximize on degenerate inputs (seed corpora committed
# under testdata/fuzz/ or added in the targets).
FUZZTIME ?= 30s
fuzz-smoke:
	$(GO) test ./internal/graph -run '^$$' -fuzz '^FuzzReadText$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/graph -run '^$$' -fuzz '^FuzzReadBinary$$' -fuzztime $(FUZZTIME)
	$(GO) test . -run '^$$' -fuzz '^FuzzMaximize$$' -fuzztime $(FUZZTIME)

# Text dumps from test/bench targets land under bin/ (gitignored as a
# whole), so scratch artifacts can never reappear at the repo root.
test:
	@mkdir -p bin
	$(GO) test ./... 2>&1 | tee bin/test_output.txt

# Allocation-regression gate: the generate→index pipeline must stay
# allocation-free per RR set in steady state, including across repeated
# Fill→SelectSeeds rounds (the shard arenas, CSR double buffers and
# selection scratch are reused, not reallocated), and a nil tracer's
# spans and a nil-sink obs.Run must allocate nothing.
test-alloc:
	$(GO) test ./internal/im -run 'AllocFree|AmortizedAllocs|RoundsAllocs' -v
	$(GO) test ./internal/coverage -run 'ScratchReuse' -v
	$(GO) test ./internal/obs -run 'AllocFree|AllocationFree' -v

race:
	$(GO) test -race ./...

# The certified-run benchmark (perfbench/, see BENCHMARK.json) is its own
# Go module, so the root `go test ./...` skips it. Vet and test it here
# so a library change cannot break the benchmark unnoticed. Its tests run
# every workload at a tiny scale: a few seconds, offline.
bench-smoke:
	(cd perfbench && $(GO) vet ./... && $(GO) test ./...)

cover:
	$(GO) test -cover ./internal/...

bench:
	@mkdir -p bin
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bin/bench_output.txt

# SUBSIM generation alone on the certified-run benchmark's two graphs,
# reporting ns/set and ns/edge (ROADMAP item 4's per-edge number) in
# seconds. `make bench` runs it too, with everything else.
bench-kernel:
	@mkdir -p bin
	$(GO) test ./internal/rrset -run '^$$' -bench SubsimKernel -benchmem 2>&1 | tee bin/bench_kernel.txt

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/viralmarketing
	$(GO) run ./examples/highinfluence
	$(GO) run ./examples/skewed
	$(GO) run ./examples/communities

# Regenerate the paper's evaluation (see EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/imbench -exp all -scale 0.25 -reps 2 -k 1,10,50,100,200,500,1000

# Seconds-long smoke pass over every experiment.
quick:
	$(GO) run ./cmd/imbench -quick

clean:
	rm -f imbench graph.bin
	rm -rf bin
