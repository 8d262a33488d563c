# Developer entry points. `make check` is what CI
# (.github/workflows/ci.yml) and PR hygiene run: build, vet,
# formatting, full tests, and the race detector over the
# concurrency-heavy packages (the message runtime with its fault
# injection, the distributed core that drives it, the DP engine
# with its worker pools and cancellation, the
# observability layer they feed, and the GF coefficient store's
# first-use builds).

GO ?= go
# Repetitions for `make bench`; 6+ gives benchstat enough samples for
# a significance test (`make bench > new.txt && benchstat old.txt new.txt`).
BENCH_COUNT ?= 6

.PHONY: all build test vet fmt-check check race fuzz-smoke bench bench-smoke bench-wall-smoke bench-figures bench-compare serve-smoke doc-links

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# gofmt -l prints offending files; grep inverts that into an exit code.
fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# gf runs only its concurrency test: its exhaustive kernel proofs take
# minutes under -race and share no state across goroutines.
race:
	$(GO) test -race ./internal/cluster/... ./internal/comm/... ./internal/core/... ./internal/mld/... ./internal/obs/... ./internal/serve/... ./internal/store/...
	$(GO) test -race -run 'FirstUseHammer' ./internal/gf

# A short burst of each differential fuzzer: random labeled graphs and
# constraints, constrained-motif detection vs. brute-force enumeration;
# the GF axpy kernels (coefficient store, gathered forms through
# MulSliceForm, prebuilt tables) and the GF Hadamard kernels, the scan
# join's MulHadamardAccumPeriodic included, vs. Mul on every reachable
# dispatch path (-v logs which paths this machine reaches). -fuzz takes
# one target per run, hence one line each.
FUZZTIME ?= 20s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzMotifVsBruteForce -fuzztime $(FUZZTIME) ./internal/mld
	$(GO) test -run '^$$' -fuzz FuzzMulSlice16Kernel -fuzztime $(FUZZTIME) -v ./internal/gf
	$(GO) test -run '^$$' -fuzz FuzzHadamardKernels -fuzztime $(FUZZTIME) -v ./internal/gf

check: build vet fmt-check test race doc-links

# Fail on dead relative links in README.md and docs/*.md (guide
# cross-references rot silently when files move).
doc-links:
	$(GO) run ./cmd/doccheck

# Microbenchmarks of the hot kernels (GF(2^w) multiplies, the
# GF(2^16) axpy once per dispatch path, DP inner loop, the path sweep
# at the pre-planner / planned / single-phase widths and at the planned
# width on two workers (BenchmarkPathSweepN2), the tree sweep
# (BenchmarkTreeSweep) and the scan table at the kinds-wide shape at
# one and two workers, one round of a 2-rank path and motif query at
# the dist-r2 shape (BenchmarkRunPathR2, BenchmarkRunMotifR2),
# a 12-query burst as back-to-back solo calls / lane-parallel solo
# sweeps), repeated for benchstat-friendly output.
bench:
	$(GO) test -run '^$$' -bench . -benchmem -count $(BENCH_COUNT) ./internal/gf ./internal/core ./internal/mld

# One iteration of every benchmark in the repo — the CI smoke check
# that nothing bench-shaped has rotted.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Smoke test of the wall-clock benchmark (bench/ is a module of its own,
# so `go test ./...` does not compile it): all four workloads at toy
# size. bench/ is frozen between benchmark PRs; this is what fails
# loudly when a planner or API change breaks what it imports. Tier-1
# runs the same thing through the root module's TestBenchModule.
bench-wall-smoke:
	$(GO) test -C bench .

# Black-box smoke of the query daemon over a real socket: start
# midas-serve, load a graph via the API, query + cache-hit repeat,
# cancel a slow query mid-flight, check /metrics, drain on SIGTERM.
serve-smoke:
	bash scripts/serve_smoke.sh

# The paper-figure benchmarks (heavyweight; regenerate EXPERIMENTS.md).
bench-figures:
	$(GO) test -run '^$$' -bench . -benchmem .

# Compare current performance against the committed baseline:
#  1. regenerate the JSON bench report with the baseline's parameters
#     and diff the deterministic counters via cmd/benchdiff (hard gate);
#  2. if benchstat is installed, also run the gf + core microbenchmarks
#     and show a statistical comparison against bench-old.txt when one
#     exists (informational — wall time is host-dependent).
bench-compare:
	mkdir -p artifacts
	$(GO) run ./cmd/midas-bench -json artifacts/bench-new.json -scale 300 -n 4 -ks 4,6 -seed 1
	$(GO) run ./cmd/benchdiff BENCH_baseline.json artifacts/bench-new.json | tee artifacts/bench-compare.txt
	@if command -v benchstat >/dev/null 2>&1; then \
		$(GO) test -run '^$$' -bench . -benchmem -count $(BENCH_COUNT) ./internal/gf > artifacts/bench-gf.txt; \
		if [ -f artifacts/bench-old.txt ]; then \
			benchstat artifacts/bench-old.txt artifacts/bench-gf.txt | tee -a artifacts/bench-compare.txt; \
		else \
			echo "no artifacts/bench-old.txt; saved current run as the next baseline"; \
		fi; \
		cp artifacts/bench-gf.txt artifacts/bench-old.txt; \
	else \
		echo "benchstat not installed; skipping microbenchmark statistics"; \
	fi
