# Convenience targets for the meshsort reproduction.

GO ?= go

.PHONY: all build test test-race bench bench-batch bench-kernel bench-zeroone bench-threshold bench-bigside bench-fabric bench-smoke experiments experiments-quick experiments-output lemmas fmt vet cover lint meshlint vet-perf serve-smoke store-smoke fabric-smoke

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./internal/engine/ ./internal/experiments/ ./internal/procmesh/ \
		./internal/mcbatch/ ./internal/serve/ ./internal/kerneltest/ ./internal/fabric/

bench:
	$(GO) test -bench=. -benchmem ./...

# Machine-readable speedup record for the batched trial engine and the
# bit-packed 0-1 kernel (writes BENCH_batch.json at the repo root).
bench-batch:
	$(GO) run ./cmd/benchbatch -suite batch -out BENCH_batch.json

# Span-kernel sweep: single-thread legacy vs generic vs span ns/trial per
# side, plus span throughput across GOMAXPROCS {1,2,4,8} (writes
# BENCH_kernel.json at the repo root). Pass BENCHFLAGS="-cpuprofile cpu.pb.gz"
# to capture a profile of the sweep.
bench-kernel:
	$(GO) run ./cmd/benchbatch -suite kernel -out BENCH_kernel.json $(BENCHFLAGS)

# 0-1 kernel-family sweep: cellwise vs cell-packed vs trial-sliced
# ns/trial per side, with a built-in lockstep-equivalence differential
# (writes BENCH_zeroone.json at the repo root).
bench-zeroone:
	$(GO) run ./cmd/benchbatch -suite zeroone -out BENCH_zeroone.json $(BENCHFLAGS)

# Exact-permutation executor sweep: span kernel vs threshold-sliced
# kernel vs the scalar per-threshold decomposition, with a built-in
# span/threshold differential (writes BENCH_threshold.json at the repo
# root).
bench-threshold:
	$(GO) run ./cmd/benchbatch -suite threshold -out BENCH_threshold.json $(BENCHFLAGS)

# Large-mesh sharded span sweep: serial span baseline vs the sharded
# executor across shard counts and GOMAXPROCS, with a built-in
# serial-vs-sharded differential in every arm (writes BENCH_bigside.json
# at the repo root). The default sides {256,512,1024} take tens of
# minutes serially; pass BENCHFLAGS="-sides 64,128 -reps 1" for a quick
# look. Speedups are bounded by the host's core count.
bench-bigside:
	$(GO) run ./cmd/benchbatch -suite bigside -out BENCH_bigside.json $(BENCHFLAGS)

# Distributed trial fabric on loopback: 1/2/3 in-process worker daemons
# vs a single-process baseline, with every fleet's merged payload checked
# byte-for-byte against the single-process run (writes BENCH_fabric.json
# at the repo root). On a few-core host the report carries an honest
# caveat: the numbers are dispatch overhead, not scaling.
bench-fabric:
	$(GO) run ./cmd/benchbatch -suite fabric -out BENCH_fabric.json $(BENCHFLAGS)

# bench-smoke runs the repository benchmark's own tests, then a 2-second
# zeroone-sweep, and fails unless its result line (the last one) reports
# every op correct and none failed.
bench-smoke:
	cd meshbench && $(GO) test ./...
	@out="$$(bash meshbench/run.sh --workload zeroone-sweep --seed 1 --seconds 2 --trace 0)" || exit 1; \
	last="$$(printf '%s\n' "$$out" | tail -n 1)"; echo "$$last"; \
	echo "$$last" | grep -Eq '"correct": ?true' && echo "$$last" | grep -Eq '"failed": ?0[,}]' || \
		{ echo "bench-smoke: result line is not correct with 0 failed"; exit 1; }

experiments:
	$(GO) run ./cmd/experiments

experiments-quick:
	$(GO) run ./cmd/experiments -quick

# experiments-output regenerates the full experiments transcript locally.
# The file is gitignored: it is a build artifact of cmd/experiments, and
# the committed source of truth for the paper tables is EXPERIMENTS.md.
experiments-output:
	$(GO) run ./cmd/experiments > experiments_output.txt
	@echo "wrote experiments_output.txt"

lemmas:
	$(GO) run ./cmd/lemmas -side 8 -trials 500

fmt:
	gofmt -l -w .

vet:
	$(GO) vet ./...

# meshlint runs only the project's own invariant-enforcing passes
# (oblivious, schedpurity, detrand, floateq, hotalloc, ctxflow,
# lockguard, leakcheck); see docs/INVARIANTS.md.
meshlint:
	$(GO) run ./cmd/meshlint ./...

# vet-perf is the performance-invariant gate: the eight meshlint passes
# plus the gcdiag escape/bounds-check manifest diff over the kernel hot
# files. The gcdiag half is pinned to one Go toolchain version and skips
# itself with a notice under any other, so this target is safe to run
# everywhere; CI runs it on the pinned toolchain where it bites.
vet-perf:
	$(GO) run ./cmd/meshlint -gcdiag ./...

# End-to-end smoke of the trial-serving daemon: boots meshsortd on a
# random port, serves one job per algorithm through meshsortctl, asserts
# a cache hit on resubmit, queue-full 429 backpressure, and that SIGTERM
# drains without dropping a queued job's result.
serve-smoke:
	sh scripts/serve_smoke.sh

# store-smoke is the crash-resume gate: SIGKILL meshsortd mid-campaign
# (race-detector build), restart over the same store directory, and assert
# the resumed campaign runs only the missing cells and exports
# byte-identically to an uninterrupted run.
store-smoke:
	sh scripts/store_smoke.sh

# fabric-smoke is the dead-peer gate: boot three worker daemons and a
# coordinator (race-detector builds), SIGKILL one worker mid-sweep, and
# assert the coordinator requeues its shards onto the survivors and the
# exported payload is byte-identical to a single-node run.
fabric-smoke:
	sh scripts/fabric_smoke.sh

# lint is the full static gate CI runs: formatting, go vet, meshlint,
# and — when the tools are installed — staticcheck and govulncheck.
# The optional tools are skipped locally if absent so the target works
# offline; CI installs them.
lint:
	@fmtout="$$(gofmt -l .)"; if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/meshlint ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
		else echo "lint: staticcheck not installed, skipping"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
		else echo "lint: govulncheck not installed, skipping"; fi

cover:
	$(GO) test -cover ./...
