# Mirrors .github/workflows/ci.yml so local runs and CI are identical.

GO ?= go

.PHONY: all build lint test bench bench-full bench-artifact bench-baseline bench-compare pdes-smoke trace-smoke topo-smoke serve-smoke perfbench-check sched-smoke surrogate-smoke docs docs-check suite clean

all: lint build test

build:
	$(GO) build ./...

lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "files need gofmt:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...

test:
	$(GO) test -race ./...

# One iteration of every benchmark: the CI smoke that keeps the
# reproduction-record benches runnable. Use bench-full for measurements.
bench:
	$(GO) test -bench=. -benchtime=1x -run '^$$' ./...

bench-full:
	$(GO) test -bench=. -benchmem -run '^$$' ./internal/sim/ ./internal/collectives/ ./internal/scenario/ ./internal/trace/ ./internal/placement/ ./internal/surrogate/ ./internal/facility/ .

# Collective + congested-transport + trace-replay + placement-search +
# sim hot-path benches as bench/BENCH_<short-sha>.json, the per-commit
# perf record CI uploads as an artifact next to the committed
# bench/BENCH_baseline.json (the trajectory anchor; see bench/README.md).
# The Saturation benches track the congested path's hot-loop cost
# (routing, link admission, queueing); the TraceReplay benches the
# one-shot replay; the EvaluatorReplay benches the pooled batch
# evaluation path side by side with it (the ~5x/7,500x pooling win);
# PlacementOptimize the optimizer end to end; ParallelDES the windowed
# cluster at 1/2/4/8 workers against the serial engine; the Surrogate
# benches the analytic pricing model the two-tier search screens with
# (price one mapping, cold-route pricing, and model compilation).
BENCH_RE = Collective|Saturation|TraceReplay|EvaluatorReplay|PlacementOptimize|EventLoop|ProcParkUnpark|MailboxPingPong|Facility|ParallelDES|TopoCompare|TopologyRoute|Surrogate
BENCH_PKGS = ./internal/collectives ./internal/scenario ./internal/trace ./internal/placement ./internal/surrogate ./internal/sim ./internal/facility ./internal/fabric

bench-artifact:
	$(GO) test -json -run '^$$' -bench '$(BENCH_RE)' \
		-benchmem $(BENCH_PKGS) > bench/BENCH_$$(git rev-parse --short HEAD).json

# Regenerate the committed trajectory anchor (one timed iteration per
# bench: cheap, and every iteration of the DES benches is a full run).
bench-baseline:
	$(GO) test -json -run '^$$' -bench '$(BENCH_RE)' -benchtime=1x \
		-benchmem $(BENCH_PKGS) > bench/BENCH_baseline.json

# Run the bench set once and print each bench's ns/op next to the
# committed baseline's, with the head/baseline ratio. Informational:
# wall clock varies across machines, so the anchor tracks trajectory
# rather than gating CI; eyeball the ratios (or point benchstat at the
# two JSON files) when a PR intentionally moves a hot path.
bench-compare:
	$(GO) test -json -run '^$$' -bench '$(BENCH_RE)' -benchtime=1x \
		-benchmem $(BENCH_PKGS) > /tmp/bench-head.json
	@# A bench result line is flushed as several JSON output events (the
	@# name before the timing), so reassemble each package's output
	@# stream before grepping for the "name ... ns/op" result lines.
	@jq -rs '[.[] | select(.Action=="output")] | group_by(.Package) | .[] | map(.Output) | add' \
		bench/BENCH_baseline.json \
		| awk '/^Benchmark/ && / ns\/op/ {print $$1, $$3}' | sort > /tmp/bench-base.txt
	@jq -rs '[.[] | select(.Action=="output")] | group_by(.Package) | .[] | map(.Output) | add' \
		/tmp/bench-head.json \
		| awk '/^Benchmark/ && / ns\/op/ {print $$1, $$3}' | sort > /tmp/bench-head.txt
	@printf '%-52s %14s %14s %9s\n' benchmark 'base ns/op' 'head ns/op' ratio
	@join /tmp/bench-base.txt /tmp/bench-head.txt \
		| awk '{r=($$2>0)?$$3/$$2:0; printf "%-52s %14.0f %14.0f %8.2fx\n", $$1, $$2, $$3, r}'
	@join -v1 /tmp/bench-base.txt /tmp/bench-head.txt | awk '{print "baseline only: " $$1}'
	@join -v2 /tmp/bench-base.txt /tmp/bench-head.txt | awk '{print "head only:     " $$1}'

# The parallel-DES byte-identity smoke CI runs (mirrored here): the
# coll-saturation and trace-replay experiments at GOMAXPROCS 1, 2 and
# 8, with the result JSONL and every CSV artifact diffed byte-for-byte
# across worker counts (only the wall-clock elapsed_ms field is
# stripped first — it is observability output, never simulation input).
pdes-smoke:
	@for p in 1 2 8; do \
		echo "pdes-smoke: GOMAXPROCS=$$p"; \
		GOMAXPROCS=$$p $(GO) run ./cmd/rrexp -run coll-saturation,trace-replay -parallel -quiet \
			-jsonl /tmp/pdes-$$p.jsonl -csv /tmp/pdes-csv-$$p || exit 1; \
		jq -c 'del(.elapsed_ms)' /tmp/pdes-$$p.jsonl > /tmp/pdes-$$p.stripped.jsonl || exit 1; \
	done
	diff /tmp/pdes-1.stripped.jsonl /tmp/pdes-2.stripped.jsonl
	diff /tmp/pdes-1.stripped.jsonl /tmp/pdes-8.stripped.jsonl
	diff -r -x suite-summary.csv /tmp/pdes-csv-1 /tmp/pdes-csv-2
	diff -r -x suite-summary.csv /tmp/pdes-csv-1 /tmp/pdes-csv-8

# The rrtrace capture→replay→optimize smoke CI runs (mirrored here).
trace-smoke:
	$(GO) run ./cmd/rrtrace capture -px 4 -py 4 -k 20 -o /tmp/sweep3d.trace.jsonl
	$(GO) run ./cmd/rrtrace inspect -i /tmp/sweep3d.trace.jsonl
	$(GO) run ./cmd/rrtrace replay -i /tmp/sweep3d.trace.jsonl -placement strided -toplinks 5
	$(GO) run ./cmd/rrtrace replay -i /tmp/sweep3d.trace.jsonl -congestion=off -skip-compute
	$(GO) run ./cmd/rrtrace optimize -i /tmp/sweep3d.trace.jsonl -seed 1 \
		-greedy-rounds 2 -greedy-batch 6 -anneal-rounds 2 -anneal-batch 6 -mapping 4

# The per-topology CLI smoke CI runs (mirrored here): rrsim topology
# queries and a congested collective plus an rrtrace replay on every
# registered -topology value, then the byte-identity pin that
# `-topology fattree` output is identical to the flagless default
# (host-wall-clock throughput lines stripped — observability output,
# never simulation input).
topo-smoke:
	$(GO) run ./cmd/rrtrace capture -px 4 -py 4 -k 20 -o /tmp/topo.trace.jsonl
	@for t in fattree fattree-ecmp fattree-full torus; do \
		echo "topo-smoke: $$t"; \
		$(GO) run ./cmd/rrsim -topology $$t 0 2000 || exit 1; \
		$(GO) run ./cmd/rrsim -topology $$t -census -audit || exit 1; \
		$(GO) run ./cmd/rrsim -topology $$t -collective alltoall-pairwise -ranks 64 -msg 4096 || exit 1; \
		$(GO) run ./cmd/rrtrace replay -i /tmp/topo.trace.jsonl -topology $$t -placement strided || exit 1; \
	done
	$(GO) run ./cmd/rrsim -census -audit -collective alltoall-pairwise -ranks 64 -msg 4096 \
		| grep -v 'events/s host' > /tmp/topo-rrsim-default.out
	$(GO) run ./cmd/rrsim -topology fattree -census -audit -collective alltoall-pairwise -ranks 64 -msg 4096 \
		| grep -v 'events/s host' > /tmp/topo-rrsim-fattree.out
	diff /tmp/topo-rrsim-default.out /tmp/topo-rrsim-fattree.out
	$(GO) run ./cmd/rrtrace replay -i /tmp/topo.trace.jsonl -placement strided \
		| grep -v 'events/s host' > /tmp/topo-replay-default.out
	$(GO) run ./cmd/rrtrace replay -i /tmp/topo.trace.jsonl -topology fattree -placement strided \
		| grep -v 'events/s host' > /tmp/topo-replay-fattree.out
	diff /tmp/topo-replay-default.out /tmp/topo-replay-fattree.out

# The serving-layer contract under the race detector: structured 4xx on
# malformed submissions, request coalescing, serial ≡ 64-way-concurrent
# byte identity, cache round-trip, and the thousands-deep load harness.
serve-smoke:
	$(GO) test -race -count=1 -run 'TestServe' ./internal/serve

# The host-time benchmark's gate CI runs (mirrored here): perfbench's
# own module vetted and its self-test (the output checkers, the
# BENCHMARK.json metric pins, one serve pass) under the race detector,
# then a 3-second serve-mixed run through the benchmark's entry point,
# which exits non-zero on any wrong or failed job.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test -race -short ./...
	bash perfbench/run.sh --workload serve-mixed --seed 1 --seconds 3 --trace 0

# The analytic-surrogate smoke CI runs (mirrored here): the surrogate
# and two-tier placement unit tests under the race detector, the
# cross-validation contract (holdout Spearman, top-3 agreement,
# two-tier parity, serial ≡ parallel), and an rrtrace optimize
# -surrogate CLI run end to end.
surrogate-smoke:
	$(GO) test -race -count=1 ./internal/surrogate
	$(GO) test -race -count=1 -run 'TestSurrogate|TestOptimize|TestDedupe' \
		./internal/scenario ./internal/placement
	$(GO) run ./cmd/rrtrace capture -px 4 -py 4 -k 20 -o /tmp/surrogate.trace.jsonl
	$(GO) run ./cmd/rrtrace optimize -i /tmp/surrogate.trace.jsonl -seed 1 \
		-surrogate -screen-factor 4 -anchors 12 \
		-greedy-rounds 2 -greedy-batch 6 -anneal-rounds 2 -anneal-batch 6 -mapping 4

# The rrsched facility-simulator smoke CI runs (mirrored here): a
# model-only mix, the trace-pricing path, and the full sweep.
sched-smoke:
	$(GO) run ./cmd/rrsched run -policy fcfs -alloc scattered -jobs 16 -trace=false -jsonl /tmp/rrsched-run.jsonl
	$(GO) run ./cmd/rrsched run -policy easy -alloc assisted -jobs 24 -gantt
	$(GO) run ./cmd/rrsched sweep -jsonl /tmp/rrsched-sweep.jsonl

# Regenerate the generated documentation (docs/experiments.md) and
# check it is current — CI fails when it is stale.
docs:
	$(GO) generate ./internal/experiments

docs-check:
	$(GO) run ./internal/experiments/expdocs -check docs/experiments.md
	$(GO) test -run TestEveryPackageHasDoc .

# The full evaluation through the orchestrator, all cores.
suite:
	$(GO) run ./cmd/rrexp -run all -parallel -quiet

clean:
	$(GO) clean ./...
