# Tier-1+ gate for the thoth reproduction. `make ci` is what a change
# must pass before merging; individual targets exist for quick local
# loops.

GO ?= go
SWEEP_SEEDS ?= 200
FUZZTIME ?= 10s
TRACE_FILE ?= /tmp/thoth-trace-smoke.jsonl
FLIGHT_DIR ?= /tmp/thoth-flight-smoke

.PHONY: ci vet build test race crashfuzz scheme-diff parallel-diff persist-diff pool-diff trace-smoke metrics-smoke load-smoke obs-smoke bench-alloc bench-json perfbench-check fuzz-smoke fuzz-parallel-smoke fuzz-persist-smoke fuzz-bitpack-smoke fuzz-image-smoke sweep-1000

ci: vet build test race crashfuzz scheme-diff parallel-diff persist-diff pool-diff trace-smoke metrics-smoke load-smoke obs-smoke bench-alloc bench-json perfbench-check

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Randomized crash-injection sweep (deterministic per seed; failures
# print `crashfuzz.Replay(seed)` for one-line reproduction).
crashfuzz:
	$(GO) run ./cmd/crashfuzz -seeds $(SWEEP_SEEDS)

# Cross-scheme differential: (1) the no-op-refactor gate replays 50
# seeds against golden image/stats/recovery hashes committed before the
# PersistScheme extraction — the interface dispatch must stay
# byte-identical; (2) every seeded crash scenario is re-run with the
# triad-relaxed scheme cross-checked against both Thoth eviction
# policies (recovery must produce the exact acknowledged plaintext even
# with the persisted tree region stale); (3) the scheme-zoo comparison
# asserts triad persists measurably fewer tree-node writes than the
# strict baseline.
scheme-diff:
	$(GO) test ./internal/crashfuzz -run TestSchemeRefactorGolden -count=1
	$(GO) run ./cmd/crashfuzz -seeds $(SWEEP_SEEDS) -schemes thoth-wtsc,thoth-wtbc,triad-relaxed-8
	$(GO) test ./internal/harness -run 'TestSchemeZoo' -count=1

# Serial-vs-parallel recovery differential: 200 seeded crash images,
# each recovered with the serial engine and RecoverParallel at Workers
# in {1,2,4,8}; device bytes, report counters and error sentinels must
# all agree (also runs inside the plain test/race lanes).
parallel-diff:
	$(GO) test ./internal/recovery -run TestParallelRecoveryDifferential -count=1

# Serial-vs-batched persist differential: 200 seeded traces, each
# persisted block-by-block and through PersistBatch with a per-seed
# batch depth and mid-batch crash split; crash
# images, stats snapshots, recovery outcomes and recovered plaintext
# must all be identical. The `race` lane re-runs the same suite under
# the race detector (the test lives in ./internal/core).
persist-diff:
	$(GO) test ./internal/core -run TestPersistPipelineDifferential -count=1

# Sharded-pool differential: (1) the routing property tests (every
# block maps to exactly one shard, no metadata group straddles a shard
# boundary, one shard is byte-identical to a plain System); (2) the
# crash-any-subset-of-shards sweep — each seed's trace runs through a
# pool of 2/4/8/16 controllers, a seed-derived shard subset crashes,
# every crashed shard recovers in parallel, and the merged image must
# match both the plaintext oracle and a single-controller run; (3) the
# root-level Pool API suite (one-shard equivalence, concurrent clients,
# crash-subset recovery, stats pooling).
pool-diff:
	$(GO) test ./internal/engine -count=1
	$(GO) run ./cmd/crashfuzz -seeds $(SWEEP_SEEDS) -shards mixed
	$(GO) test . -run TestPool -count=1

# Trace a quick workload and validate the emitted JSONL event stream
# against the schema (cmd/tracecheck exits non-zero on any violation).
trace-smoke:
	$(GO) run ./cmd/thothsim -workload btree -warmup 200 -txs 600 -setup 1024 -pub 256 -trace $(TRACE_FILE)
	$(GO) run ./cmd/tracecheck $(TRACE_FILE)

# End-to-end smoke of the live observability stack: the serve-mode
# golden /metrics scrape (validated Prometheus exposition), the /statsz
# and /debug endpoints, the serve-vs-replay differential, and the
# tracemetrics CLI replay differential.
metrics-smoke:
	$(GO) test ./cmd/thothsim -run 'TestServe|TestRunServe' -count=1
	$(GO) test ./cmd/tracemetrics -count=1

# Open-loop load generator gate: the statistical property tests (KS on
# Poisson inter-arrivals, chi-squared on zipf draws), the event-stream
# and scenario-report goldens, the closed-loop and crash-under-load
# differentials, the CLI golden, and the acceptance run itself — a
# 1000-tenant bursty scenario over a 4-shard pool with every histogram
# percentile checked against the exact trace recomputation.
load-smoke:
	$(GO) test ./internal/loadgen -count=1
	$(GO) test ./cmd/thothsim -run 'TestLoad|TestServeLoad|TestRunServeLoad' -count=1
	$(GO) run ./cmd/thothsim load -scenario burst -tenants 1000 -shards 4 -check

# Tail-latency anatomy gate: the per-op attribution conservation sweep
# (200 seeded machines, controller and pool, stage cycles must sum to
# each op's latency), the flight-recorder suite (always-on, race-hammered,
# JSONL round-trip, FromTracer replay), the /timeseries golden, and an
# end-to-end crash whose flight dump must validate under tracecheck.
obs-smoke:
	$(GO) test ./internal/obs -count=1
	$(GO) test ./internal/core -run TestFlight -count=1
	$(GO) test ./internal/loadgen -run TestAttribution -count=1
	$(GO) test ./cmd/thothsim -run TestServeTimeseriesGolden -count=1
	rm -rf $(FLIGHT_DIR)
	$(GO) run ./cmd/thothsim -workload btree -warmup 200 -txs 600 -setup 1024 -pub 256 -crash -flight $(FLIGHT_DIR)
	$(GO) run ./cmd/tracecheck $(FLIGHT_DIR)/flight.jsonl

# Prove the zero-allocation hot paths stay that way: the disabled-tracer
# emit, the steady-state secure read, histogram Observe, the
# tracer-to-metrics adapter, the span-attribution charge path (enabled
# AND nil-span disabled), the flight recorder's Emit, the bit-field
# codec's callers (PUB block pack/unpack, counter bump) and the pool's
# timed WriteArrive/ReadArrive (with and without a span, one or two
# segments) must all report
# 0 allocs/op (the matching Test*ZeroAlloc funcs assert the 0; the
# benchmarks report it; the codec's per-op figures are the micro/pub_*
# and micro/ctr_bump rows of bench-json).
bench-alloc:
	$(GO) test ./internal/core -run 'TestTracerDisabledZeroAlloc|TestReadHitZeroAlloc' -bench 'BenchmarkTracerDisabled|BenchmarkReadHit' -benchtime 10000x
	$(GO) test ./internal/metrics -run 'TestObserveZeroAlloc|TestFromTracerZeroAlloc' -bench 'BenchmarkHistogramObserve|BenchmarkFromTracer' -benchtime 100000x
	$(GO) test ./internal/loadgen -run TestGenOpZeroAlloc -bench BenchmarkGenOp -benchtime 100000x
	$(GO) test ./internal/obs -run 'TestSpanRecordZeroAlloc|TestSpanDisabledZeroAlloc|TestFlightEmitZeroAlloc' -bench BenchmarkSpanRecord -benchtime 100000x
	$(GO) test ./internal/bitpack -run TestCodecZeroAlloc -count=1
	$(GO) test ./internal/engine -run TestPoolArriveZeroAlloc -count=1

# Benchmark-regression gate: re-measure the suite and compare against
# the committed baseline (fails on >15% ns/op or ANY allocs/op
# regression). After an intentional performance change, refresh the
# baseline with BENCH_UPDATE=1 make bench-json and commit BENCH.json.
bench-json:
ifeq ($(BENCH_UPDATE),1)
	$(GO) run ./cmd/benchjson -update BENCH.json
else
	$(GO) run ./cmd/benchjson -compare BENCH.json
endif

# The repository benchmark (perfbench/) is its own Go module, so the
# vet/build/test lanes above never compile it; vet and test it here so a
# change to an API it imports fails the gate instead of the benchmark.
perfbench-check:
	cd perfbench && $(GO) vet . && $(GO) test -count=1 .

# Short coverage-guided fuzz session over the checked-in corpus.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzCrashRecovery -fuzztime=$(FUZZTIME) ./internal/crashfuzz

# Same, against the serial-vs-parallel recovery differential oracle.
fuzz-parallel-smoke:
	$(GO) test -run=NONE -fuzz=FuzzParallelRecovery -fuzztime=$(FUZZTIME) ./internal/crashfuzz

# Same, against the serial-vs-batched persist oracle: the fuzzer
# steers crash index, batch depth and mid-batch split.
fuzz-persist-smoke:
	$(GO) test -run=NONE -fuzz=FuzzPersistPipeline -fuzztime=$(FUZZTIME) ./internal/crashfuzz

# Same, for the word-wise bit-field codec against its bit-at-a-time
# reference: any field on any slice must read and write identically.
fuzz-bitpack-smoke:
	$(GO) test -run=NONE -fuzz=FuzzGetSet -fuzztime=$(FUZZTIME) ./internal/bitpack

# Same, for crash-image loading: arbitrary bytes must load or fail
# without panicking, and any image that loads must re-save byte-stably.
fuzz-image-smoke:
	$(GO) test -run=NONE -fuzz=FuzzLoadImage -fuzztime=$(FUZZTIME) ./internal/nvm

# The acceptance-criteria sweep (slower; not part of `ci`).
sweep-1000:
	$(GO) run ./cmd/crashfuzz -seeds 1000
