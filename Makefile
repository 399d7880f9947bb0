# Development targets. `make check` is the full local gate: build, vet,
# the test suite, and the race detector over the parallel experiment
# runner and everything else.

GO ?= go

.PHONY: build test vet race check golden bench bench-check determinism fuzz-smoke chaos kill-soak cluster-soak store-soak telemetry-overhead journal-overhead profile profile-smoke pgo perfbench-build perfbench-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# go vet plus a formatting gate: fails when gofmt would change any
# tracked Go file.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$unformatted" ]; then echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi

race:
	$(GO) test -race ./...

check: build vet test race

# Regenerate the golden trajectories (testdata/golden_sim.json for the
# ideal engine, testdata/golden_degraded.json for the imperfect and
# store paths). Only run after an intentional engine change, and
# re-review the diff: the files pin bit-for-bit behaviour.
golden:
	$(GO) test -run 'TestGolden(Degraded)?Equivalence' -update .

# Time the simulation stack (Table 1a/3a grids and the warm single-run
# path), sweep the grid workloads across -cpu 1,2,4, and record the
# numbers — appending the previous report to the history — in
# BENCH_simstack.json.
bench:
	$(GO) run -pgo=default.pgo ./cmd/simbench -out BENCH_simstack.json

# Regression gate: re-time the stack quickly and fail if any workload's
# single-CPU ns_per_rep is >15% above the committed baseline. Writes to
# a scratch file so the committed artefact only changes via `make bench`.
bench-check:
	$(GO) run -pgo=default.pgo ./cmd/simbench -short -check -baseline BENCH_simstack.json -out /tmp/BENCH_simstack_check.json

# CPU-profile the Table 1a grid (the batch kernel's home workload) into
# artifacts/: the .pprof plus the bench binary pprof needs to symbolise
# it. Inspect with `go tool pprof artifacts/table1a_bench.test
# artifacts/table1a_cpu.pprof`.
profile:
	mkdir -p artifacts
	$(GO) test -run '^$$' -bench 'BenchmarkTable1a$$' -benchtime 2000x \
		-cpuprofile artifacts/table1a_cpu.pprof \
		-o artifacts/table1a_bench.test .

# Tiny profiled run asserting the pprof artefact comes out non-empty —
# the CI guard that keeps the `make profile` / `make pgo` workflow from
# silently rotting when bench names or flags drift.
profile-smoke:
	mkdir -p artifacts
	$(GO) test -run '^$$' -bench 'BenchmarkTable1a$$' -benchtime 20x \
		-cpuprofile artifacts/profile_smoke.pprof \
		-o artifacts/profile_smoke.test .
	test -s artifacts/profile_smoke.pprof

# Refresh the checked-in PGO profile: re-profile the Table 1a grid and
# verify the tree builds with profile-guided optimisation on. The bench
# targets build simbench with this profile, so after any hot-path
# change run `make pgo && make bench` to re-record with a fresh
# profile (workflow: DESIGN.md §17).
pgo: profile
	cp artifacts/table1a_cpu.pprof default.pgo
	$(GO) build -pgo=default.pgo ./...

# The scheduling-invariance matrix under the race detector: worker
# counts × shard sizes × permuted completion order × chaos retries must
# leave every table bit unchanged, with no data races. Includes the
# cluster's 1-node-vs-3-node byte-identity check.
determinism:
	$(GO) test -race -count=1 -run 'Determinism|Shard|OrderIndependence|PartitionInvariance' ./internal/experiment/ ./internal/stats/ ./internal/cluster/

# Short native-fuzz smoke (~3 min, 15s per target): the planner over its
# whole input envelope, batch-vs-scalar kernel equivalence on randomized
# configurations (byte-identical stats.Shard payloads), the
# model-vs-simulation validators, journal replay over arbitrary bytes
# (must never panic, never invent completed shards), the stats.Shard
# decoder every worker result passes through (never panic, accept only
# canonical bytes, never inflate the rep ledger), the permanent-fault
# overlay, the ISA assembler and machine step, and the untrusted
# network decoders: the POST /v1/jobs spec, the worker's unit request,
# the coordinator's unit reply (also: bodies over the size bound are
# rejected) and the store config (never panic, accepted input
# round-trips), and the checkpoint set against a naive model (images,
# tiers and writes after every Insert/TruncateAfter/Clear/
# MarkCorrupted). CI runs this; longer local campaigns just raise
# -fuzztime.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzPlannerChoose$$' -fuzztime 15s ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzBatchScalarEquivalence$$' -fuzztime 15s ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzValidateParams$$' -fuzztime 15s ./internal/validate/
	$(GO) test -run '^$$' -fuzz '^FuzzJournalReplay$$' -fuzztime 15s ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzShardUnmarshal$$' -fuzztime 15s ./internal/stats/
	$(GO) test -run '^$$' -fuzz '^FuzzPermanentOverlay$$' -fuzztime 15s ./internal/fault/
	$(GO) test -run '^$$' -fuzz '^FuzzAssemble$$' -fuzztime 15s ./internal/isa/
	$(GO) test -run '^$$' -fuzz '^FuzzMachineStep$$' -fuzztime 15s ./internal/isa/
	$(GO) test -run '^$$' -fuzz '^FuzzJobSpec$$' -fuzztime 15s ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzUnitRequest$$' -fuzztime 15s ./internal/cluster/
	$(GO) test -run '^$$' -fuzz '^FuzzUnitResult$$' -fuzztime 15s ./internal/cluster/
	$(GO) test -run '^$$' -fuzz '^FuzzStoreConfig$$' -fuzztime 15s ./internal/store/
	$(GO) test -run '^$$' -fuzz '^FuzzSetOps$$' -fuzztime 15s ./internal/store/

# Compile and vet the benchmark harness. perfbench/ is a nested module
# (it builds against this one through a replace directive), so neither
# `go build ./...` nor `make check` reaches it; an API change in serve
# or cluster would otherwise surface only when the benchmark runs.
perfbench-build:
	cd perfbench && $(GO) vet ./...

# Run every benchmark workload for a few traced seconds and fail unless
# its verdict is correct: the ops' results match the reference path and
# the traced replay reproduces them through the lower layers. Catches a
# program change that breaks the benchmark's replay or reference check
# before a timed run does.
PERFBENCH_WORKLOADS = tables-cold extensions-scalar serve-jobs cluster-jobs
perfbench-smoke:
	@for w in $(PERFBENCH_WORKLOADS); do \
		line=$$(bash perfbench/run.sh --workload $$w --seed 1 --seconds 3 --trace 1 | tail -n 1); \
		echo "$$w: $$line"; \
		case "$$line" in *'"correct":true'*) ;; *) echo "perfbench-smoke: $$w is not correct" >&2; exit 1 ;; esac; \
	done

# The chaos soak: the serve job service under fault injection, race
# detector on.
chaos:
	$(GO) test -race -run Chaos -v ./internal/serve/...

# The kill-and-recover soak: SIGKILL the journalled service at
# deterministic crashpoints (mid-fsync, mid-shard-journal, mid-merge,
# mid-drain) and require exact rep accounting plus a byte-identical
# recovered grid result, race detector on.
kill-soak:
	$(GO) test -race -run KillRecoverSoak -count=1 -v -timeout 600s ./internal/serve/

# The kill-tolerant distributed soak: worker processes SIGKILLed
# mid-unit, a flaky transport dropping/duplicating/delaying coordinator
# traffic, and a coordinator crash mid-job — the successor must finish
# the job byte-identical with an exact rep ledger, race detector on.
cluster-soak:
	$(GO) test -race -run ClusterSoak -count=1 -v -timeout 600s ./internal/cluster/

# The tiered-store soak: a capacity-constrained checkpoint store under
# chaos shard retries across several worker/shard shapes — tables stay
# bit-identical, the rep ledger stays exact, and store_* telemetry is
# scheduling-invariant, race detector on.
store-soak:
	$(GO) test -race -run StoreSoak -count=1 -v -timeout 600s ./internal/experiment/

# Measure the telemetry sink's tax on the Table 1a grid: none vs nop
# vs live registry sink. Budget: nop ≤2% over none (DESIGN.md §11).
telemetry-overhead:
	$(GO) test -run '^$$' -bench BenchmarkTable1aSinkOverhead -benchtime 50x .

# Measure the journal's tax on the Table 1a grid: none vs memory store
# (the CPU tax on the workers; budget ≤2%) vs real file store with
# group-commit fsync (adds disk-bound flushing, overlapped with compute
# on multi-core hosts). See DESIGN.md §13.
journal-overhead:
	$(GO) test -run '^$$' -bench BenchmarkTable1aJournalOverhead -benchtime 50x ./internal/serve/
