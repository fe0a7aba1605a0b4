# Developer entry points. The simulator is pure Go with no
# dependencies, so every target below is just the go tool.

GO ?= go
GOFMT ?= gofmt

.PHONY: build test test-shuffle race vet fmt staticcheck gate-names determinism bench bench-smoke bench-baseline bench-hotpath bench-alloc bench-scale bench-scale-smoke bench-hyperscale bench-hyperscale-smoke bench-manager bench-manager-smoke bench-setup bench-setup-smoke bench-api bench-api-smoke bench-e2e-smoke scenario-gate sweep-quick ci clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The suite again with test order shuffled: catches tests that lean on
# package-level state left behind by an earlier test.
test-shuffle:
	$(GO) test -shuffle=on ./...

# Race-enabled run of the full suite, including the parallel-runner
# smoke tests. CI should treat this as tier-1 alongside `make test`.
# The explicit timeout covers the hyperscale experiment replays, which
# blow past go test's default 10 minutes under the race detector on
# small machines.
race:
	$(GO) test -race -timeout 90m ./...

# go vet, then scripts/stdversion: every package and its tests must use
# no standard-library symbol newer than go.mod's go version, methods
# promoted from unexported embedded types included, which vet's own
# stdversion check misses (a newer toolchain compiles them silently).
vet:
	$(GO) vet ./...
	$(GO) run ./scripts/stdversion

# staticcheck at a pinned version, fetched on demand by the go tool.
# Not part of `make ci`: the local container has no network for module
# downloads, so CI runs it in its own lint step.
staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@2023.1.7 ./...

# Fails (and lists the offenders) if any file needs gofmt.
fmt:
	@out="$$($(GOFMT) -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Fails (and names the stale alternative) if any -run or -bench list
# below names no test, benchmark or fuzz target: `go test -run 'A|Gone'`
# passes silently once Gone is renamed or deleted.
gate-names:
	GO=$(GO) sh scripts/check_run_names.sh Makefile

# The determinism gate: the full experiment suite must render the
# golden bytes on 1 worker and many, and with several sweeps side by
# side in one process; the faulted experiments must match their golden
# sections across side-by-side replays × workers; the event-driven
# tick must match the full-scan test oracle bit for bit, alone and with
# simulations (forks of one world among them) running side by side,
# and so must the same-instant passes (only the hosts dirtied since the
# last pass),
# event log included, hyper -quick's five runs, and the differential
# fuzz target's seed corpus of event programs; the incremental planner
# must match its full-scan oracle; the packing core, the drain planner
# and the drain replay (consecutive replans with small changes between
# them, its fuzz target's seed corpus included) must match the
# map-based planner they replaced, and MinBins a fresh pack of every
# prefix; the drain's start path (start candidates off the live plan)
# must start the moves, and count the refusals, of the per-VM loop it
# replaced, with and without a per-step cap, a VM on backoff and a
# control plane; the manager's per-host planning rows must match the
# whole-fleet pass at every use in the parity worlds, the live drain
# plans, the drain harness and the faulted experiments
# (core.CheckPlanningRowsForAll), and a drain bin must follow the
# demand of a VM migrating in;
# forked worlds must match cold ones;
# and the lossy control-plane message layer must replay identically for
# a fixed seed and deliver tied messages in its pinned order; and the
# event queue, batches included, must fire, cancel and count exactly as
# a sorted-slice reference does (its fuzz target's seed corpus
# included); and every file in scenarios/ must print its golden report
# under -policy all, and keep its accounting identities (delivered at
# most demand, VMs conserved, stranded and pending counts exact) at
# every tick under every policy, as must the forked feature matrix.
# Run explicitly in CI (it is also part of `make test`) so a violation
# is unmissable.
determinism:
	$(GO) test -run 'TestRunAllMatchesGolden|TestScenarioLibraryMatchesGolden|TestFaultedExperimentsMatchGolden|TestHyperscaleQuickMatchesFullScan|TestPlaneDeterministicAcrossReruns|TestPlaneDeliveryOrderPinned|TestDeltaEvaluateBitIdentical|TestShardedEvaluateBitIdentical|TestSameInstantEvaluateMatchesFullScan|FuzzEvaluateMatchesFullScan|TestIncrementalPlanningParity|TestBinRowsTrackInboundDemand|TestPackMatchesOracle|TestMinBinsMatchesOracle|TestPlanDrainMatchesOracle|TestPlanDrainMatchesOracleLive|TestDrainReplayMatchesOracle|FuzzDrainReplay|TestDrainStartsMatchPerVMLoop|TestForkMatchesColdStart|TestForkGridMatchesColdStart|TestConcurrentForksMatchColdStart|TestEngineMatchesReference|FuzzEngineMatchesReference|TestScenarioLibraryKeepsAccounting|TestForkedRunsKeepAccounting' -v \
		./internal/experiments/ ./internal/ctrlplane/ ./internal/cluster/ ./internal/core/ ./internal/sim/ ./cmd/scenario/ .

bench:
	$(GO) test -run '^$$' -bench=. -benchmem -benchtime=1x -count=3 ./...

# One iteration of every benchmark in every package — a compile-and-run
# smoke so benchmarks cannot rot, not a measurement.
bench-smoke:
	$(GO) test -run '^$$' -bench=. -benchtime=1x ./...

# Record a labelled benchmark run into a JSON artifact (appends to any
# runs already in the file). Override LABEL to name the run and OUT to
# pick the artifact:
#
#	make bench-baseline LABEL=sequential-baseline OUT=BENCH_parallel.json
bench-baseline: LABEL ?= parallel
bench-baseline: OUT ?= BENCH_parallel.json
bench-baseline:
	$(GO) test -run '^$$' -bench=. -benchmem -benchtime=1x -count=3 . \
		| $(GO) run ./cmd/benchjson -label $(LABEL) -out $(OUT)

# Record the hot-path benchmarks (evaluate loop on 256 hosts: the tick
# a run fires as the clock advances one step, the full-scan oracle at
# one repeated instant, and a pass at an already-evaluated instant
# after two hosts changed; manager control step, simulated day, and the
# event engine: chained dispatch one deep, 10,000 queued events, a
# steady 512-deep self-rescheduling queue, and control-plane sweeps of
# 128 batched messages beside 128 long-lived timers) into
# BENCH_hotpath.json. The checked-in artifact holds the pre/post
# numbers of the allocation-free rework, of the typed event queue, of
# the same-instant pass and of the batched sweeps; re-run after any
# change to the evaluate, control or dispatch paths:
#
#	make bench-hotpath LABEL=hotpath-post
bench-hotpath: LABEL ?= hotpath
bench-hotpath:
	$(GO) test -run '^$$' -bench '^(BenchmarkClusterEvaluate|BenchmarkEvaluateSameInstant|BenchmarkSimulatedDay|BenchmarkManagerControlStep|BenchmarkEngine(Throughput|QueuePressure|Dispatch|Sweep))$$' \
		-benchmem -count=3 ./internal/cluster/ ./internal/core/ ./internal/sim/ \
		| $(GO) run ./cmd/benchjson -label $(LABEL) -out BENCH_hotpath.json

# Record the datacenter-scale benchmarks (one tick as the clock
# advances, one full-scan-oracle pass at a repeated instant, and one
# full simulated day at 2048 hosts / 16384 VMs) into BENCH_scale.json.
# The checked-in artifact holds the pre/post numbers of the
# sharded-evaluation rework, of the deadline sweep and of the serial
# tick that replaced the sharded one; name the machine in the label:
#
#	make bench-scale LABEL=scale-serial-gomaxprocs2-cpu2
bench-scale: LABEL ?= scale
bench-scale:
	$(GO) test -run '^$$' -bench 'BenchmarkScaleEvaluate|BenchmarkScaleDay' \
		-benchmem -count=3 -timeout 30m ./internal/cluster/ \
		| $(GO) run ./cmd/benchjson -label $(LABEL) -out BENCH_scale.json

# One iteration of the scale benchmarks: proves the 2048-host fleet
# still builds and both evaluation modes run, without the cost of a
# measurement run. CI runs this alongside bench-alloc.
bench-scale-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkScaleEvaluate' -benchmem -benchtime=1x \
		./internal/cluster/

# Record the hyperscale benchmarks (one steady-state evaluation tick on
# the 16384-host / 131072-VM quiescent-majority fixture: the full-scan
# test oracle versus the event-driven tick) into BENCH_hyperscale.json.
# The checked-in artifact holds the pre/post numbers of the
# delta-evaluation rework and of the deadline sweep that replaced the
# due-heaps; the acceptance bar is the tick >= 10x faster than the
# oracle at 0 allocs/op:
#
#	make bench-hyperscale LABEL=hyperscale-post-sweep
bench-hyperscale: LABEL ?= hyperscale
bench-hyperscale:
	$(GO) test -run '^$$' -bench 'BenchmarkHyperscaleEvaluate' \
		-benchmem -benchtime=500x -count=3 -timeout 30m ./internal/cluster/ \
		| $(GO) run ./cmd/benchjson -label $(LABEL) -out BENCH_hyperscale.json

# The hyperscale gate without a measurement run: one iteration of the
# tick benchmarks, the tick's 0-alloc gate, the quick-mode heap budget
# assertion (which also compares the report with its golden section),
# and hyper -quick's five runs compared bit for bit with the full-scan
# oracle. CI runs this as its hyperscale smoke job.
bench-hyperscale-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkHyperscaleEvaluate' -benchmem -benchtime=1x \
		./internal/cluster/
	$(GO) test -run 'TestDeltaSteadyStateAllocFree|TestHyperscaleQuickHeapBudget|TestHyperscaleQuickMatchesFullScan' -v \
		./internal/cluster/ ./internal/experiments/ .

# Record the manager-planning benchmarks into BENCH_manager.json: one
# steady-state control step over the 16384-host / 131072-VM
# quiescent-majority fixture (the full-scan test oracle versus the
# incremental planner; the acceptance bar is incremental >= 10x faster
# than full-scan at 0 allocs/op) and over a 32-host fleet, the
# scale-down search (MinBins) at 200 VMs / 32 hosts on the reused
# packer the control step runs, once packing at the first prefix the
# capacity bound allows and once with anti-affinity groups that fail
# seven prefixes first, the forecast
# upkeep as simulated time moves one evaluation step per op, on a
# 4096-VM mixed fleet (read at every invocation, and at every fifth as
# nopm-drm reads) and on the hyperscale fixture, and one
# migration-completion replan, on a wide drain with short first-fit
# scans, on one shaped like hyper -quick's, whose scans are long, on
# that one with what a completion dirties changed before each op, and
# on that one as real completions, each freeing a destination slot so
# the op starts moves:
#
#	make bench-manager LABEL=manager-post-incremental
bench-manager: LABEL ?= manager
bench-manager:
	$(GO) test -run '^$$' -bench '^(BenchmarkManagerControlStepHyperscale|BenchmarkManagerControlStep|BenchmarkMinBins|BenchmarkForecastUpkeep|BenchmarkDrainReplan)$$' \
		-benchmem -benchtime=50x -count=3 -timeout 30m ./internal/core/ \
		| $(GO) run ./cmd/benchjson -label $(LABEL) -out BENCH_manager.json

# The manager-cost gate without a measurement run: one iteration of the
# control-step, MinBins, forecast-upkeep and drain-replan benchmarks,
# the completion case that starts moves included (so the fixtures
# cannot rot), the 0-alloc assertions for the cached
# and the recomputed control step and for an invocation that reads no
# forecast, the parity property tests that hold the incremental planner
# against its full-scan oracle and its planning rows against the
# whole-fleet pass, and a static day that keeps no forecast up until an
# arrival reads them. CI runs this as its manager-gate job; part of
# `make ci`.
bench-manager-smoke:
	$(GO) test -run '^$$' -bench '^(BenchmarkManagerControlStepHyperscale|BenchmarkManagerControlStep|BenchmarkMinBins|BenchmarkForecastUpkeep|BenchmarkDrainReplan)$$' -benchmem -benchtime=1x \
		./internal/core/
	$(GO) test -run 'TestManagerStepSteadyStateAllocFree|TestPackServingAllocFree|TestUnreadInvocationAllocFree|TestIncrementalPlanningParity|TestStaticManagerSkipsForecastUpkeep' -v \
		./internal/core/

# Record the world-setup benchmarks (per-cell world construction and
# end-to-end session creation, cold versus forked from a shared
# prototype, at 256-host and 16384-host scale, and the per-VM-trace
# fleet builds of the end-to-end benchmark's dc-policies and
# fleet-static set-ups) into BENCH_setup.json. The checked-in artifact
# holds the pre/post numbers of the snapshot/fork rework; the
# acceptance bar is fork >= 5x cheaper than cold world construction at
# quick scale:
#
#	make bench-setup LABEL=setup-post-fork
# The bench output lands in a temp file and is recorded afterwards —
# piping straight into `go run` would compile benchjson concurrently
# with the measurement and steal CPU from it.
bench-setup: LABEL ?= setup
bench-setup:
	$(GO) test -run '^$$' -bench '(BenchmarkWorldBuildVsFork|BenchmarkWorldForkVsColdStart)/cold' \
		-benchmem -benchtime=200x -count=3 -timeout 30m . > bench_setup_cold.tmp
	$(GO) test -run '^$$' -bench '(BenchmarkWorldBuildVsFork|BenchmarkWorldForkVsColdStart)/fork' \
		-benchmem -benchtime=200x -count=3 -timeout 30m . > bench_setup_fork.tmp
	$(GO) test -run '^$$' -bench '^BenchmarkFleetBuild$$' \
		-benchmem -benchtime=10x -count=3 -timeout 30m . > bench_setup_fleet.tmp
	$(GO) run ./cmd/benchjson -label $(LABEL)-pre-cold -out BENCH_setup.json < bench_setup_cold.tmp
	$(GO) run ./cmd/benchjson -label $(LABEL)-post-fork -out BENCH_setup.json < bench_setup_fork.tmp
	$(GO) run ./cmd/benchjson -label $(LABEL)-fleet-build -out BENCH_setup.json < bench_setup_fleet.tmp
	rm -f bench_setup_cold.tmp bench_setup_fork.tmp bench_setup_fleet.tmp

# The setup-cost gate without a measurement run: one iteration of the
# setup benchmarks and the fleet builds (so the fixtures cannot rot),
# the fork-vs-cold byte-identity tests, the forked-tick 0-alloc
# assertion, and the screened-placement regression test. CI runs this
# as its setup-gate job; part of `make ci`.
bench-setup-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkWorldBuildVsFork|BenchmarkWorldForkVsColdStart|BenchmarkFleetBuild' \
		-benchmem -benchtime=1x .
	$(GO) test -run 'TestForkMatchesColdStart|TestForkGridMatchesColdStart|TestConcurrentForksMatchColdStart|TestForkedEvaluateSteadyStateAllocFree|TestPlaceInitialMatchesLegacyRetry' -v \
		. ./internal/cluster/

# Allocation regression gate: the steady-state evaluation tick, cold
# and forked, and the same-instant pass, the handle-free event loop,
# a warm engine batch, the control plane's heartbeats, reports and
# sweeps, the manager's cached control step and one that re-runs the
# MinBins search, an invocation that reads no forecast, the drain
# replan a migration completion runs, and
# every refused StartMigration must stay allocation-free, and the full
# report bytes must match the pre-optimization goldens. Part of
# `make ci`.
bench-alloc:
	$(GO) test -run 'AllocFree|ScheduleFuncPool|RunAllMatchesGolden|ArchivedResults' -v \
		./internal/cluster/ ./internal/sim/ ./internal/ctrlplane/ ./internal/experiments/ ./internal/core/

# Record the full-scale service load test into BENCH_api.json: a
# thousand concurrent sessions against a race-enabled daemon, with a
# hot/cold request mix so the artifact holds both the cache-hit and
# cold-run latency distributions (the cache acceptance bar is hit mean
# >= 100x below cold mean):
#
#	make bench-api LABEL=api-load
bench-api: LABEL ?= api-load
bench-api:
	APIGATE_SESSIONS=1000 APIGATE_PER_SESSION=4 APIGATE_LABEL=$(LABEL) \
		sh scripts/api_gate.sh

# The service gate without a measurement run: race-enabled daemon, a
# burst of concurrent sessions posting scenario files to
# /v1/scenarios?wait=1 (zero failed jobs, a cache hit rate floor and a
# cold-vs-hit speedup floor — cmd/apiload enforces all three),
# graceful drain, and the persisted terminal-job ledger. Part of
# `make ci`.
bench-api-smoke:
	sh scripts/api_gate.sh

# The end-to-end benchmark module (bench/, its own Go module, so the
# root `go test ./...` skips it): vet it and run its tests — the
# comparator rule, the CPU attribution and a tiny smoke run of every
# workload. About 2 s. Part of `make ci`.
bench-e2e-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# The scenario gate: every file in the curated scenarios/ library must
# parse and validate, and two of them (the chaos az-outage and the
# hand-scripted demand-surge drill) run end-to-end with their
# assertions — cmd/scenario exits 2 on any failed assertion or
# stranded VM, which fails the target. A quick all-policy run of the
# mixed day exercises the savings lines, the oracle bound and the
# -csv series dump. Part of `make ci`.
scenario-gate:
	$(GO) run ./cmd/scenario validate scenarios/*.json
	$(GO) run ./cmd/scenario run scenarios/az-outage.json
	$(GO) run ./cmd/scenario run scenarios/demand-surge.json
	$(GO) run ./cmd/scenario run -quick -policy all -csv "$$(mktemp)" scenarios/mixed-day.json

# Fast end-to-end smoke: the whole paper reproduction in quick mode.
sweep-quick:
	$(GO) run ./cmd/sweep -exp all -quick

# Everything the CI workflow runs, in the same order, for one local
# command that predicts a green pipeline.
ci: vet fmt gate-names build test test-shuffle race determinism bench-alloc bench-scale-smoke bench-hyperscale-smoke bench-manager-smoke bench-setup-smoke bench-api-smoke bench-e2e-smoke scenario-gate bench-smoke

clean:
	$(GO) clean ./...
