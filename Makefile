GO ?= go

.PHONY: all build vet fmt test race check ci bench bench-smoke bench-check bench-gate-test campaign storm fuzz-short frontier coverage-floor serve-smoke

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt fails, listing the offenders, when any tracked Go file is not
# gofmt-clean.
fmt:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# internal/bench alone needs most of an hour of CPU under the race
# detector; the explicit timeout keeps it from dying at go test's 10m
# default.
race:
	$(GO) test -race -timeout 30m ./...

# campaign runs the randomized bug campaign on a fixed seed set with a
# wall-clock budget. Exit status 1 (with one-line repro commands printed)
# on any oracle violation.
campaign:
	$(GO) run ./cmd/safemem-fuzz -seeds 48 -shards 8 -budget 30s

# storm reruns a seeded campaign on flaky DIMMs: a background DRAM fault
# process with error-storm episodes, the kernel scrub daemon, and page
# retirement instead of panics. It must complete with zero crashes and zero
# oracle violations — detection quality survives failing hardware.
storm:
	$(GO) run ./cmd/safemem-fuzz -seeds 24 -shards 8 -budget 30s -fault-rate 40 -storm -retire

# frontier regenerates the tracked detection-probability frontier
# (BENCH_frontier.json): sampling rate × fleet size over the campaign bug
# templates, validated against the analytic 1-(1-1/N)^k before writing.
frontier:
	$(GO) run ./cmd/safemem-bench -experiment frontier

# fuzz-short gives each native fuzz target a few seconds of coverage-guided
# exploration on top of its checked-in seed corpus.
fuzz-short:
	$(GO) test ./internal/ecc -run '^$$' -fuzz FuzzDecode -fuzztime 3s
	$(GO) test ./internal/ecc -run '^$$' -fuzz FuzzEncodeRoundTrip -fuzztime 3s
	$(GO) test ./internal/ecc -run '^$$' -fuzz FuzzScramble -fuzztime 3s
	$(GO) test ./internal/sampletool -run '^$$' -fuzz FuzzSampleDecisions -fuzztime 3s
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzReader -fuzztime 3s
	$(GO) test ./internal/machine -run '^$$' -fuzz FuzzMachineDifferential -fuzztime 3s

# coverage-floor holds the safety-critical packages to statement-coverage
# thresholds: the sampling tool (a bookkeeping slip means phantom reports
# or double-watched lines) and the serving fleet (its error paths —
# admission rejects, retries, panic isolation, drains — are exactly the
# code that only runs when something is already wrong).
coverage-floor:
	./scripts/coverage_floor.sh ./internal/sampletool 85 ./internal/fleet 80

# serve-smoke is the serving-stack end-to-end gate: a full safemem-serve
# stack (fleet + observability plane on one listener) driven over real
# HTTP with a mixed job batch (all scenario tools incl. sampling, fault
# models, app jobs) plus its chaos variant (injected panics, stalls and
# transient failures under bursty submission), under the race detector.
# Every admitted job must reach a terminal state, the stack must drain
# cleanly, and zero goroutines may leak.
serve-smoke:
	$(GO) test -race -count=1 -run 'TestServeSmoke' ./internal/fleet

# check is the full verification gate: compile, vet, tests, race tests,
# short fuzzing, the randomized campaigns (clean and storm hardware), and
# the host-speed gate (bench-check) against the tracked benchmark baselines.
check: build vet test race fuzz-short campaign storm bench-check

# ci is the continuous-integration gate (.github/workflows/ci.yml): the
# full build + vet + gofmt + test sweep, a shuffled re-run of the order-sensitive
# packages and of SafeMem's core (its arming-policy table), the coverage floors, a race-detector pass over the
# concurrent serving/observability/telemetry layers, the sample-tool
# campaign and the pooled machine-reuse path (pooled-vs-reference
# equivalence, the never-repool taint rule, the telemetry bypass, the
# machine package, whose pool survives GC) — cheap
# enough for every push, unlike `make race` — the serving-stack chaos smoke,
# the benchmark gate's self-test, the per-cycle and per-scenario cost
# benchmark smoke, and the host-speed gate over the repository benchmark.
ci: build vet fmt test
	$(GO) test -shuffle=on -count=1 ./internal/sampletool ./internal/campaign ./internal/bench/frontier ./internal/core
	$(MAKE) coverage-floor
	$(GO) test -race ./internal/obsrv/... ./internal/telemetry/... ./internal/fleet
	$(GO) test -race -run 'TestSampleCampaign|TestSampleRateOne$$' ./internal/campaign
	$(GO) test -race -count=1 -run 'Test(TLB|BatchLane|Recycle)Equivalence|NeverRepooled|TestCleanRunRepooled|TestTelemetryRunNotPooled' ./internal/campaign ./internal/bench
	$(GO) test -race -count=1 ./internal/machine
	$(MAKE) serve-smoke
	$(MAKE) bench-gate-test
	$(MAKE) bench-smoke
	$(MAKE) bench-check

# bench runs every Go benchmark in the tree (ECC encode/decode, cache hit
# path, controller read path, ablations, ...).
bench:
	$(GO) test -bench=. -benchmem -run '^$$' ./...

# bench-smoke runs the cold machine build, machine-recycle, batch-lane
# single- and two-stream, run-length, monitored-run, line-write, watch/unwatch, disabled-span and
# per-scenario campaign benchmarks once each, so they keep compiling and
# running.
# Compare RecycleFewDirtyLines across its two DRAM sizes by hand: recycling
# must cost what the run dirtied, so its ns/op stays roughly flat as
# MemBytes grows. For numbers, rerun one with a larger -benchtime:
# MachineNew reports the ns and host bytes of a cold 32 MiB New (DRAM is
# sparse, so B/op is far below the simulated size), LoadRunScan (one row
# per single-stream kind: a 128 KiB pass of 8-byte LoadRun, ScanRun and
# StoreRun, LoadByteRun, StoreByteRun and Memset; and a 32 KiB LoadRun and
# ScanRun over lines in ways that vary from set to set) and CopyCompareRun (a 128 KiB copy,
# then a compare of the two copies) report host ns per 64-byte line and 0
# allocs/op and fail if they leave the fast lane, ShortCompareRun reports
# the ns and 0 allocs of one 1-127-byte compare (gzip's match loop) and
# fails if it leaves the fast lane, RunLength reports host ns per line of a
# 32 KiB resident pass cut into runs (8-byte LoadRuns of 1, 8, 64 and 512
# lines, co-aligned CopyRuns of 8 lines: what a run costs beyond its
# lines) and 0 allocs/op and fails if it leaves the fast lane, MonitoredRun reports host ns per element
# of a 4 KiB LoadRun and CopyRun with a monitor attached (runs the lane
# refuses at entry, every element per access) and fails if one enters the
# lane, WatchUnwatch reports 0 allocs/op, DisabledSpan
# reports the ns and 0 allocs of a Begin/End pair on a tracer that is not
# recording (what every instrumented hot path pays with tracing off), and
# Scenario's B/op is the host garbage one campaign scenario leaves behind;
# it fails unless builds/op is 0, since the machine pool survives GC.
bench-smoke:
	$(GO) test -run '^$$' -bench 'MachineNew|Recycle|LoadRunScan|CopyCompareRun|ShortCompareRun|RunLength|MonitoredRun|WriteLine' -benchmem -benchtime 1x ./internal/machine ./internal/memctrl
	$(GO) test -run '^$$' -bench 'WatchUnwatch|DisabledSpan|Scenario' -benchmem -benchtime 1x ./internal/kernel ./internal/telemetry ./internal/campaign

# bench-check guards host performance through the repository benchmark. It
# runs the apps-bare, apps-safemem, campaign and fleet workloads for 5 s
# each and checks each result against the tracked BENCH_<workload>.json
# with scripts/bench_gate.sh: it fails if the result is not correct (the
# seed-1 digests), if its failed share of ops rose, or if ops_per_s fell
# below 75% of the baseline. Per-app batch-lane behaviour is pinned
# deterministically by TestAppLaneCountsPinned (internal/bench), not here.
# After a deliberate perf trade-off, accept the new numbers with
# `make bench-check BENCHFLAGS=-update`.
bench-check:
	for w in apps-bare apps-safemem campaign fleet; do \
		rm -f .bench_build/$$w.json; \
		bash benchmark/run.sh --workload $$w --seconds 5 --trace 0 --out .bench_build/$$w.json; \
		status=$$?; \
		case " $(BENCHFLAGS) " in \
		*" -update "*) [ $$status -eq 0 ] && cp .bench_build/$$w.json BENCH_$$w.json || exit 1 ;; \
		*) ./scripts/bench_gate.sh BENCH_$$w.json .bench_build/$$w.json || exit $$? ;; \
		esac; \
	done

# bench-gate-test checks bench-check's gate against each tracked
# BENCH_<workload>.json: the baseline passes against itself, a result fails
# (exit 1, naming its workload) against a copy of the baseline with
# ops_per_s doubled, and a truncated result is refused (exit 2).
bench-gate-test:
	mkdir -p .bench_build
	for w in apps-bare apps-safemem campaign fleet; do \
		./scripts/bench_gate.sh BENCH_$$w.json BENCH_$$w.json || exit 1; \
		jq '.[].metrics.ops_per_s.value *= 2' BENCH_$$w.json > .bench_build/$$w-doubled.json || exit 1; \
		msg=$$(./scripts/bench_gate.sh .bench_build/$$w-doubled.json BENCH_$$w.json 2>&1); \
		[ $$? -eq 1 ] || { echo "$$w: doubled baseline did not exit 1: $$msg"; exit 1; }; \
		case "$$msg" in *"$$w"*) ;; *) echo "$$w: gate message does not name the workload: $$msg"; exit 1 ;; esac; \
		head -c 200 BENCH_$$w.json > .bench_build/$$w-truncated.json; \
		./scripts/bench_gate.sh BENCH_$$w.json .bench_build/$$w-truncated.json 2>/dev/null; \
		[ $$? -eq 2 ] || { echo "$$w: truncated result did not exit 2"; exit 1; }; \
	done
