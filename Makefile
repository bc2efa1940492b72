GO ?= go

.PHONY: build test short race vet fmt-check lint staticcheck examples fuzz-smoke stress chaos chaos-supervision chaos-fleet chaos-gray chaos-zone chaos-restart chaos-fleet-big bench bench-compare bench-test bench-memory ci clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Fast loop: the chaos harness drops from 500 to 60 invocations.
short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Every Go file outside testdata (and outside dot-directories such as
# build caches) must be gofmt-clean; the target lists the offenders.
fmt-check:
	@out=$$(gofmt -l $$(find . -name '*.go' -not -path '*/testdata/*' -not -path './.*')); \
	if [ -n "$$out" ]; then echo "gofmt needed:" >&2; echo "$$out" >&2; exit 1; fi

# The repo's own invariant suite (wallclock, ctxflow, typederr,
# lockdiscipline, maporder, trackedgo, faultsite); see DESIGN.md
# "Enforced invariants".
lint:
	$(GO) run ./cmd/catalyzer-vet ./...

# staticcheck is optional tooling locally, mandatory in CI: skip quietly
# where it isn't installed unless $$CI is set.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	elif [ -n "$$CI" ]; then \
		echo "staticcheck required in CI but not installed" >&2; exit 1; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi

# Every example program end to end with go run, its stdout diffed
# against testdata/examples/<name>.txt; the first difference or non-zero
# exit fails the target. The exit status is written into the diffed
# stream, so a failing program differs even when its output does not.
examples:
	@for d in examples/*/; do \
		n=$$(basename $$d); \
		echo "go run ./$$d"; \
		{ $(GO) run ./$$d || echo "exit status $$?"; } | diff -u testdata/examples/$$n.txt - || exit 1; \
	done

# Seed corpora for every fuzz target, then a short randomized budget per
# target (CI runs it with FUZZTIME=30s).
FUZZTIME ?= 5s

fuzz-smoke:
	$(GO) test -run Fuzz ./internal/serial/ ./internal/vfs/ ./internal/image/ ./internal/memory/ ./internal/oci/
	$(GO) test -fuzz FuzzDecodeBaseline -fuzztime $(FUZZTIME) ./internal/serial/
	$(GO) test -fuzz FuzzDecodeRecords -fuzztime $(FUZZTIME) ./internal/serial/
	$(GO) test -fuzz FuzzDecodeMounts -fuzztime $(FUZZTIME) ./internal/vfs/
	$(GO) test -fuzz 'FuzzDecode$$' -fuzztime $(FUZZTIME) ./internal/image/
	$(GO) test -fuzz FuzzJournal -fuzztime $(FUZZTIME) ./internal/image/
	$(GO) test -fuzz FuzzManifest -fuzztime $(FUZZTIME) ./internal/image/
	$(GO) test -fuzz FuzzAddressSpaceModel -fuzztime $(FUZZTIME) ./internal/memory/
	$(GO) test -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/oci/

# Concurrency hardening: the overload/stress/keep-warm suites twice each
# under the race detector.
stress:
	$(GO) test -race -count=2 -run 'Overload|Stress|Concurrent|KeepWarm|Pressure' . ./cmd/catalyzerd/ ./internal/platform/ ./internal/admission/ ./internal/guest/ ./internal/core/

# Full seeded chaos run (500 invocations at 30% fault rates) on its own.
chaos:
	$(GO) test -run 'Chaos' -v .

# Supervision & self-healing suite (probes, watchdog, lineage poisoning,
# crash-loop parking, the same-seed supervision golden) under the race
# detector; CI runs this target.
chaos-supervision:
	$(GO) test -race -count=2 -run 'TestChaosSupervision|TestChaosSupervisionDeterministic|TestPoisonedTemplateContainment|TestWatchdogKillReleasesAdmissionSlot|TestCrashLoopParksAndRecovers|TestShutdownDrainsSupervision' ./...

# Fleet convergence suite (machine crash injection, failover placement,
# re-replication, same-seed determinism) under the race detector;
# mirrors the CI race job.
chaos-fleet:
	$(GO) test -race -count=2 -run 'TestChaosFleet|TestFleet|TestCrashFailover|TestPartitionMarksDown|TestCrashedMachineRestarts|TestSameSeedSameSchedule|TestRemoteFork' ./...

# Gray-failure defense suite (adaptive timeouts, hedged invocations,
# retry/hedge budget, outlier ejection and re-admission, brownout, and
# same-seed determinism of every hedge/eject decision) under the race
# detector; mirrors the CI race job.
chaos-gray:
	$(GO) test -race -count=2 -run 'TestChaosGray|TestGray|TestHedge|TestRetryBudget|TestBudgetBounds|TestAdaptiveTimeout|TestBackoffSaturates|TestEjected|TestMaxEjectFraction|TestKeyed|TestDisarmKeyed|TestRegisterEvery|TestFleetHealthReportsBrownout|TestFleetErrorStatusMapping|TestFleetInvokeBudgetExhausted|TestValidateFlags' ./...

# Failure-domain suite (zone-aware replica spread, the scripted
# correlated-failure scenario engine, repair-budget storm control, and
# same-seed determinism of the whole outage script) under the race
# detector; mirrors the CI race job.
chaos-zone:
	$(GO) test -race -count=2 -run 'TestChaosZone|TestScenario|TestZone|TestDeploySpreads|TestForcedSameZone|TestStructuralDoubleUp|TestMergedRepairPlan|TestInstallScenario|TestRepairBudget|TestRepairDeferred|TestRestartPreservesZone|TestRateOneKeyedDraw|TestFleetZoneDegraded|TestFleetNoSurvivorsOverHTTP' ./...

# Fleet durability suite (per-machine crash-consistent stores, durable
# replica pulls, whole-fleet cold restart with torn stores, divergence
# reconciliation, and same-seed determinism of the entire restart
# pipeline) under the race detector; mirrors the CI race job.
chaos-restart:
	$(GO) test -race -count=2 -run 'TestChaosRestart|TestRecover|TestImportTornWrite|TestImportWriteSite|TestReplaceImageQuarantines|TestImportImageKeepsLocalState|TestValidateFlags' ./...

# Scaled smoke: 100 machines × 3 zones × 1000 synthetic functions in
# virtual time, with one gray member ejected under load and one scripted
# whole-zone outage healed mid-traffic. Under two minutes of wall clock
# on 2 vCPUs, so CI runs it as its own step without -race;
# CATALYZER_CHAOS_MACHINES overrides the size.
chaos-fleet-big:
	CATALYZER_CHAOS_BIG=1 $(GO) test -run 'TestChaosFleetBig' -v .

# Full benchmark set: every workload of BENCHMARK.json, 5 runs plus one
# traced run each, written under the commit it measured.
bench:
	bash bench/run.sh -runs 5 -traced -out bench/results/$$(git rev-parse HEAD).json

# Compare two benchmark sets under BENCHMARK.json's bounds:
#   make bench-compare OLD=bench/results/<old>.json NEW=bench/results/<new>.json
bench-compare:
	bash bench/run.sh compare $(OLD) $(NEW)

# Unit tests of the benchmark module, which builds against the root
# package's API.
bench-test:
	cd bench && $(GO) test ./...

# One iteration of every internal/memory, internal/serial,
# internal/guest, internal/fleet and internal/obs benchmark, so they keep
# compiling and running (BenchmarkForkTouchRelease is a SPECjbb-sized
# fork, touch and release; BenchmarkEncodeRecords encodes a 20,000-object
# checkpoint; BenchmarkPlace places one request on a 10- and a
# 100-machine ring; BenchmarkStats reads fleet stats after 10^3 and 10^6
# recorded invocations; BenchmarkObserve records into a latency
# histogram).
bench-memory:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/memory/ ./internal/serial/ ./internal/guest/ ./internal/fleet/ ./internal/obs/

ci: vet fmt-check staticcheck lint race examples chaos-supervision chaos-fleet chaos-gray chaos-zone chaos-restart chaos-fleet-big fuzz-smoke bench-test bench-memory

clean:
	$(GO) clean ./...
