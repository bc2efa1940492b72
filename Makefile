GO ?= go

.PHONY: build test short race vet lint staticcheck fuzz-smoke stress chaos chaos-supervision chaos-fleet chaos-gray chaos-zone chaos-restart chaos-fleet-big bench bench-compare ci clean

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

# The repo's own invariant suite (wallclock, ctxflow, typederr,
# lockdiscipline, metricsreg, maporder, trackedgo, faultsite,
# statsmirror); see DESIGN.md "Enforced invariants".
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

# Seed corpora for every fuzz target, then a short randomized budget.
fuzz-smoke:
	$(GO) test -run Fuzz ./internal/serial/ ./internal/vfs/ ./internal/image/
	$(GO) test -fuzz FuzzDecodeBaseline -fuzztime 5s ./internal/serial/
	$(GO) test -fuzz FuzzDecodeRecords -fuzztime 5s ./internal/serial/
	$(GO) test -fuzz FuzzDecodeMounts -fuzztime 5s ./internal/vfs/
	$(GO) test -fuzz FuzzDecode -fuzztime 5s ./internal/image/
	$(GO) test -fuzz FuzzJournal -fuzztime 5s ./internal/image/
	$(GO) test -fuzz FuzzManifest -fuzztime 5s ./internal/image/

# Concurrency hardening: the overload/stress/keep-warm suites twice each
# under the race detector.
stress:
	$(GO) test -race -count=2 -run 'Overload|Stress|Concurrent|KeepWarm|Pressure' . ./internal/platform/ ./internal/admission/

# Full seeded chaos run (500 invocations at 30% fault rates) on its own.
chaos:
	$(GO) test -run 'Chaos' -v .

# Supervision & self-healing suite (probes, watchdog, lineage poisoning,
# crash-loop parking) under the race detector; mirrors the CI race job.
chaos-supervision:
	$(GO) test -race -count=2 -run 'TestChaosSupervision|TestPoisonedTemplateContainment|TestWatchdogKillReleasesAdmissionSlot|TestCrashLoopParksAndRecovers|TestShutdownDrainsSupervision' ./...

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

ci: vet staticcheck lint race

clean:
	$(GO) clean ./...
