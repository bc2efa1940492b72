package fleet

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"catalyzer/internal/faults"
	"catalyzer/internal/platform"
	"catalyzer/internal/simtime"
)

// zonesOf maps a replica set to its member zones.
func zonesOf(f *Fleet, reps []int) map[int]bool {
	out := make(map[int]bool)
	for _, idx := range reps {
		out[f.memberAt(idx).zone] = true
	}
	return out
}

func TestDeploySpreadsReplicasAcrossZones(t *testing.T) {
	f := newTestFleet(t, Config{Machines: 6, Zones: 3, Replication: 3})
	ctx := context.Background()
	for _, fn := range []string{"c-hello", "java-hello", "python-hello"} {
		if err := f.Deploy(ctx, fn); err != nil {
			t.Fatal(err)
		}
		reps := f.Replicas(fn)
		if len(reps) != 3 {
			t.Fatalf("%s replicas = %v, want 3", fn, reps)
		}
		if z := zonesOf(f, reps); len(z) != 3 {
			t.Fatalf("%s replicas %v cover zones %v, want 3 distinct", fn, reps, z)
		}
	}
	if st := f.Stats(); st.ZoneSpreadViolations != 0 || st.Zones != 3 {
		t.Fatalf("healthy deploy stats: %+v", st)
	}
}

func TestForcedSameZonePlacementCountsViolation(t *testing.T) {
	// Zones: z0 = {0, 2}, z1 = {1, 3}. Losing all of z1 forces both
	// replicas of a new deploy into z0 — a counted violation, because a
	// configured zone sits uncovered.
	f := newTestFleet(t, Config{Machines: 4, Zones: 2, Replication: 2})
	ctx := context.Background()
	if err := f.Kill(1); err != nil {
		t.Fatal(err)
	}
	if err := f.Kill(3); err != nil {
		t.Fatal(err)
	}
	if err := f.Deploy(ctx, "c-hello"); err != nil {
		t.Fatal(err)
	}
	reps := f.Replicas("c-hello")
	if len(reps) != 2 {
		t.Fatalf("replicas = %v, want 2 survivors", reps)
	}
	if z := zonesOf(f, reps); len(z) != 1 {
		t.Fatalf("replicas %v cover zones %v, want forced single zone", reps, z)
	}
	if st := f.Stats(); st.ZoneSpreadViolations == 0 {
		t.Fatalf("forced same-zone placement not counted: %+v", st)
	}
}

func TestStructuralDoubleUpIsNotAViolation(t *testing.T) {
	// R = 3 over 2 zones: one double-up is structural, not forced.
	f := newTestFleet(t, Config{Machines: 4, Zones: 2, Replication: 3})
	if err := f.Deploy(context.Background(), "c-hello"); err != nil {
		t.Fatal(err)
	}
	reps := f.Replicas("c-hello")
	if z := zonesOf(f, reps); len(z) != 2 {
		t.Fatalf("replicas %v cover zones %v, want both zones", reps, z)
	}
	if st := f.Stats(); st.ZoneSpreadViolations != 0 {
		t.Fatalf("structural double-up counted as violation: %+v", st)
	}
}

// TestMergedRepairPlanTwoSimultaneousDowns pins the batch repair
// contract: two machines lost in the same poll produce one merged,
// deterministic plan with no double-assigned replica slots.
func TestMergedRepairPlanTwoSimultaneousDowns(t *testing.T) {
	run := func() (map[string][]int, Stats) {
		f := newTestFleet(t, Config{Machines: 6, Zones: 3, Replication: 3})
		ctx := context.Background()
		fns := []string{"c-hello", "java-hello", "python-hello", "nodejs-hello"}
		for _, fn := range fns {
			if err := f.Deploy(ctx, fn); err != nil {
				t.Fatal(err)
			}
		}
		// Down machines 0 and 3 (zone z0) in one batch, as a zone
		// outage would.
		f.markDownBatch([]*member{f.memberAt(0), f.memberAt(3)}, false)
		out := make(map[string][]int)
		for _, fn := range fns {
			reps := f.Replicas(fn)
			seen := make(map[int]bool)
			for _, idx := range reps {
				if idx == 0 || idx == 3 {
					t.Fatalf("%s kept downed machine: %v", fn, reps)
				}
				if seen[idx] {
					t.Fatalf("%s double-assigned replica slot: %v", fn, reps)
				}
				seen[idx] = true
			}
			if len(reps) != 3 {
				t.Fatalf("%s = %v, want 3 replicas on 4 survivors", fn, reps)
			}
			out[fn] = reps
		}
		return out, f.Stats()
	}
	a, astats := run()
	b, bstats := run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("merged repair plan not deterministic:\n%v\n%v", a, b)
	}
	if astats.Partitions != 2 || bstats.Partitions != 2 {
		t.Fatalf("batch down-transitions: %+v / %+v", astats, bstats)
	}
}

func TestScenarioZoneDownAndHeal(t *testing.T) {
	f := newTestFleet(t, Config{Machines: 6, Zones: 3, Replication: 3})
	ctx := context.Background()
	if err := f.Deploy(ctx, "c-hello"); err != nil {
		t.Fatal(err)
	}
	sc := faults.NewScenario()
	sc.At(0).ZoneDown("z1")
	sc.At(2 * simtime.Second).Heal()
	if err := f.InstallScenario(sc); err != nil {
		t.Fatal(err)
	}
	f.tickScenario()
	st := f.Stats()
	if st.ZonesDown != 1 || st.Down != 2 {
		t.Fatalf("after zone-down: %+v", st)
	}
	// Replicas must have repaired off the dead zone without loss.
	reps := f.Replicas("c-hello")
	if len(reps) != 3 {
		t.Fatalf("replicas after outage = %v", reps)
	}
	for _, idx := range reps {
		if f.memberAt(idx).zone == 1 {
			t.Fatalf("replica still in downed zone: %v", reps)
		}
	}
	if _, _, err := f.Invoke(ctx, "c-hello", platform.CatalyzerRestore); err != nil {
		t.Fatalf("invoke during outage: %v", err)
	}
	// Advance past the heal and tick: the zone rejoins and spread is
	// restored across three distinct zones by the rebalance pass.
	f.memberAt(0).node.Charge(3 * simtime.Second)
	f.tickScenario()
	st = f.Stats()
	if st.ZonesDown != 0 || st.Down != 0 || st.Rejoins != 2 {
		t.Fatalf("after heal: %+v", st)
	}
	reps = f.Replicas("c-hello")
	if z := zonesOf(f, reps); len(z) != 3 {
		t.Fatalf("post-heal replicas %v cover zones %v, want 3 distinct", reps, z)
	}
	if st.ScenarioSteps != 2 {
		t.Fatalf("scenario steps applied = %d, want 2", st.ScenarioSteps)
	}
}

func TestScenarioSplitPartitionAccruesMisses(t *testing.T) {
	f := newTestFleet(t, Config{Machines: 4, Zones: 2, Replication: 2})
	ctx := context.Background()
	if err := f.Deploy(ctx, "c-hello"); err != nil {
		t.Fatal(err)
	}
	sc := faults.NewScenario()
	sc.At(0).SplitPartition("z1")
	if err := f.InstallScenario(sc); err != nil {
		t.Fatal(err)
	}
	f.tickScenario()
	// A split does not down machines instantly: misses accrue through
	// probes until probeMisses trips each member of the split zone.
	if st := f.Stats(); st.Down != 0 {
		t.Fatalf("split downed machines instantly: %+v", st)
	}
	for i := 0; i < 3; i++ {
		f.probeMembership()
	}
	st := f.Stats()
	if st.Down != 2 || st.Partitions != 2 {
		t.Fatalf("split members not marked down after misses: %+v", st)
	}
	if _, _, err := f.Invoke(ctx, "c-hello", platform.CatalyzerRestore); err != nil {
		t.Fatalf("invoke during split: %v", err)
	}
}

func TestScenarioRollingCrashSweep(t *testing.T) {
	f := newTestFleet(t, Config{Machines: 4, Zones: 2, Replication: 2})
	sc := faults.NewScenario()
	sc.At(0).RollingCrash(0, 2)
	if err := f.InstallScenario(sc); err != nil {
		t.Fatal(err)
	}
	f.tickScenario()
	st := f.Stats()
	if st.RollingCrashes != 2 || st.Crashes != 2 || st.Down != 2 {
		t.Fatalf("after rolling sweep: %+v", st)
	}
	// The sweep walks lowest-index Up members: 0 then 1.
	for _, m := range f.Members()[:2] {
		if m.State != StateDown || !m.Crashed {
			t.Fatalf("sweep victims: %+v", f.Members())
		}
	}
}

func TestZoneDegradedErrorWhenAllZonesDown(t *testing.T) {
	f := newTestFleet(t, Config{Machines: 4, Zones: 2, Replication: 2})
	ctx := context.Background()
	if err := f.Deploy(ctx, "c-hello"); err != nil {
		t.Fatal(err)
	}
	sc := faults.NewScenario()
	sc.At(0).ZoneDown("z0", "z1")
	if err := f.InstallScenario(sc); err != nil {
		t.Fatal(err)
	}
	f.tickScenario()
	_, _, err := f.Invoke(ctx, "c-hello", platform.CatalyzerRestore)
	if !errors.Is(err, ErrZoneDegraded) {
		t.Fatalf("invoke with every zone down: %v, want ErrZoneDegraded", err)
	}
	if errors.Is(err, ErrNoSurvivors) {
		t.Fatalf("degraded error must not read as terminal: %v", err)
	}
	if st := f.Stats(); st.ZoneDegradedErrors == 0 {
		t.Fatalf("degraded errors not counted: %+v", st)
	}
}

func TestInstallScenarioRejectsUnknownZone(t *testing.T) {
	f := newTestFleet(t, Config{Machines: 4, Zones: 2})
	sc := faults.NewScenario()
	sc.At(0).ZoneDown("z9")
	if err := f.InstallScenario(sc); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("unknown zone: %v", err)
	}
	bad := faults.NewScenario()
	bad.At(-simtime.Second).Heal()
	if err := f.InstallScenario(bad); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("malformed timeline: %v", err)
	}
}

func TestRepairBudgetCapsAndDefers(t *testing.T) {
	f := newTestFleet(t, Config{Machines: 6, Zones: 3, Replication: 3, RepairBudget: 2})
	ctx := context.Background()
	fns := []string{"c-hello", "java-hello", "python-hello", "nodejs-hello", "ruby-hello"}
	for _, fn := range fns {
		if err := f.Deploy(ctx, fn); err != nil {
			t.Fatal(err)
		}
	}
	f.markDownBatch([]*member{f.memberAt(0), f.memberAt(3)}, false)
	st := f.Stats()
	if st.RepairPeakInFlight == 0 || st.RepairPeakInFlight > 2 {
		t.Fatalf("repair concurrency out of budget: %+v", st)
	}
	if st.RepairsDeferred == 0 {
		t.Fatalf("mass outage deferred no repairs: %+v", st)
	}
	if st.RepairQueueDepth != 0 {
		t.Fatalf("queue not drained: %+v", st)
	}
	for _, fn := range fns {
		for _, idx := range f.Replicas(fn) {
			if !f.memberAt(idx).node.HasImage(fn) {
				t.Fatalf("%s replica %d missing image after drain", fn, idx)
			}
		}
	}
}

func TestRepairDeferredSiteRequeues(t *testing.T) {
	f := newTestFleet(t, Config{Machines: 4, Zones: 2, Replication: 2})
	ctx := context.Background()
	if err := f.Deploy(ctx, "c-hello"); err != nil {
		t.Fatal(err)
	}
	f.ArmFault(faults.SiteRepairDeferred, 1)
	victim := f.Replicas("c-hello")[0]
	if err := f.Kill(victim); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.RepairsDeferred == 0 || st.RepairQueueDepth == 0 {
		t.Fatalf("repair-deferred site did not requeue: %+v", st)
	}
	// Disarm and pump: the held repair executes.
	f.DisarmFaults()
	f.pumpRepairs()
	st = f.Stats()
	if st.RepairQueueDepth != 0 || st.Rereplications == 0 {
		t.Fatalf("requeued repair never drained: %+v", st)
	}
}

func TestRestartPreservesZone(t *testing.T) {
	f := newTestFleet(t, Config{Machines: 4, Zones: 2})
	if err := f.Kill(3); err != nil {
		t.Fatal(err)
	}
	if err := f.Restart(3); err != nil {
		t.Fatal(err)
	}
	if m := f.Members()[3]; m.Zone != "z1" || m.Epoch != 1 {
		t.Fatalf("restarted member lost its zone: %+v", m)
	}
}

func TestZoneNames(t *testing.T) {
	f := newTestFleet(t, Config{Machines: 4, Zones: 3})
	want := []string{"z0", "z1", "z2"}
	if got := f.ZoneNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("ZoneNames() = %v, want %v", got, want)
	}
	if z := f.Members()[3].Zone; z != "z0" {
		t.Fatalf("machine 3 zone = %s, want striped z0", z)
	}
}
