package catalyzer

import (
	"context"
	"reflect"
	"testing"
	"time"
)

// Zone-chaos geometry: 9 machines striped over 3 zones (z0={0,3,6},
// z1={1,4,7}, z2={2,5,8}), R=3 so a healthy deploy puts one replica in
// every zone, and a repair budget small enough that a whole-zone loss
// must queue.
const (
	zoneChaosMachines = 9
	zoneChaosZones    = 3
	zoneChaosR        = 3
	zoneChaosBudget   = 2
)

// zoneChaosZonesOf maps replica machine indices to the set of distinct
// zone labels they cover.
func zoneChaosZonesOf(f *Fleet, replicas []int) map[string]bool {
	byIdx := make(map[int]string)
	for _, m := range f.Machines() {
		byIdx[m.Index] = m.Zone
	}
	zones := make(map[string]bool)
	for _, r := range replicas {
		zones[byIdx[r]] = true
	}
	return zones
}

// zoneChaosRun drives the scripted zone-outage scenario with one seed
// and returns per-invocation placements (-1 for typed errors) plus the
// final stats, so determinism is assertable by comparing two runs.
// Timeline: deploy with full 3-zone spread, arm boot and machine noise,
// then a scenario kills all of z1 at once, traffic rides out the
// outage, the script heals, and fault-free traffic converges the fleet
// back to a 3-zone spread per function.
func zoneChaosRun(t *testing.T, seed int64, rounds int) ([]int, FleetStats) {
	t.Helper()
	f, err := NewFleet(FleetConfig{
		Machines:     zoneChaosMachines,
		Zones:        zoneChaosZones,
		Replication:  zoneChaosR,
		RepairBudget: zoneChaosBudget,
	}, WithFaultSeed(seed))
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	defer f.Close()

	ctx := context.Background()
	funcs := []string{"c-hello", "java-hello", "nodejs-hello", "python-hello"}
	for _, fn := range funcs {
		if err := f.Deploy(ctx, fn); err != nil {
			t.Fatalf("Deploy(%s): %v", fn, err)
		}
	}

	// Healthy deploys must spread every replica set across all 3 zones
	// without a single forced double-up.
	for _, fn := range funcs {
		if zs := zoneChaosZonesOf(f, f.Replicas(fn)); len(zs) != zoneChaosZones {
			t.Fatalf("baseline %s replicas %v cover zones %v, want %d distinct",
				fn, f.Replicas(fn), zs, zoneChaosZones)
		}
	}
	if st := f.FleetStats(); st.ZoneSpreadViolations != 0 {
		t.Fatalf("healthy deploy counted spread violations: %+v", st)
	}

	// Boot-site and machine noise on top of the scripted outage. No
	// i.i.d. machine-crash: the zero-replica-loss invariant below is
	// about the correlated zone kill, not about stacking uncorrelated
	// crashes until k >= R.
	for site, rate := range map[string]float64{
		"machine-partition": 0.01,
		"machine-slow":      0.05,
		"sfork":             0.05,
		"zygote-take":       0.05,
	} {
		if err := f.ArmFault(site, rate); err != nil {
			t.Fatalf("ArmFault(%s): %v", site, err)
		}
	}

	sc := NewScenario()
	sc.At(0).ZoneDown("z1")
	sc.At(5 * time.Second).Heal()
	if err := f.InstallScenario(sc); err != nil {
		t.Fatalf("InstallScenario: %v", err)
	}

	kinds := []BootKind{ColdBoot, WarmBoot, ForkBoot}
	placements := make([]int, 0, 3*rounds)
	record := func(fn string, kind BootKind) {
		inv, err := f.Invoke(ctx, fn, kind)
		if err != nil {
			if !fleetTypedError(err) {
				t.Fatalf("untyped error escaped Fleet.Invoke(%s, %s): %v", fn, kind, err)
			}
			placements = append(placements, -1)
			return
		}
		placements = append(placements, inv.Machine)
	}

	// The first post-install dispatch ticks the timeline and fires the
	// zone kill; heal cannot fire before the next tick, so the state
	// right after this call is the mid-outage view.
	record(funcs[0], WarmBoot)

	mid := f.FleetStats()
	if mid.ZonesDown != 1 || mid.ScenarioSteps != 1 {
		t.Fatalf("after zone kill: ZonesDown=%d ScenarioSteps=%d, want 1/1", mid.ZonesDown, mid.ScenarioSteps)
	}
	if mid.ReplicasLost != 0 {
		t.Fatalf("zone kill with out-of-zone replicas lost a function: %+v", mid)
	}
	for _, m := range f.Machines() {
		if m.Zone == "z1" {
			if m.State != "down" || m.Crashed {
				t.Fatalf("z1 machine %d after zone kill: state=%s crashed=%v, want down with state intact",
					m.Index, m.State, m.Crashed)
			}
		}
	}
	for _, fn := range funcs {
		for z := range zoneChaosZonesOf(f, f.Replicas(fn)) {
			if z == "z1" {
				t.Fatalf("%s still holds a replica in downed z1: %v", fn, f.Replicas(fn))
			}
		}
	}
	// A whole-zone loss plans more repairs than the budget admits, so
	// the pump must have deferred work and its peak batch must respect
	// the cap.
	if mid.RepairsDeferred == 0 {
		t.Fatalf("zone kill (%d repairs needed) never deferred past budget %d: %+v",
			len(funcs), zoneChaosBudget, mid)
	}
	if mid.RepairPeakInFlight == 0 || mid.RepairPeakInFlight > zoneChaosBudget {
		t.Fatalf("repair peak %d outside (0, budget=%d]: %+v", mid.RepairPeakInFlight, zoneChaosBudget, mid)
	}

	// Ride out the outage under noise: only typed errors may surface.
	for i := 0; i < rounds; i++ {
		record(funcs[i%len(funcs)], kinds[i%len(kinds)])
	}

	// Drive virtual time past the heal step. Each invocation ticks the
	// timeline; the cap only bounds a scheduler bug, real runs heal in
	// a few hundred iterations.
	healed := false
	for i := 0; i < 4000; i++ {
		record(funcs[i%len(funcs)], ColdBoot)
		if st := f.FleetStats(); st.ZonesDown == 0 && st.ScenarioSteps == 2 {
			healed = true
			break
		}
	}
	if !healed {
		t.Fatalf("heal step never fired: %+v", f.FleetStats())
	}

	// Quiesce the i.i.d. noise and converge fault-free, restarting any
	// machine the partition noise took down along the way.
	f.DisarmFaults()
	for _, m := range f.Machines() {
		if m.State != "down" {
			continue
		}
		if err := f.RestartMachine(m.Index); err != nil {
			t.Fatalf("RestartMachine(%d): %v", m.Index, err)
		}
	}
	for i := 0; i < rounds; i++ {
		fn, kind := funcs[i%len(funcs)], kinds[i%len(kinds)]
		inv, err := f.Invoke(ctx, fn, kind)
		if err != nil {
			t.Fatalf("fault-free Invoke(%s, %s) after heal: %v", fn, kind, err)
		}
		placements = append(placements, inv.Machine)
	}

	st := f.FleetStats()
	if st.Up != st.Machines || st.Down != 0 {
		t.Fatalf("fleet did not converge to all-up: up=%d down=%d of %d", st.Up, st.Down, st.Machines)
	}
	if st.ReplicasLost != 0 {
		t.Fatalf("correlated zone kill lost replicas despite out-of-zone copies: %+v", st)
	}
	if st.ZonesDown != 0 || st.ScenarioSteps != 2 {
		t.Fatalf("scenario did not finish cleanly: ZonesDown=%d ScenarioSteps=%d", st.ZonesDown, st.ScenarioSteps)
	}
	if st.RepairQueueDepth != 0 {
		t.Fatalf("repair queue not drained after convergence: %+v", st)
	}
	if st.RepairPeakInFlight > zoneChaosBudget {
		t.Fatalf("repair concurrency %d exceeded budget %d: %+v", st.RepairPeakInFlight, zoneChaosBudget, st)
	}
	if st.Rereplications == 0 {
		t.Fatalf("zone kill triggered no re-replication: %+v", st)
	}
	// Post-heal the rebalancer must restore the full 3-zone spread for
	// every function, not just top counts back up.
	for _, fn := range funcs {
		if _, err := f.Invoke(ctx, fn, ColdBoot); err != nil {
			t.Fatalf("deployed function %s lost after zone chaos: %v", fn, err)
		}
		if zs := zoneChaosZonesOf(f, f.Replicas(fn)); len(zs) != zoneChaosZones {
			t.Fatalf("post-heal %s replicas %v cover zones %v, want %d distinct",
				fn, f.Replicas(fn), zs, zoneChaosZones)
		}
	}
	return placements, st
}

func TestChaosZoneOutageConvergence(t *testing.T) {
	rounds := 120
	if testing.Short() {
		rounds = 30
	}
	placements, st := zoneChaosRun(t, 1717, rounds)

	served := 0
	for _, p := range placements {
		if p >= 0 {
			served++
		}
	}
	if served == 0 {
		t.Fatal("no invocation succeeded under zone chaos")
	}
	if st.MembershipProbes == 0 {
		t.Fatalf("membership probes never ran: %+v", st)
	}
	if st.Rejoins < zoneChaosMachines/zoneChaosZones {
		t.Fatalf("heal rejoined %d machines, want the whole zone (%d): %+v",
			st.Rejoins, zoneChaosMachines/zoneChaosZones, st)
	}
}

func TestChaosZoneDeterministic(t *testing.T) {
	rounds := 60
	if testing.Short() {
		rounds = 20
	}
	placesA, statsA := zoneChaosRun(t, 7, rounds)
	placesB, statsB := zoneChaosRun(t, 7, rounds)
	if !reflect.DeepEqual(placesA, placesB) {
		t.Fatalf("same seed produced different placements:\nA=%v\nB=%v", placesA, placesB)
	}
	if !reflect.DeepEqual(statsA, statsB) {
		t.Fatalf("same seed produced different fleet stats:\nA=%+v\nB=%+v", statsA, statsB)
	}
	checkGolden(t, "chaos_zone_deterministic.golden", chaosRender(placesA, statsA))
}
