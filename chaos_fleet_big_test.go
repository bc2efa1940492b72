package catalyzer

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"testing"
	"time"

	"catalyzer/internal/workload"
)

// TestChaosFleetBig is the scaled smoke: 100 machines across 3 zones
// serving 1000 synthetic functions, with one machine gray under traffic
// and one scripted whole-zone outage mid-traffic. It runs in virtual
// time; its wall-clock cost is the simulation itself, under two minutes, so
// plain `go test ./...` skips it and CI runs it as a step of its own:
//
//	CATALYZER_CHAOS_BIG=1 go test -run TestChaosFleetBig .
//
// or `make chaos-fleet-big`. CATALYZER_CHAOS_MACHINES overrides the
// fleet size (e.g. =20 for a quick local pass). The invariants are the
// usual fleet ones at scale: every function stays served, only typed
// errors escape, the gray member is ejected without membership churn,
// a zone-wide kill loses zero replicas and heals back to full
// membership, and extra traffic stays inside the retry/hedge budget.
func TestChaosFleetBig(t *testing.T) {
	if os.Getenv("CATALYZER_CHAOS_BIG") == "" {
		t.Skip("set CATALYZER_CHAOS_BIG=1 to run the 100-machine × 3-zone × 1000-function smoke")
	}
	machines := 100
	if v := os.Getenv("CATALYZER_CHAOS_MACHINES"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 3 {
			t.Fatalf("CATALYZER_CHAOS_MACHINES=%q: want an integer >= 3", v)
		}
		machines = n
	}
	const (
		zones     = 3
		functions = 1000
	)
	// Clone the smallest built-in spec into 1000 registered functions.
	base := workload.MustGet("c-hello")
	names := make([]string, 0, functions)
	for i := 0; i < functions; i++ {
		s := *base
		s.Name = fmt.Sprintf("bulk-%04d", i)
		s.Conns = append([]workload.ConnSpec(nil), base.Conns...)
		if err := workload.RegisterCustom(&s); err != nil {
			t.Fatalf("register %s: %v", s.Name, err)
		}
		name := s.Name
		t.Cleanup(func() { workload.Unregister(name) })
		names = append(names, name)
	}

	// R=3 over 3 zones: every function keeps out-of-zone replicas, so a
	// whole-zone kill may not lose any function.
	f, err := NewFleet(FleetConfig{
		Machines: machines, Replication: 3, Zones: zones,
		MinEjectSamples: 3, ScoreWarmup: 8,
	}, WithFaultSeed(808), WithZygotePool(1))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	ctx := context.Background()
	for _, fn := range names {
		if err := f.Deploy(ctx, fn); err != nil {
			t.Fatalf("Deploy(%s): %v", fn, err)
		}
	}

	// One pass of healthy traffic over every function.
	for _, fn := range names {
		if _, err := f.Invoke(ctx, fn, ForkBoot); err != nil {
			t.Fatalf("Invoke(%s): %v", fn, err)
		}
	}

	// One machine goes gray; the functions keep getting served. The
	// victim is the busiest server of the healthy pass — replica
	// primaries carry deploy-time artifacts and can sit over the
	// bounded-load capacity, so the busiest machine is the one
	// guaranteed to keep drawing dispatches.
	victim, most := 0, -1
	for idx, served := range f.FleetStats().Served {
		if served > most {
			victim, most = idx, served
		}
	}
	if err := f.ArmMachineFault(victim, "machine-gray-slow", 1); err != nil {
		t.Fatal(err)
	}
	invocations := functions
	for i, fn := range names {
		invocations++
		if _, err := f.Invoke(ctx, fn, ForkBoot); err != nil {
			if !fleetTypedError(err) {
				t.Fatalf("untyped error escaped at scale (%s, round %d): %v", fn, i, err)
			}
		}
	}

	st := f.FleetStats()
	if st.Up != machines || st.Down != 0 {
		t.Fatalf("membership churned under gray load: %+v", st)
	}
	if st.Deployed != functions {
		t.Fatalf("Deployed = %d, want %d", st.Deployed, functions)
	}
	if st.GrayDispatches == 0 {
		t.Fatalf("gray site never fired on machine %d", victim)
	}
	// Only the victim is armed gray, so any ejection is the victim's.
	// Small override fleets cycle it through eject/readmit, so assert
	// the machinery engaged rather than the instantaneous ejected flag.
	if st.Ejections == 0 {
		t.Fatalf("gray machine %d never ejected at scale: gray=%d hedges=%d",
			victim, st.GrayDispatches, st.Hedges)
	}
	if st.ReplicasLost != 0 {
		t.Fatalf("lost replicas with zero machines down: %+v", st)
	}

	// Scripted correlated failure mid-traffic: the whole of z1 drops at
	// once, traffic rides it out on the surviving zones, then the
	// timeline heals it.
	sc := NewScenario()
	sc.At(0).ZoneDown("z1")
	sc.At(10 * time.Second).Heal()
	if err := f.InstallScenario(sc); err != nil {
		t.Fatalf("InstallScenario: %v", err)
	}
	for i, fn := range names {
		invocations++
		if _, err := f.Invoke(ctx, fn, ForkBoot); err != nil {
			if !fleetTypedError(err) {
				t.Fatalf("untyped error escaped the zone outage (%s, round %d): %v", fn, i, err)
			}
		}
	}
	mid := f.FleetStats()
	if mid.ZonesDown != 1 {
		t.Fatalf("zone kill not in effect mid-traffic: %+v", mid)
	}
	if mid.ReplicasLost != 0 {
		t.Fatalf("whole-zone kill lost replicas despite out-of-zone copies: %+v", mid)
	}
	if mid.RepairPeakInFlight == 0 {
		t.Fatalf("zone kill triggered no budgeted repairs: %+v", mid)
	}

	// Keep invoking until the heal step fires and the zone rejoins.
	healed := false
	for i := 0; i < 50*len(names) && !healed; i++ {
		invocations++
		if _, err := f.Invoke(ctx, names[i%len(names)], ForkBoot); err != nil {
			if !fleetTypedError(err) {
				t.Fatalf("untyped error while healing: %v", err)
			}
		}
		hst := f.FleetStats()
		healed = hst.ZonesDown == 0 && hst.Down == 0
	}
	if !healed {
		t.Fatalf("zone never healed: %+v", f.FleetStats())
	}

	st = f.FleetStats()
	if st.Up != machines || st.Down != 0 {
		t.Fatalf("fleet did not converge to all-up after heal: %+v", st)
	}
	if st.ReplicasLost != 0 {
		t.Fatalf("zone outage lost replicas: %+v", st)
	}
	if bound := 32 + invocations/10 + 1; st.BudgetSpent > bound {
		t.Fatalf("budget spent %d exceeds bound %d over %d invocations", st.BudgetSpent, bound, invocations)
	}
}
