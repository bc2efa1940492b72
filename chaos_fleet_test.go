package catalyzer

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// fleetTypedError extends typedError with the fleet control plane's
// sentinels. The chaos-fleet invariant is that nothing else ever
// escapes Fleet.Invoke.
func fleetTypedError(err error) bool {
	return typedError(err) ||
		errors.Is(err, ErrNotDeployed) ||
		errors.Is(err, ErrMachineDown) ||
		errors.Is(err, ErrMachineUnreachable) ||
		errors.Is(err, ErrNoSurvivors) ||
		errors.Is(err, ErrMachineFlaky) ||
		errors.Is(err, ErrBrownout) ||
		errors.Is(err, ErrBudgetExhausted) ||
		errors.Is(err, ErrZoneDegraded)
}

// fleetChaosRun drives the full chaos-fleet scenario with one seed and
// returns the per-invocation machine placements (-1 for errors) plus
// the final control-plane stats, so determinism can be asserted by
// comparing two runs. N=5 machines, R=2: mid-traffic it hard-kills one
// machine (k=1 < R) under armed machine and boot sites, disarms, then
// restarts the victim and finishes with clean traffic.
func fleetChaosRun(t *testing.T, seed int64, rounds int) ([]int, FleetStats) {
	t.Helper()
	f, err := NewFleet(FleetConfig{Machines: 5, Replication: 2}, WithFaultSeed(seed))
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

	// Machine-level chaos plus boot-site noise, so machine failover and
	// the per-machine recovery chain are exercised together.
	for site, rate := range map[string]float64{
		"machine-crash":     0.004,
		"machine-partition": 0.01,
		"machine-slow":      0.05,
		"sfork":             0.05,
		"zygote-take":       0.05,
	} {
		if err := f.ArmFault(site, rate); err != nil {
			t.Fatalf("ArmFault(%s): %v", site, err)
		}
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

	for i := 0; i < rounds; i++ {
		record(funcs[i%len(funcs)], kinds[i%len(kinds)])
	}

	// Hard-kill one machine mid-traffic: k=1 < R=2, so no function may
	// lose its last replica.
	victim := 1
	if err := f.KillMachine(victim); err != nil {
		t.Fatalf("KillMachine(%d): %v", victim, err)
	}
	for i := 0; i < rounds; i++ {
		record(funcs[(i+1)%len(funcs)], kinds[(i+2)%len(kinds)])
	}

	frozen := f.FleetStats().Served[victim]

	// Quiesce: disarm everything and restart the whole fleet to Up so
	// the convergence half runs fault-free.
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
			t.Fatalf("fault-free Invoke(%s, %s) after restart: %v", fn, kind, err)
		}
		placements = append(placements, inv.Machine)
	}

	st := f.FleetStats()

	// Convergence invariants that hold for every seed.
	if st.ReplicasLost != 0 {
		t.Fatalf("killed k=1 < R=2 machines but lost replicas: %+v", st)
	}
	if st.Served[victim] < frozen {
		t.Fatalf("victim served count went backwards: %d -> %d", frozen, st.Served[victim])
	}
	if st.Up != st.Machines || st.Down != 0 {
		t.Fatalf("fleet did not converge to all-up: up=%d down=%d of %d", st.Up, st.Down, st.Machines)
	}
	if st.Crashes == 0 {
		t.Fatalf("expected at least the explicit kill counted as a crash: %+v", st)
	}
	for _, fn := range funcs {
		if _, err := f.Invoke(ctx, fn, ColdBoot); err != nil {
			t.Fatalf("deployed function %s lost after chaos: %v", fn, err)
		}
		if reps := f.Replicas(fn); len(reps) < 2 {
			t.Fatalf("%s converged with replicas %v, want >= 2", fn, reps)
		}
	}
	return placements, st
}

func TestChaosFleetConvergence(t *testing.T) {
	rounds := 120
	if testing.Short() {
		rounds = 30
	}
	placements, st := fleetChaosRun(t, 4242, rounds)

	served := 0
	for _, p := range placements {
		if p >= 0 {
			served++
		}
	}
	if served == 0 {
		t.Fatal("no invocation succeeded under chaos")
	}
	if st.MembershipProbes == 0 {
		t.Fatalf("membership probes never ran: %+v", st)
	}
	// The victim's functions must have been re-replicated onto
	// survivors.
	if st.Rereplications == 0 {
		t.Fatalf("killing a replica holder triggered no re-replication: %+v", st)
	}
}

func TestChaosFleetDeterministic(t *testing.T) {
	rounds := 60
	if testing.Short() {
		rounds = 20
	}
	placesA, statsA := fleetChaosRun(t, 99, rounds)
	placesB, statsB := fleetChaosRun(t, 99, rounds)
	if !reflect.DeepEqual(placesA, placesB) {
		t.Fatalf("same seed produced different placements:\nA=%v\nB=%v", placesA, placesB)
	}
	if !reflect.DeepEqual(statsA, statsB) {
		t.Fatalf("same seed produced different fleet stats:\nA=%+v\nB=%+v", statsA, statsB)
	}
	checkGolden(t, "chaos_fleet_deterministic.golden", chaosRender(placesA, statsA))
}

func TestFleetDeployInvokeAndStats(t *testing.T) {
	f, err := NewFleet(FleetConfig{Machines: 3, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ctx := context.Background()

	if _, err := f.Invoke(ctx, "c-hello", ColdBoot); !errors.Is(err, ErrNotDeployed) {
		t.Fatalf("Invoke before Deploy: got %v, want ErrNotDeployed", err)
	}
	if err := f.Deploy(ctx, "c-hello"); err != nil {
		t.Fatal(err)
	}
	if reps := f.Replicas("c-hello"); len(reps) != 2 {
		t.Fatalf("Replicas = %v, want 2 machines", reps)
	}
	if got := f.Deployed(); len(got) != 1 || got[0] != "c-hello" {
		t.Fatalf("Deployed = %v", got)
	}

	inv, err := f.Invoke(ctx, "c-hello", ColdBoot)
	if err != nil {
		t.Fatal(err)
	}
	if inv.Machine < 0 || inv.Machine >= f.Size() {
		t.Fatalf("Invocation.Machine = %d out of range [0,%d)", inv.Machine, f.Size())
	}
	if inv.BootLatency <= 0 {
		t.Fatalf("BootLatency = %v, want > 0", inv.BootLatency)
	}

	st := f.FleetStats()
	if st.Machines != 3 || st.Up != 3 || st.Deployed != 1 {
		t.Fatalf("FleetStats gauges wrong: %+v", st)
	}
	if st.Served[inv.Machine] != 1 {
		t.Fatalf("Served[%d] = %d, want 1", inv.Machine, st.Served[inv.Machine])
	}
	ks := f.Stats()
	if ks[ColdBoot].Count != 1 {
		t.Fatalf("Stats()[cold].Count = %d, want 1", ks[ColdBoot].Count)
	}
	if kinds := f.StatsKinds(); len(kinds) != 1 || kinds[0] != ColdBoot {
		t.Fatalf("StatsKinds = %v", kinds)
	}

	if _, err := f.Invoke(ctx, "c-hello", BootKind("bogus")); !errors.Is(err, ErrUnknownSystem) {
		t.Fatalf("bogus kind: got %v, want ErrUnknownSystem", err)
	}
	if err := f.ArmFault("no-such-site", 1); !errors.Is(err, ErrUnknownFaultSite) {
		t.Fatalf("bogus site: got %v, want ErrUnknownFaultSite", err)
	}
}

func TestFleetKillAllSurfacesNoSurvivors(t *testing.T) {
	f, err := NewFleet(FleetConfig{Machines: 2, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ctx := context.Background()
	if err := f.Deploy(ctx, "c-hello"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := f.KillMachine(i); err != nil {
			t.Fatalf("KillMachine(%d): %v", i, err)
		}
	}
	_, err = f.Invoke(ctx, "c-hello", ColdBoot)
	if !errors.Is(err, ErrNoSurvivors) {
		t.Fatalf("got %v, want ErrNoSurvivors", err)
	}
	for _, m := range f.Machines() {
		if m.State != "down" || !m.Crashed {
			t.Fatalf("machine %d not down+crashed: %+v", m.Index, m)
		}
	}
	if err := f.RestartMachine(0); err != nil {
		t.Fatal(err)
	}
	if inv, err := f.Invoke(ctx, "c-hello", ColdBoot); err != nil {
		t.Fatalf("Invoke after restart: %v", err)
	} else if inv.Machine != 0 {
		t.Fatalf("served by machine %d, want lone survivor 0", inv.Machine)
	}
	if err := f.RestartMachine(9); err == nil {
		t.Fatal("RestartMachine(9) out of range: want error")
	}
}

func TestFleetRunningDrainsOnClose(t *testing.T) {
	f, err := NewFleet(FleetConfig{Machines: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := f.Deploy(ctx, "c-hello"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := f.Invoke(ctx, "c-hello", WarmBoot); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()
	if got := f.Running(); got != 0 {
		t.Fatalf("Running() = %d after Close, want 0", got)
	}
}

// Example-style smoke check that the error text of an exhausted fleet
// names the function, so operators can grep daemon logs.
func TestFleetNoSurvivorsErrorNamesFunction(t *testing.T) {
	f, err := NewFleet(FleetConfig{Machines: 1, Replication: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ctx := context.Background()
	if err := f.Deploy(ctx, "c-hello"); err != nil {
		t.Fatal(err)
	}
	if err := f.KillMachine(0); err != nil {
		t.Fatal(err)
	}
	_, err = f.Invoke(ctx, "c-hello", ColdBoot)
	if err == nil || !errors.Is(err, ErrNoSurvivors) {
		t.Fatalf("got %v, want ErrNoSurvivors", err)
	}
	if !strings.Contains(err.Error(), "c-hello") {
		t.Fatalf("error %q does not name the function", err)
	}
}
