package catalyzer

import (
	"context"
	"reflect"
	"testing"
)

// grayChaosRun drives the gray-failure acceptance scenario with one
// seed and returns the per-invocation placements (-1 for typed errors)
// plus the final control-plane stats, so determinism can be asserted by
// comparing two runs.
//
// Phases: (1) healthy baseline traffic, snapshotting the effective p99
// invoke latency; (2) machine-gray-slow armed at rate 1 on the ring
// primary of c-hello — hedging races the slow primary until outlier
// ejection drains it; (3) disarm, keep traffic flowing, and wait for
// the ejection probes to re-admit the recovered member.
func grayChaosRun(t *testing.T, seed int64, rounds int) ([]int, FleetStats) {
	t.Helper()
	f, err := NewFleet(FleetConfig{
		Machines: 5, Replication: 2,
		// Fast-reacting thresholds so the scenario exercises ejection
		// and re-admission inside a bounded round count.
		MinEjectSamples: 3, ScoreWarmup: 4,
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

	// Uniform fork traffic: the gray defense judges machines by their
	// dispatch latency, so the workload mixes functions (to spread
	// samples over every machine) but keeps one boot kind — with cold
	// boots in the mix, legitimate 50ms boots would swamp the 20ms gray
	// penalty and no latency score could tell sick from busy.
	var placements []int
	invocations := 0
	record := func(i int) {
		invocations++
		inv, err := f.Invoke(ctx, funcs[i%len(funcs)], ForkBoot)
		if err != nil {
			if !fleetTypedError(err) {
				t.Fatalf("untyped error escaped Fleet.Invoke: %v", err)
			}
			placements = append(placements, -1)
			return
		}
		placements = append(placements, inv.Machine)
	}

	// Phase 1: healthy baseline.
	for i := 0; i < rounds; i++ {
		record(i)
	}
	baseline := f.FleetStats()
	if baseline.InvokeP99 <= 0 {
		t.Fatalf("baseline p99 not recorded: %+v", baseline)
	}

	// Phase 2: one machine goes gray under sustained traffic.
	victim := f.Replicas("c-hello")[0]
	if err := f.ArmMachineFault(victim, "machine-gray-slow", 1); err != nil {
		t.Fatalf("ArmMachineFault: %v", err)
	}
	for i := 0; i < 2*rounds; i++ {
		record(i)
	}
	mid := f.FleetStats()
	if mid.GrayDispatches == 0 {
		t.Fatalf("gray site never fired on machine %d: %+v", victim, mid)
	}
	if mid.Hedges == 0 {
		t.Fatalf("no invocation hedged against the gray primary: %+v", mid)
	}
	if mid.Ejections == 0 || mid.EjectedMachines != 1 {
		t.Fatalf("gray machine %d was not ejected: %+v", victim, mid)
	}
	if !f.Machines()[victim].Ejected {
		t.Fatalf("machine %d not marked ejected: %+v", victim, f.Machines()[victim])
	}
	if mid.Up != 5 || mid.Down != 0 {
		t.Fatalf("soft ejection changed membership: %+v", mid)
	}
	// Tail-latency containment: hedging + ejection keep the effective
	// p99 within 3× the healthy baseline even with a 100%-gray member.
	if mid.InvokeP99 > 3*baseline.InvokeP99 {
		t.Fatalf("gray machine destroyed the tail: p99 %v > 3 × baseline %v",
			mid.InvokeP99, baseline.InvokeP99)
	}

	// Phase 3: the machine recovers; probes re-admit it.
	f.DisarmFaults()
	for i := 0; i < 40*rounds && f.FleetStats().Readmissions == 0; i++ {
		record(i)
	}
	st := f.FleetStats()
	if st.Readmissions == 0 || st.EjectionProbes == 0 {
		t.Fatalf("recovered machine %d never re-admitted: %+v", victim, st)
	}
	if st.EjectedMachines != 0 || f.Machines()[victim].Ejected {
		t.Fatalf("fleet still carries ejected machines after recovery: %+v", st)
	}

	// Budget invariant: retries + hedges never exceed the burst plus
	// the per-invocation accrual.
	if bound := 32 + invocations/10 + 1; st.BudgetSpent > bound {
		t.Fatalf("extra traffic %d exceeded the retry/hedge budget %d (%d invocations)",
			st.BudgetSpent, bound, invocations)
	}
	if st.ReplicasLost != 0 {
		t.Fatalf("gray chaos lost replicas: %+v", st)
	}
	for _, fn := range funcs {
		if _, err := f.Invoke(ctx, fn, ForkBoot); err != nil {
			t.Fatalf("function %s lost after gray chaos: %v", fn, err)
		}
	}
	return placements, st
}

func TestChaosGrayDefense(t *testing.T) {
	rounds := 100
	if testing.Short() {
		rounds = 40
	}
	placements, st := grayChaosRun(t, 2025, rounds)
	served := 0
	for _, p := range placements {
		if p >= 0 {
			served++
		}
	}
	if served == 0 {
		t.Fatal("no invocation succeeded under gray chaos")
	}
	if st.HedgeWins == 0 {
		t.Fatalf("hedges never beat the gray primary: %+v", st)
	}
}

// TestChaosGrayDeterministic: the whole defense — scores, hedge
// decisions, ejections, re-admissions — runs in virtual time off one
// seeded injector, so two same-seed runs are byte-identical.
func TestChaosGrayDeterministic(t *testing.T) {
	rounds := 60
	if testing.Short() {
		rounds = 30
	}
	placesA, statsA := grayChaosRun(t, 7777, rounds)
	placesB, statsB := grayChaosRun(t, 7777, rounds)
	if !reflect.DeepEqual(placesA, placesB) {
		t.Fatalf("same seed produced different placements:\nA=%v\nB=%v", placesA, placesB)
	}
	if !reflect.DeepEqual(statsA, statsB) {
		t.Fatalf("same seed produced different stats:\nA=%+v\nB=%+v", statsA, statsB)
	}
	checkGolden(t, "chaos_gray_deterministic.golden", chaosRender(placesA, statsA))
}
