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

// TestBackoffSaturates pins the overflow fix: an arbitrary replay
// count with an absurd FailoverBackoff must produce a positive,
// bounded backoff, never a negative or overflowed shift product.
func TestBackoffSaturates(t *testing.T) {
	f := newTestFleet(t, Config{Machines: 1, FailoverBackoff: simtime.Duration(1) << 55})
	for _, attempt := range []int{0, 1, 2, 7, 100, 1 << 30} {
		got := f.backoffFor(attempt)
		if got <= 0 {
			t.Fatalf("backoffFor(%d) = %v, overflowed", attempt, got)
		}
		if got > maxAttemptTimeout {
			t.Fatalf("backoffFor(%d) = %v exceeds cap %v", attempt, got, maxAttemptTimeout)
		}
	}

	// Sane backoffs still double per attempt up to the shift cap.
	f2 := newTestFleet(t, Config{Machines: 1, FailoverBackoff: 100 * simtime.Microsecond})
	if got := f2.backoffFor(1); got != 100*simtime.Microsecond {
		t.Fatalf("first backoff = %v", got)
	}
	if got := f2.backoffFor(3); got != 400*simtime.Microsecond {
		t.Fatalf("third backoff = %v, want 4x", got)
	}
	if got, capped := f2.backoffFor(50), f2.backoffFor(7+maxBackoffShift); got != capped {
		t.Fatalf("backoff kept doubling past the cap: %v != %v", got, capped)
	}
}

// TestAdaptiveTimeoutTracksMedian: once scores are warm the
// per-attempt timeout is timeoutFactor × the healthy median, clamped.
func TestAdaptiveTimeoutTracksMedian(t *testing.T) {
	f := newTestFleet(t, Config{Machines: 3, ScoreWarmup: 3})

	// Cold: no scores yet, legacy backoff applies.
	if got := f.attemptTimeout(1); got != f.cfg.FailoverBackoff {
		t.Fatalf("cold timeout = %v, want backoff %v", got, f.cfg.FailoverBackoff)
	}

	f.mu.Lock()
	f.feedScoreLocked(f.members[0], 2*simtime.Millisecond)
	f.feedScoreLocked(f.members[1], 3*simtime.Millisecond)
	f.feedScoreLocked(f.members[2], 10*simtime.Millisecond)
	f.mu.Unlock()

	// Median of {2ms, 3ms, 10ms} is 3ms; 4 × 3ms = 12ms.
	if got := f.attemptTimeout(1); got != 12*simtime.Millisecond {
		t.Fatalf("warm timeout = %v, want 12ms", got)
	}

	// The clamp floor applies to tiny medians.
	f2 := newTestFleet(t, Config{Machines: 2, ScoreWarmup: 1, MinAttemptTimeout: 5 * simtime.Millisecond})
	f2.mu.Lock()
	f2.feedScoreLocked(f2.members[0], 10*simtime.Microsecond)
	f2.mu.Unlock()
	if got := f2.attemptTimeout(1); got != 5*simtime.Millisecond {
		t.Fatalf("clamped timeout = %v, want the 5ms floor", got)
	}
}

// grayTestFuncs is the mixed workload the gray tests drive: distinct
// functions hash to distinct ring positions, so every machine
// accumulates EWMA samples and the healthy median is meaningful.
var grayTestFuncs = []string{"c-hello", "java-hello", "nodejs-hello", "python-hello"}

func deployAll(t *testing.T, f *Fleet) {
	t.Helper()
	for _, fn := range grayTestFuncs {
		if err := f.Deploy(context.Background(), fn); err != nil {
			t.Fatalf("deploy %s: %v", fn, err)
		}
	}
}

// advanceFleet charges every member's clock by d, advancing the fleet
// clock (the max member clock) so virtual-time probe cadences elapse.
func advanceFleet(f *Fleet, d simtime.Duration) {
	for _, mi := range f.Members() {
		f.memberAt(mi.Index).node.Charge(d)
	}
}

// ejectVictim arms machine-gray-slow on the machine preferred for
// c-hello and drives mixed traffic until the fleet soft-ejects it.
func ejectVictim(t *testing.T, f *Fleet) int {
	t.Helper()
	ctx := context.Background()
	victim, ok := f.Place("c-hello")
	if !ok {
		t.Fatal("no placement")
	}
	if err := f.ArmFaultOn(victim, faults.SiteMachineGraySlow, 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400 && f.Stats().Ejections == 0; i++ {
		if _, _, err := f.Invoke(ctx, grayTestFuncs[i%len(grayTestFuncs)], platform.CatalyzerSfork); err != nil {
			t.Fatalf("invoke %d: %v", i, err)
		}
	}
	if f.Stats().Ejections == 0 {
		t.Fatalf("gray machine %d was never ejected: %+v", victim, f.Stats())
	}
	return victim
}

// TestGraySlowFeedsScoreAndEjects: arming machine-gray-slow on one
// member under traffic inflates its score until it is soft-ejected;
// placement then avoids it while it stays Up and keeps its replicas.
func TestGraySlowFeedsScoreAndEjects(t *testing.T) {
	f := newTestFleet(t, Config{Machines: 5, Replication: 2, Seed: 42,
		MinEjectSamples: 3, ScoreWarmup: 4})
	deployAll(t, f)
	victim := ejectVictim(t, f)
	st := f.Stats()
	if st.GrayDispatches == 0 {
		t.Fatal("gray site never fired")
	}
	mi := f.Members()[victim]
	if !mi.Ejected || mi.State != StateUp {
		t.Fatalf("victim %d = %+v, want ejected but Up", victim, mi)
	}
	if st.Up != 5 || st.Down != 0 || st.EjectedMachines != 1 {
		t.Fatalf("membership after ejection: %+v", st)
	}
	if got, ok := f.Place("c-hello"); !ok || got == victim {
		t.Fatalf("placement still hits the ejected machine %d (got %d, ok=%v)", victim, got, ok)
	}
	// Replicas survive the ejection: the member is drained, not down.
	if reps := f.Replicas("c-hello"); len(reps) != 2 {
		t.Fatalf("replicas after ejection = %v", reps)
	}
}

// TestEjectedMachineReadmitsAfterDisarm: recovery probes drive the
// ejected member's score back down once the gray site is disarmed, and
// consecutive clean probes re-admit it into the ring.
func TestEjectedMachineReadmitsAfterDisarm(t *testing.T) {
	f := newTestFleet(t, Config{Machines: 5, Replication: 2, Seed: 7,
		MinEjectSamples: 3, ScoreWarmup: 4,
		EjectProbeInterval: 10 * simtime.Millisecond})
	ctx := context.Background()
	deployAll(t, f)
	victim := ejectVictim(t, f)

	// While the site stays armed, probes keep measuring it sick. The
	// fleet clock is the max member clock, so advance every member to
	// bring the probe group due.
	for i := 0; i < 10; i++ {
		advanceFleet(f, 10*simtime.Millisecond)
		f.PollSupervise()
	}
	if f.Members()[victim].Ejected == false {
		// It may only readmit when genuinely healthy.
		t.Fatal("sick machine was re-admitted while still gray")
	}

	// Disarm and let the recovery probes re-admit it.
	f.inj.DisarmKeyed(faults.SiteMachineGraySlow, machineKey(victim))
	for i := 0; i < 50 && f.Members()[victim].Ejected; i++ {
		advanceFleet(f, 10*simtime.Millisecond)
		f.PollSupervise()
	}
	st := f.Stats()
	if f.Members()[victim].Ejected {
		t.Fatalf("victim never re-admitted: %+v", st)
	}
	if st.Readmissions == 0 || st.EjectionProbes == 0 {
		t.Fatalf("readmission stats: %+v", st)
	}
	// Placement can reach the victim again (ring rebuilt over 5).
	if _, _, err := f.Invoke(ctx, "c-hello", platform.CatalyzerSfork); err != nil {
		t.Fatalf("invoke after readmission: %v", err)
	}
}

// TestHedgeRacesSlowPrimary: with warm scores and a gray-slow primary,
// the invocation hedges onto the next replica, the hedge wins, and the
// effective latency digest reflects the capped (delay + hedge) time.
func TestHedgeRacesSlowPrimary(t *testing.T) {
	f := newTestFleet(t, Config{Machines: 5, Replication: 2, Seed: 3,
		// A generous eject factor keeps the victim in rotation so the
		// hedge path (not ejection) is what this test exercises.
		EjectFactor: 1000, GraySlowPenalty: 50 * simtime.Millisecond})
	ctx := context.Background()
	if err := f.Deploy(ctx, "c-hello"); err != nil {
		t.Fatal(err)
	}
	// Warm up the scores with healthy traffic.
	for i := 0; i < 10; i++ {
		if _, _, err := f.Invoke(ctx, "c-hello", platform.CatalyzerSfork); err != nil {
			t.Fatal(err)
		}
	}
	victim, _ := f.Place("c-hello")
	if err := f.ArmFaultOn(victim, faults.SiteMachineGraySlow, 1); err != nil {
		t.Fatal(err)
	}
	var servedElsewhere bool
	for i := 0; i < 20; i++ {
		_, idx, err := f.Invoke(ctx, "c-hello", platform.CatalyzerSfork)
		if err != nil {
			t.Fatalf("invoke: %v", err)
		}
		if idx != victim {
			servedElsewhere = true
		}
	}
	st := f.Stats()
	if st.Hedges == 0 {
		t.Fatalf("slow primary never hedged: %+v", st)
	}
	if st.HedgeWins == 0 {
		t.Fatalf("hedge against a 50ms-gray primary never won: %+v", st)
	}
	if !servedElsewhere {
		t.Fatal("every invocation was still credited to the gray machine")
	}
	if st.BudgetSpent < st.Hedges {
		t.Fatalf("hedges did not spend budget: %+v", st)
	}
	if st.InvokeP99 == 0 || st.InvokeMax < st.InvokeP99 {
		t.Fatalf("latency digest inconsistent: %+v", st)
	}
}

// TestRetryBudgetExhaustion: with a tiny budget and a fully flaky
// fleet, replays stop with the typed ErrBudgetExhausted instead of
// hammering every machine.
func TestRetryBudgetExhaustion(t *testing.T) {
	f := newTestFleet(t, Config{Machines: 3, Replication: 2, Seed: 5,
		BudgetBurst: 1, BudgetRatio: 0.001})
	ctx := context.Background()
	if err := f.Deploy(ctx, "c-hello"); err != nil {
		t.Fatal(err)
	}
	f.ArmFault(faults.SiteMachineFlaky, 1)
	_, _, err := f.Invoke(ctx, "c-hello", platform.CatalyzerSfork)
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	if !errors.Is(err, ErrFlaky) {
		t.Fatalf("exhaustion does not wrap the underlying flaky error: %v", err)
	}
	st := f.Stats()
	if st.BudgetDenials == 0 || st.BudgetSpent != 1 {
		t.Fatalf("budget stats: %+v", st)
	}
	if st.FlakyDispatches == 0 {
		t.Fatalf("flaky site never fired: %+v", st)
	}
}

// TestBudgetBoundsExtraTraffic: across a long flaky run, tokens spent
// never exceed burst + ratio × invocations.
func TestBudgetBoundsExtraTraffic(t *testing.T) {
	f := newTestFleet(t, Config{Machines: 5, Replication: 2, Seed: 11})
	ctx := context.Background()
	if err := f.Deploy(ctx, "c-hello"); err != nil {
		t.Fatal(err)
	}
	f.ArmFault(faults.SiteMachineFlaky, 0.3)
	const n = 300
	for i := 0; i < n; i++ {
		_, _, err := f.Invoke(ctx, "c-hello", platform.CatalyzerSfork)
		if err != nil && !errors.Is(err, ErrBudgetExhausted) && !errors.Is(err, ErrFlaky) &&
			!errors.Is(err, ErrNoSurvivors) && !errors.Is(err, ErrBrownout) {
			t.Fatalf("unexpected error: %v", err)
		}
	}
	st := f.Stats()
	bound := f.cfg.BudgetBurst + int(f.cfg.BudgetRatio*float64(n)) + 1
	if st.BudgetSpent > bound {
		t.Fatalf("budget spent %d exceeds bound %d (%+v)", st.BudgetSpent, bound, st)
	}
	if st.Retries+st.Hedges != st.BudgetSpent {
		t.Fatalf("token accounting: retries %d + hedges %d != spent %d", st.Retries, st.Hedges, st.BudgetSpent)
	}
}

// TestMaxEjectFractionDefersAndBrownoutServes: ejection stops at the
// configured fraction of the fleet, and when every healthy machine is
// gone the fleet serves browned-out from ejected members; only when
// those fail too does the typed ErrBrownout escape.
func TestMaxEjectFractionDefersAndBrownoutServes(t *testing.T) {
	f := newTestFleet(t, Config{Machines: 3, Replication: 2, Seed: 9,
		MaxEjectFraction: 0.4, MinEjectSamples: 2, ScoreWarmup: 2})
	ctx := context.Background()
	if err := f.Deploy(ctx, "c-hello"); err != nil {
		t.Fatal(err)
	}

	// Manufacture two gross outliers: with a 0.4 fraction over 3 Up
	// machines only one may eject; the second verdict is deferred.
	f.mu.Lock()
	for i := 0; i < 4; i++ {
		f.feedScoreLocked(f.members[0], simtime.Millisecond)
	}
	for i := 0; i < 4; i++ {
		f.feedScoreLocked(f.members[1], 500*simtime.Millisecond)
		f.maybeEjectLocked(f.members[1])
	}
	for i := 0; i < 4; i++ {
		f.feedScoreLocked(f.members[2], 500*simtime.Millisecond)
		f.maybeEjectLocked(f.members[2])
	}
	f.mu.Unlock()

	st := f.Stats()
	if st.Ejections != 1 || st.EjectionsDeferred == 0 {
		t.Fatalf("fraction bound not enforced: %+v", st)
	}

	// Kill the remaining healthy machines: placements must fall back to
	// the ejected member (brownout serving) rather than failing.
	var ejectedIdx int
	for _, mi := range f.Members() {
		if mi.Ejected {
			ejectedIdx = mi.Index
		}
	}
	for _, mi := range f.Members() {
		if !mi.Ejected {
			if err := f.Kill(mi.Index); err != nil {
				t.Fatal(err)
			}
		}
	}
	_, idx, err := f.Invoke(ctx, "c-hello", platform.CatalyzerSfork)
	if err != nil {
		t.Fatalf("brownout invoke failed: %v", err)
	}
	if idx != ejectedIdx {
		t.Fatalf("brownout served by %d, want ejected %d", idx, ejectedIdx)
	}
	if st := f.Stats(); st.BrownoutServes == 0 {
		t.Fatalf("BrownoutServes not counted: %+v", st)
	}

	// With the ejected survivor partitioned away, the typed brownout
	// error escapes (not the generic no-survivors).
	f.ArmFault(faults.SiteMachinePartition, 1)
	_, _, err = f.Invoke(ctx, "c-hello", platform.CatalyzerSfork)
	if !errors.Is(err, ErrBrownout) {
		t.Fatalf("err = %v, want ErrBrownout", err)
	}
}

// TestGrayDefenseDeterministic: two same-seed gray-chaos runs produce
// identical hedge decisions, ejections and stats.
func TestGrayDefenseDeterministic(t *testing.T) {
	run := func() ([]int, Stats) {
		f := newTestFleet(t, Config{Machines: 5, Replication: 2, Seed: 1234})
		ctx := context.Background()
		if err := f.Deploy(ctx, "c-hello"); err != nil {
			t.Fatal(err)
		}
		victim, _ := f.Place("c-hello")
		if err := f.ArmFaultOn(victim, faults.SiteMachineGraySlow, 0.8); err != nil {
			t.Fatal(err)
		}
		f.ArmFault(faults.SiteMachineFlaky, 0.05)
		var placements []int
		for i := 0; i < 120; i++ {
			_, idx, err := f.Invoke(ctx, "c-hello", platform.CatalyzerSfork)
			if err != nil {
				idx = -1
			}
			placements = append(placements, idx)
		}
		return placements, f.Stats()
	}
	p1, s1 := run()
	p2, s2 := run()
	if !equalInts(p1, p2) {
		t.Fatal("same-seed gray runs placed differently")
	}
	if !statsEqual(s1, s2) {
		t.Fatalf("same-seed gray runs diverged:\n%+v\n%+v", s1, s2)
	}
	if s1.Hedges == 0 && s1.Ejections == 0 {
		t.Fatalf("gray run exercised neither hedging nor ejection: %+v", s1)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func statsEqual(a, b Stats) bool {
	return reflect.DeepEqual(a, b)
}
