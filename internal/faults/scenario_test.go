package faults

import (
	"reflect"
	"testing"
	"time"
)

// TestScenarioStepsSorted pins the compiled order: steps sort by At
// with ties kept in builder insertion order, regardless of the order
// the verbs were called.
func TestScenarioStepsSorted(t *testing.T) {
	sc := NewScenario()
	sc.At(6 * time.Second).Heal()
	sc.At(2 * time.Second).ZoneDown("z1")
	sc.At(2 * time.Second).SplitPartition("z2")

	steps, err := sc.Steps()
	if err != nil {
		t.Fatalf("Steps: %v", err)
	}
	if len(steps) != 3 {
		t.Fatalf("got %d steps, want 3", len(steps))
	}
	if steps[0].Kind != StepZoneDown || !reflect.DeepEqual(steps[0].Zones, []string{"z1"}) {
		t.Errorf("steps[0] = %+v, want zone-down z1 first", steps[0])
	}
	if steps[1].Kind != StepSplitPartition {
		t.Errorf("steps[1] = %+v, want split-partition (same-time insertion order)", steps[1])
	}
	if steps[2].Kind != StepHeal || steps[2].At != 6*time.Second {
		t.Errorf("steps[2] = %+v, want heal at 6s", steps[2])
	}
}

// TestScenarioRollingCrashExpansion pins the build-time expansion of a
// sweep: count steps, interval apart, Seq running 0..count-1.
func TestScenarioRollingCrashExpansion(t *testing.T) {
	sc := NewScenario()
	sc.At(time.Second).RollingCrash(500*time.Millisecond, 3)

	steps, err := sc.Steps()
	if err != nil {
		t.Fatalf("Steps: %v", err)
	}
	if len(steps) != 3 {
		t.Fatalf("got %d steps, want 3", len(steps))
	}
	for k, st := range steps {
		wantAt := time.Second + time.Duration(k)*500*time.Millisecond
		if st.Kind != StepRollingCrash || st.At != wantAt || st.Seq != k {
			t.Errorf("steps[%d] = %+v, want rolling-crash at %v seq %d", k, st, wantAt, k)
		}
	}
}

// TestScenarioDeterministicBuild pins that two identically built
// scenarios compile to DeepEqual timelines — the property same-seed
// chaos runs rely on.
func TestScenarioDeterministicBuild(t *testing.T) {
	build := func() *Scenario {
		sc := NewScenario()
		sc.At(2*time.Second).ZoneDown("z0", "z2")
		sc.At(3*time.Second).RollingCrash(time.Second, 4)
		sc.At(10 * time.Second).Heal()
		return sc
	}
	a, errA := build().Steps()
	b, errB := build().Steps()
	if errA != nil || errB != nil {
		t.Fatalf("Steps: %v / %v", errA, errB)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identical builds diverged:\n%+v\n%+v", a, b)
	}
}

// TestScenarioBuilderErrors pins that malformed timelines are rejected
// at compile time, not silently installed.
func TestScenarioBuilderErrors(t *testing.T) {
	cases := []struct {
		name  string
		build func(sc *Scenario)
	}{
		{"negative time", func(sc *Scenario) { sc.At(-time.Second).Heal() }},
		{"zone-down no zones", func(sc *Scenario) { sc.At(time.Second).ZoneDown() }},
		{"split no zones", func(sc *Scenario) { sc.At(time.Second).SplitPartition() }},
		{"rolling count zero", func(sc *Scenario) { sc.At(time.Second).RollingCrash(time.Second, 0) }},
		{"rolling negative interval", func(sc *Scenario) { sc.At(time.Second).RollingCrash(-time.Second, 2) }},
	}
	for _, tc := range cases {
		sc := NewScenario()
		tc.build(sc)
		if _, err := sc.Steps(); err == nil {
			t.Errorf("%s: Steps() accepted a malformed timeline", tc.name)
		}
	}
}

// TestScenarioStepsIsACopy pins that mutating the returned slice does
// not corrupt the installed timeline.
func TestScenarioStepsIsACopy(t *testing.T) {
	sc := NewScenario()
	sc.At(time.Second).ZoneDown("z1")
	a, _ := sc.Steps()
	a[0].Kind = StepHeal
	b, _ := sc.Steps()
	if b[0].Kind != StepZoneDown {
		t.Fatal("mutating Steps() result corrupted the scenario")
	}
}

// TestRateOneKeyedDrawConsumesNoRNG pins the fast path scenarios rely
// on: a rate-1 keyed arming fires without consuming PRNG state, so a
// scripted outage window does not perturb the seeded schedule of other
// armed sites.
func TestRateOneKeyedDrawConsumesNoRNG(t *testing.T) {
	plain := New(7)
	interleaved := New(7)
	plain.Arm(SiteSfork, 0.5)
	interleaved.Arm(SiteSfork, 0.5)
	interleaved.ArmKeyed(SiteZoneDown, "machine-3", 1)
	for i := 0; i < 200; i++ {
		if err := interleaved.CheckKeyed(SiteZoneDown, "machine-3"); err == nil {
			t.Fatalf("draw %d: rate-1 keyed arming did not fire", i)
		}
		a, b := plain.Check(SiteSfork), interleaved.Check(SiteSfork)
		if (a == nil) != (b == nil) {
			t.Fatalf("draw %d diverged: plain=%v interleaved=%v", i, a, b)
		}
	}
	c := interleaved.Counts()[SiteZoneDown]
	if c.Checks != 200 || c.Injected != 200 {
		t.Fatalf("zone-down counts = %+v, want 200/200", c)
	}
}
