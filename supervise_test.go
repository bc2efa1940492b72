package catalyzer

import (
	"context"
	"errors"
	"sync"
	"testing"

	"catalyzer/internal/simtime"
)

// TestPoisonedTemplateContainment is the ISSUE's poisoning acceptance
// test. The template-poison site is armed while the template is built,
// so every sfork child inherits the defect and fails at execution. The
// invariants: the number of poisoned failures never exceeds the verdict
// threshold (the lineage verdict quarantines the template after
// PoisonThreshold distinct failed children), invocations keep succeeding
// while the template is rebuilt off the request path, and once the
// rebuild lands a fork boot serves non-degraded again. All in virtual
// time.
func TestPoisonedTemplateContainment(t *testing.T) {
	c := newHost(t, WithFaultSeed(11))

	// The poison draw happens at template construction: arm, deploy,
	// disarm. Execution-stage failures afterwards run fault-free, so the
	// queued rebuild produces a healthy template.
	if err := c.ArmFault("template-poison", 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Deploy(context.Background(), "c-hello"); err != nil {
		t.Fatal(err)
	}
	c.DisarmFaults()

	threshold := DefaultSuperviseConfig().PoisonThreshold
	poisoned := 0
	for i := 0; i < threshold; i++ {
		_, err := c.Invoke(context.Background(), "c-hello", ForkBoot)
		if !errors.Is(err, ErrPoisoned) {
			t.Fatalf("invoke %d from poisoned template: err = %v, want ErrPoisoned", i, err)
		}
		poisoned++
	}
	if poisoned > threshold {
		t.Fatalf("poisoned failures = %d, exceeds verdict threshold %d", poisoned, threshold)
	}

	// The verdict has been raised: the template is quarantined and its
	// regen queued for the next supervision Poll, which runs as the next
	// boot leaves. So that one boot degrades (zygote/restore, while the
	// template slot is empty) and every later fork boot serves from the
	// regenerated template; none of them errors.
	for i := 0; i < 5; i++ {
		inv, err := c.Invoke(context.Background(), "c-hello", ForkBoot)
		if err != nil {
			t.Fatalf("invoke %d after quarantine: %v", i, err)
		}
		if degraded := inv.ServedBy != ForkBoot; degraded != (i == 0) {
			t.Fatalf("invoke %d after quarantine served by %s; want only invoke 0 degraded", i, inv.ServedBy)
		}
	}

	st := c.FailureStats()
	if st.TemplatesPoisoned != 1 {
		t.Fatalf("TemplatesPoisoned = %d, want 1 (%+v)", st.TemplatesPoisoned, st)
	}
	if st.TemplatesQuarantined == 0 {
		t.Fatalf("poisoning verdict did not quarantine: %+v", st)
	}
	if st.TemplateRegens != 1 {
		t.Fatalf("TemplateRegens = %d, want 1 (%+v)", st.TemplateRegens, st)
	}
}

// TestWatchdogKillReleasesAdmissionSlot is the ISSUE's watchdog
// acceptance test: with a single admission slot and the invoke-hang site
// armed, a hung invocation is killed by the watchdog (not stuck forever),
// its instance reaped, and its admission slot released — so a queued
// invocation proceeds instead of being shed, and a post-recovery
// invocation finds all slots free.
func TestWatchdogKillReleasesAdmissionSlot(t *testing.T) {
	c := newHost(t,
		WithFaultSeed(5),
		WithAdmission(AdmissionConfig{MaxConcurrent: 1, QueueDepth: 2}),
	)
	if err := c.Deploy(context.Background(), "c-hello"); err != nil {
		t.Fatal(err)
	}
	if err := c.ArmFault("invoke-hang", 1); err != nil {
		t.Fatal(err)
	}

	// Two concurrent invocations against one slot: one runs, one queues.
	// Both hang and are watchdog-killed; neither is shed with
	// ErrOverloaded, which proves the kill released the slot to the queue.
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.Invoke(context.Background(), "c-hello", ForkBoot)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if errors.Is(err, ErrOverloaded) {
			t.Fatalf("invocation %d shed instead of queued: watchdog kill did not release the slot", i)
		}
		if !errors.Is(err, ErrInvocationHung) {
			t.Fatalf("invocation %d: err = %v, want ErrInvocationHung", i, err)
		}
	}

	if st := c.FailureStats(); st.WatchdogKills != 2 {
		t.Fatalf("WatchdogKills = %d, want 2 (%+v)", st.WatchdogKills, st)
	}

	// Slots are fully released: a fault-free invocation is admitted
	// immediately and succeeds.
	c.DisarmFaults()
	if _, err := c.Invoke(context.Background(), "c-hello", ForkBoot); err != nil {
		t.Fatalf("post-recovery invoke: %v", err)
	}
	ov := c.OverloadStats()
	if ov.Admitted != 3 || ov.InFlight != 0 {
		t.Fatalf("overload stats after kills = %+v, want 3 admitted / 0 in flight", ov)
	}
	if got := c.Running(); got != 1 { // the template sandbox stays alive
		t.Fatalf("killed instances not reaped: %d live, want 1 (template only)", got)
	}
}

// TestCrashLoopParksAndRecovers drives a function into a crash loop
// (every execution hangs and is watchdog-killed), asserts the supervisor
// parks it with the typed ErrCrashLooping, and then — once the fault
// clears and the virtual clock moves past the park backoff — the
// function serves again and the park state resets.
//
// The third kill also reaches the poisoning verdict for c-hello's
// template. Its regen charges a template build (a cold boot, tens of
// virtual ms) to the shared machine clock, but only at the next
// supervision Poll: the fourth invoke is refused at the park check,
// before its boot would Poll, so the regen lands after it.
func TestCrashLoopParksAndRecovers(t *testing.T) {
	c := newHost(t,
		WithFaultSeed(3),
		WithSupervision(SuperviseConfig{
			CrashLoopThreshold: 3,
			CrashLoopWindow:    10 * simtime.Second,
			ParkBase:           simtime.Second,
			ParkMax:            2 * simtime.Second,
		}),
	)
	for _, fn := range []string{"c-hello", "python-hello"} {
		if err := c.Deploy(context.Background(), fn); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.ArmFault("invoke-hang", 1); err != nil {
		t.Fatal(err)
	}

	// Three kills inside the window park the function.
	for i := 0; i < 3; i++ {
		if _, err := c.Invoke(context.Background(), "c-hello", ForkBoot); !errors.Is(err, ErrInvocationHung) {
			t.Fatalf("invoke %d: err = %v, want ErrInvocationHung", i, err)
		}
	}
	_, err := c.Invoke(context.Background(), "c-hello", ForkBoot)
	if !errors.Is(err, ErrCrashLooping) {
		t.Fatalf("parked invoke: err = %v, want ErrCrashLooping", err)
	}
	sst := c.SuperviseStats()
	if sst.CrashLoopsParked != 1 || sst.CrashLoopRejects == 0 || sst.ParkedFunctions != 1 {
		t.Fatalf("supervise stats after park = %+v", sst)
	}
	if left, ok := c.ParkedFunctions()["c-hello"]; !ok || left <= 0 {
		t.Fatalf("ParkedFunctions = %v, want c-hello with remaining park time", c.ParkedFunctions())
	}

	// Clear the fault and advance the virtual clock past the park by
	// serving a healthy function. The parked one then recovers.
	c.DisarmFaults()
	for i := 0; i < 100 && len(c.ParkedFunctions()) > 0; i++ {
		if _, err := c.Invoke(context.Background(), "python-hello", ColdBoot); err != nil {
			t.Fatalf("clock-advancing invoke %d: %v", i, err)
		}
	}
	if parked := c.ParkedFunctions(); len(parked) != 0 {
		t.Fatalf("park never expired on the virtual clock: %v", parked)
	}
	if _, err := c.Invoke(context.Background(), "c-hello", ForkBoot); err != nil {
		t.Fatalf("invoke after park expiry: %v", err)
	}
	if got := c.SuperviseStats().ParkedFunctions; got != 0 {
		t.Fatalf("parked gauge after recovery = %d, want 0", got)
	}
}
