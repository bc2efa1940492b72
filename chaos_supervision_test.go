package catalyzer

import (
	"context"
	"testing"

	"catalyzer/internal/simtime"
)

// chaosSupervisionRates arms every supervision fault site — instances
// that wedge after boot, executions that hang, templates built poisoned,
// probes that miss a wedge — plus boot-phase noise, so the probe loops,
// the watchdog, the lineage verdict, and the crash-loop parker all fire
// against each other in one run.
var chaosSupervisionRates = map[string]float64{
	"sandbox-wedge":        0.3,
	"invoke-hang":          0.15,
	"template-poison":      0.3,
	"probe-false-negative": 0.2,
	"sfork":                0.2,
	"image-load":           0.1,
}

// TestChaosSupervision is the supervision convergence suite: under every
// supervision site armed at once, only typed errors escape Invoke, the
// self-healing machinery demonstrably runs (probes, evictions, watchdog
// kills), and after the faults clear the platform converges — parks
// expire on the virtual clock, invocations succeed again, background
// regens and refills drain, and nothing leaks. Zero host-clock reads:
// the whole run, park backoffs included, advances on virtual time only.
func TestChaosSupervision(t *testing.T) {
	n := 300
	if testing.Short() {
		n = 60
	}
	c := newHost(t,
		WithFaultSeed(19),
		// Cap the park backoff so post-chaos convergence needs only a
		// short stretch of virtual time.
		WithSupervision(SuperviseConfig{ParkMax: 50 * simtime.Millisecond}),
	)
	for _, fn := range []string{"c-hello", "python-hello"} {
		if err := c.Deploy(context.Background(), fn); err != nil {
			t.Fatal(err)
		}
	}
	for site, rate := range chaosSupervisionRates {
		if err := c.ArmFault(site, rate); err != nil {
			t.Fatal(err)
		}
	}

	kinds := []BootKind{ForkBoot, WarmBoot, ColdBoot}
	for i := 0; i < n; i++ {
		inv, err := c.Invoke(context.Background(), "c-hello", kinds[i%len(kinds)])
		if err != nil {
			if !typedError(err) {
				t.Fatalf("iteration %d: non-typed error escaped Invoke: %v", i, err)
			}
			continue
		}
		if inv.ServedBy == "" {
			t.Fatalf("iteration %d: invocation missing ServedBy", i)
		}
	}

	// The supervision machinery must actually have been exercised.
	st, sst := c.FailureStats(), c.SuperviseStats()
	if st.WatchdogKills == 0 {
		t.Fatalf("no watchdog kills at 15%% invoke-hang over %d invocations: %+v", n, st)
	}
	if sst.ProbesRun == 0 || sst.TargetsProbed == 0 {
		t.Fatalf("supervision probes never ran: %+v", sst)
	}
	if sst.WedgedEvicted == 0 {
		t.Fatalf("no wedged instances evicted at 30%% sandbox-wedge: %+v", sst)
	}

	// Convergence: disarm everything, let the virtual clock run past any
	// remaining park backoff by serving the healthy function, then the
	// chaos-stricken function must serve cleanly again.
	c.DisarmFaults()
	for i := 0; i < 100 && len(c.ParkedFunctions()) > 0; i++ {
		if _, err := c.Invoke(context.Background(), "python-hello", ColdBoot); err != nil {
			t.Fatalf("convergence invoke %d: %v", i, err)
		}
	}
	if parked := c.ParkedFunctions(); len(parked) != 0 {
		t.Fatalf("parks never expired on the virtual clock: %v", parked)
	}
	for i := 0; i < 30; i++ {
		if _, err := c.Invoke(context.Background(), "c-hello", kinds[i%len(kinds)]); err != nil {
			t.Fatalf("post-recovery invoke %d: %v", i, err)
		}
	}

	// Background self-healing (template regens, pool refills) drains and
	// nothing leaks: only the two template sandboxes stay alive.
	waitSupervision(c)
	c.Close()
	if got := c.Running(); got != 0 {
		t.Fatalf("leaked live instances after supervision chaos + Close: %d", got)
	}
}
