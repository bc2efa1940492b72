package catalyzer

import (
	"context"
	"fmt"
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
// expire on the virtual clock, invocations succeed again, queued regens
// run, and nothing leaks. Zero host-clock reads: the whole run, park
// backoffs and self-healing included, advances on virtual time only.
func TestChaosSupervision(t *testing.T) {
	runChaosSupervision(t, chaosSupervisionN())
}

// TestChaosSupervisionDeterministic: the same seed gives the same
// supervision run, outcome by outcome and counter by counter, and that
// run is the committed golden.
func TestChaosSupervisionDeterministic(t *testing.T) {
	n := chaosSupervisionN()
	a, b := runChaosSupervision(t, n), runChaosSupervision(t, n)
	if a != b {
		t.Fatalf("same seed diverged:\n%s\nvs\n%s", a, b)
	}
	checkGolden(t, "chaos_supervision_deterministic.golden", a)
}

// chaosSupervisionN is the supervision suite's invocation count: 300,
// or 60 under -short.
func chaosSupervisionN() int {
	if testing.Short() {
		return 60
	}
	return 300
}

// runChaosSupervision runs the supervision suite for n chaos invocations
// on seed 19, checks its invariants, and renders the run for a golden:
// each chaos invocation's served-by or error kind, then the final
// failure and supervision stats after Close.
func runChaosSupervision(t *testing.T, n int) string {
	t.Helper()
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
	outcomes := make([]string, n)
	for i := range outcomes {
		inv, err := c.Invoke(context.Background(), "c-hello", kinds[i%len(kinds)])
		if err != nil {
			if outcomes[i] = errKind(err); outcomes[i] == "" {
				t.Fatalf("iteration %d: non-typed error escaped Invoke: %v", i, err)
			}
			continue
		}
		if inv.ServedBy == "" {
			t.Fatalf("iteration %d: invocation missing ServedBy", i)
		}
		outcomes[i] = string(inv.ServedBy)
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

	// Close runs what is still queued, and nothing leaks.
	c.Close()
	if got := c.Running(); got != 0 {
		t.Fatalf("leaked live instances after supervision chaos + Close: %d", got)
	}
	return fmt.Sprintf("outcomes: %v\nstats: %+v\nsupervise: %+v\n", outcomes, c.FailureStats(), c.SuperviseStats())
}
