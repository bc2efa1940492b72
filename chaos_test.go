package catalyzer

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// chaosRates is the fault schedule the harness arms: the two headline
// sites at the acceptance rate (30%) plus lower-rate noise on every other
// boot phase.
var chaosRates = map[string]float64{
	"sfork":          0.3,
	"image-load":     0.3,
	"image-decode":   0.2,
	"zygote-take":    0.2,
	"base-ept-map":   0.1,
	"metadata-fixup": 0.1,
	"io-reconnect":   0.1,
}

// checkGolden compares the rendering of a same-seed chaos run with the
// committed testdata/<name>. Goldens hold full-length runs only, so the
// comparison is skipped under -short; it is also skipped off amd64,
// where the compiler may fuse the latency EWMA's multiply-add and move
// the gray-defense decisions.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	if testing.Short() || runtime.GOARCH != "amd64" {
		t.Logf("golden %s not compared (short mode or GOARCH=%s)", name, runtime.GOARCH)
		return
	}
	path := filepath.Join("testdata", name)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("run differs from %s; got:\n%s", path, got)
	}
}

// chaosRender renders a chaos run for its golden: the per-invocation
// placements, then the final stats with Go field names.
func chaosRender(placements []int, stats any) string {
	return fmt.Sprintf("placements: %v\nstats: %+v\n", placements, stats)
}

// typedError reports whether err is one of the API's typed failures — a
// BootError from an exhausted chain or a re-exported sentinel. The chaos
// invariant is that nothing else ever escapes Invoke.
func typedError(err error) bool {
	var be *BootError
	if errors.As(err, &be) {
		return true
	}
	return errors.Is(err, ErrNotRegistered) ||
		errors.Is(err, ErrNoImage) ||
		errors.Is(err, ErrNoTemplate) ||
		errors.Is(err, ErrUnknownSystem) ||
		errors.Is(err, ErrOverloaded) ||
		errors.Is(err, ErrDraining) ||
		errors.Is(err, ErrDeadlineExceeded) ||
		errors.Is(err, ErrCanceled) ||
		errors.Is(err, ErrOutOfMemory) ||
		errors.Is(err, ErrWedged) ||
		errors.Is(err, ErrPoisoned) ||
		errors.Is(err, ErrInvocationHung) ||
		errors.Is(err, ErrCrashLooping)
}

// runChaos drives n invocations across the three Catalyzer boot paths
// with the given fault seed, refreshing the func-image from the store
// every 10th iteration to exercise the load/quarantine path. It fails
// the test on any non-typed error and returns the final stats.
func runChaos(t *testing.T, c *Fleet, n int) FailureStats {
	t.Helper()
	for site, rate := range chaosRates {
		if err := c.ArmFault(site, rate); err != nil {
			t.Fatal(err)
		}
	}
	kinds := []BootKind{ForkBoot, WarmBoot, ColdBoot}
	for i := 0; i < n; i++ {
		if i%10 == 9 {
			if err := refresh(c, "c-hello"); err != nil && !typedError(err) {
				t.Fatalf("iteration %d: refresh returned a non-typed error: %v", i, err)
			}
		}
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
	return c.FailureStats()
}

func TestChaosInvocations(t *testing.T) {
	n := 500
	if testing.Short() {
		n = 60
	}
	c := storeHost(t, t.TempDir(), WithFaultSeed(42))
	if err := c.Deploy(context.Background(), "c-hello"); err != nil {
		t.Fatal(err)
	}
	st := runChaos(t, c, n)

	// The machinery must have actually been exercised.
	if st.BootFailures["catalyzer-sfork"] == 0 {
		t.Fatalf("no sfork failures recorded at 30%% injection: %+v", st)
	}
	total := 0
	for _, v := range st.Fallbacks {
		total += v
	}
	if total == 0 {
		t.Fatalf("no fallbacks recorded: %+v", st)
	}
	if st.Retries == 0 || st.BackoffTotal == 0 {
		t.Fatalf("no retries/backoff recorded: %+v", st)
	}
	if st.Faults["sfork"].Injected == 0 || st.Faults["image-load"].Checks == 0 {
		t.Fatalf("injector accounting empty: %+v", st.Faults)
	}
	if n >= 500 {
		// At 30% sfork failure over hundreds of draws the breaker and the
		// template quarantine must both have fired.
		if st.BreakerTrips == 0 {
			t.Fatalf("breaker never tripped over %d invocations: %+v", n, st)
		}
		if st.TemplatesQuarantined == 0 {
			t.Fatalf("template never quarantined over %d invocations: %+v", n, st)
		}
	}

	// Recovery: disarm everything and keep invoking. Breakers half-open
	// after their virtual-time cooldown, probes succeed, and every
	// breaker converges back to closed.
	c.DisarmFaults()
	for i := 0; i < 30; i++ {
		if _, err := c.Invoke(context.Background(), "c-hello", []BootKind{ForkBoot, WarmBoot, ColdBoot}[i%3]); err != nil {
			t.Fatalf("post-recovery invoke %d: %v", i, err)
		}
	}
	for k, state := range c.FailureStats().Breakers {
		if state != "closed" {
			t.Fatalf("breaker %s did not converge: %s", k, state)
		}
	}

	// No leaked instances: everything released by Invoke, templates and
	// mappings released by Close.
	c.Close()
	if got := c.Running(); got != 0 {
		t.Fatalf("leaked live instances after chaos run + Close: %d", got)
	}
}

func TestChaosDeterministic(t *testing.T) {
	run := func() FailureStats {
		c := storeHost(t, t.TempDir(), WithFaultSeed(7))
		if err := c.Deploy(context.Background(), "c-hello"); err != nil {
			t.Fatal(err)
		}
		st := runChaos(t, c, 100)
		c.Close()
		return st
	}
	a, b := run(), run()
	if a.Retries != b.Retries || a.BreakerTrips != b.BreakerTrips ||
		a.Exhausted != b.Exhausted || a.BackoffTotal != b.BackoffTotal ||
		a.TemplatesQuarantined != b.TemplatesQuarantined {
		t.Fatalf("same seed diverged:\n%+v\nvs\n%+v", a, b)
	}
	for sys, v := range a.BootFailures {
		if b.BootFailures[sys] != v {
			t.Fatalf("same seed diverged on %s failures: %d vs %d", sys, v, b.BootFailures[sys])
		}
	}
	for site, v := range a.Faults {
		if b.Faults[site] != v {
			t.Fatalf("same seed diverged at site %s: %+v vs %+v", site, v, b.Faults[site])
		}
	}
	checkGolden(t, "chaos_deterministic.golden", fmt.Sprintf("stats: %+v\n", a))
}

// TestChaosCrashRestartReinvoke is the crash-restart-reinvoke loop: each
// round opens a one-machine fleet over the same store directory,
// recovers the registry from the manifest, invokes under armed store
// crash sites (every durability boundary a Save can die at), and
// closes. The invariants: recovery always succeeds, a recovered
// function serves without a fresh Deploy, and only typed errors ever
// escape.
func TestChaosCrashRestartReinvoke(t *testing.T) {
	rounds := 12
	if testing.Short() {
		rounds = 5
	}
	dir := t.TempDir()
	storeSites := []string{"store-write", "store-rename", "journal-append", "manifest-compact"}

	// Round 0 deploys for real; later rounds must recover from the store.
	for round := 0; round < rounds; round++ {
		c := storeHost(t, dir, WithFaultSeed(int64(round)))
		rep, err := c.Recover(context.Background())
		if err != nil {
			t.Fatalf("round %d: recover: %v", round, err)
		}
		if round == 0 {
			if err := c.Deploy(context.Background(), "c-hello"); err != nil {
				t.Fatal(err)
			}
		} else if len(rep.Recovered) != 1 || rep.Recovered[0] != "c-hello" {
			t.Fatalf("round %d: recovered %v (failed %v), want [c-hello]", round, rep.Recovered, rep.Failed)
		}

		// Arm every store crash site plus boot-phase noise, then push
		// traffic through Refresh (which re-runs the store load/save path)
		// and the three Catalyzer boot kinds.
		site := storeSites[round%len(storeSites)]
		if err := c.ArmFault(site, 0.5); err != nil {
			t.Fatal(err)
		}
		if err := c.ArmFault("image-load", 0.2); err != nil {
			t.Fatal(err)
		}
		kinds := []BootKind{ForkBoot, WarmBoot, ColdBoot}
		for i := 0; i < 9; i++ {
			if i%3 == 2 {
				if err := refresh(c, "c-hello"); err != nil && !typedError(err) {
					t.Fatalf("round %d iter %d: refresh non-typed error: %v", round, i, err)
				}
			}
			if _, err := c.Invoke(context.Background(), "c-hello", kinds[i%3]); err != nil && !typedError(err) {
				t.Fatalf("round %d iter %d: non-typed error escaped Invoke: %v", round, i, err)
			}
		}
		c.Close()
		if got := c.Running(); got != 0 {
			t.Fatalf("round %d: leaked instances: %d", round, got)
		}
	}

	// After every round of crashes the store still reopens to a
	// serviceable state with c-hello live.
	c := storeHost(t, dir)
	rep, err := c.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Recovered) != 1 || rep.Recovered[0] != "c-hello" {
		t.Fatalf("final recovery = %v (failed %v)", rep.Recovered, rep.Failed)
	}
	if _, err := c.Invoke(context.Background(), "c-hello", ColdBoot); err != nil {
		t.Fatalf("final invoke after crash-restart loop: %v", err)
	}
	c.Close()
}

func TestHappyPathUnchangedByRecoveryRouting(t *testing.T) {
	// With no fault armed, Invoke (routed through the recovery chain)
	// must report the exact latencies of a direct platform invoke.
	c := newHost(t)
	if err := c.Deploy(context.Background(), "c-hello"); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []BootKind{ForkBoot, WarmBoot, ColdBoot} {
		inv, err := c.Invoke(context.Background(), "c-hello", kind)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if inv.Degraded() {
			t.Fatalf("%s: degraded without faults (served by %s)", kind, inv.ServedBy)
		}
	}
	st := c.FailureStats()
	if st.Retries != 0 || st.BreakerTrips != 0 || len(st.BootFailures) != 0 {
		t.Fatalf("failure machinery active on the happy path: %+v", st)
	}
}
