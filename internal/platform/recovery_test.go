package platform

import (
	"context"
	"errors"
	"os"
	"testing"

	"catalyzer/internal/costmodel"
	"catalyzer/internal/faults"
	"catalyzer/internal/image"
	"catalyzer/internal/simtime"
)

// preparedPlatform returns a platform with c-hello fully prepared (image
// + template) and a fault injector installed.
func preparedPlatform(t *testing.T, seed int64) *Platform {
	t.Helper()
	p := New(costmodel.Default())
	p.M.Faults = faults.New(seed)
	if _, err := p.PrepareTemplate("c-hello"); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestHappyPathIdenticalToRawBoot(t *testing.T) {
	// With no faults armed, BootRecover must charge exactly the virtual
	// time Boot charges: the fallback chain adds no work to the happy
	// path.
	for _, sys := range []System{CatalyzerSfork, CatalyzerZygote, CatalyzerRestore} {
		raw := New(costmodel.Default())
		if _, err := raw.PrepareTemplate("c-hello"); err != nil {
			t.Fatal(err)
		}
		rec := New(costmodel.Default())
		if _, err := rec.PrepareTemplate("c-hello"); err != nil {
			t.Fatal(err)
		}
		r1, err := raw.Boot("c-hello", sys)
		if err != nil {
			t.Fatalf("%s: raw boot: %v", sys, err)
		}
		r2, err := rec.BootRecover(context.Background(), "c-hello", sys)
		if err != nil {
			t.Fatalf("%s: recovered boot: %v", sys, err)
		}
		if r1.BootLatency != r2.BootLatency {
			t.Fatalf("%s: recovery changed happy-path latency: raw %v vs recover %v",
				sys, r1.BootLatency, r2.BootLatency)
		}
		r1.Sandbox.Release()
		r2.Sandbox.Release()
	}
}

func TestFallbackServesWhenSforkFails(t *testing.T) {
	p := preparedPlatform(t, 11)
	p.M.Faults.Arm(faults.SiteSfork, 1)

	r, err := p.BootRecover(context.Background(), "c-hello", CatalyzerSfork)
	if err != nil {
		t.Fatalf("fallback chain failed: %v", err)
	}
	defer r.Sandbox.Release()
	if r.System == CatalyzerSfork {
		t.Fatal("rate-1 sfork fault still served by sfork")
	}
	st := p.FailureStats()
	if st.BootFailures[CatalyzerSfork] == 0 {
		t.Fatalf("no sfork failures recorded: %+v", st)
	}
	if st.Fallbacks[r.System] != 1 {
		t.Fatalf("fallback not recorded for %s: %+v", r.System, st)
	}
	if st.Retries == 0 || st.BackoffTotal == 0 {
		t.Fatalf("retry/backoff not recorded: %+v", st)
	}
}

func TestRetrySucceedsWithoutFallback(t *testing.T) {
	// Find a seed whose first sfork draw fails and second succeeds, then
	// verify the retry (not a fallback) serves the request.
	for seed := int64(1); seed < 200; seed++ {
		in := faults.New(seed)
		in.Arm(faults.SiteSfork, 0.5)
		first := in.Check(faults.SiteSfork) != nil
		second := in.Check(faults.SiteSfork) != nil
		if !(first && !second) {
			continue
		}
		p := preparedPlatform(t, seed)
		p.M.Faults.Arm(faults.SiteSfork, 0.5)
		r, err := p.BootRecover(context.Background(), "c-hello", CatalyzerSfork)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		defer r.Sandbox.Release()
		if r.System != CatalyzerSfork {
			t.Fatalf("seed %d: retry should have served via sfork, got %s", seed, r.System)
		}
		st := p.FailureStats()
		if st.Retries != 1 || st.BootFailures[CatalyzerSfork] != 1 {
			t.Fatalf("stats after one retry: %+v", st)
		}
		return
	}
	t.Fatal("no seed with fail-then-succeed schedule found")
}

func TestBreakerOpensAndSkipsStage(t *testing.T) {
	p := preparedPlatform(t, 5)
	p.SetRecoveryConfig(RecoveryConfig{
		MaxRetries:          0,
		BreakerThreshold:    3,
		BreakerCooldown:     simtime.Second,
		QuarantineThreshold: 100, // keep quarantine out of this test
	})
	p.M.Faults.Arm(faults.SiteSfork, 1)

	// Three invocations fail the sfork stage three times → breaker opens.
	for i := 0; i < 3; i++ {
		r, err := p.BootRecover(context.Background(), "c-hello", CatalyzerSfork)
		if err != nil {
			t.Fatalf("invocation %d: %v", i, err)
		}
		r.Sandbox.Release()
	}
	states := p.BreakerStates()
	if states["c-hello/"+string(CatalyzerSfork)] != "open" {
		t.Fatalf("sfork breaker not open: %v", states)
	}
	st := p.FailureStats()
	if st.BreakerTrips != 1 {
		t.Fatalf("trips = %d, want 1", st.BreakerTrips)
	}
	// The snapshot carries the breaker states and the injector's per-site
	// counts: three sfork draws, all injected.
	if got := st.Breakers["c-hello/"+string(CatalyzerSfork)]; got != "open" {
		t.Fatalf("FailureStats breaker = %q, want open: %v", got, st.Breakers)
	}
	if got := st.Faults[faults.SiteSfork]; got != (faults.SiteCount{Checks: 3, Injected: 3}) {
		t.Fatalf("FailureStats sfork faults = %+v, want 3 checks, 3 injected", got)
	}

	// The next invocation skips sfork without attempting it.
	fails := st.BootFailures[CatalyzerSfork]
	r, err := p.BootRecover(context.Background(), "c-hello", CatalyzerSfork)
	if err != nil {
		t.Fatal(err)
	}
	r.Sandbox.Release()
	st = p.FailureStats()
	if st.BootFailures[CatalyzerSfork] != fails {
		t.Fatal("open breaker did not prevent the sfork attempt")
	}
	if st.BreakerSkips == 0 {
		t.Fatalf("skip not counted: %+v", st)
	}

	// After the virtual-time cooldown and with faults gone, the breaker
	// half-opens, the probe succeeds, and the path closes again.
	p.M.Faults.DisarmAll()
	p.M.Env.Charge(simtime.Second)
	r, err = p.BootRecover(context.Background(), "c-hello", CatalyzerSfork)
	if err != nil {
		t.Fatal(err)
	}
	r.Sandbox.Release()
	if r.System != CatalyzerSfork {
		t.Fatalf("probe served by %s, want sfork", r.System)
	}
	if got := p.BreakerStates()["c-hello/"+string(CatalyzerSfork)]; got != "closed" {
		t.Fatalf("breaker after successful probe = %s", got)
	}
}

func TestTemplateQuarantineAndRebuild(t *testing.T) {
	p := preparedPlatform(t, 9)
	p.SetRecoveryConfig(RecoveryConfig{
		MaxRetries:          0,
		BreakerThreshold:    100, // keep the breaker out of this test
		BreakerCooldown:     simtime.Second,
		QuarantineThreshold: 3,
	})
	p.M.Faults.Arm(faults.SiteSfork, 1)

	f, _ := p.Lookup("c-hello")
	oldTmpl := f.Tmpl
	for i := 0; i < 3; i++ {
		r, err := p.BootRecover(context.Background(), "c-hello", CatalyzerSfork)
		if err != nil {
			t.Fatalf("invocation %d: %v", i, err)
		}
		r.Sandbox.Release()
	}
	st := p.FailureStats()
	if st.TemplatesQuarantined != 1 {
		t.Fatalf("quarantines = %d, want 1: %+v", st.TemplatesQuarantined, st)
	}
	if f.Tmpl == nil {
		t.Fatal("template not rebuilt after quarantine")
	}
	if oldTmpl.Sandbox() != nil && !oldTmpl.Sandbox().Released() {
		// Refresh swaps the sandbox in place, so inspect via the handle.
		t.Log("template refreshed in place (same handle, fresh sandbox)")
	}

	// The rebuilt template works once faults stop.
	p.M.Faults.DisarmAll()
	r, err := p.BootRecover(context.Background(), "c-hello", CatalyzerSfork)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Sandbox.Release()
	if r.System != CatalyzerSfork {
		t.Fatalf("rebuilt template not used: served by %s", r.System)
	}
}

func TestChainExhaustionReturnsTypedError(t *testing.T) {
	// gVisor cold boot is the deliberately fault-free last resort, so a
	// Catalyzer chain never exhausts under injection alone. A baseline
	// strategy with a missing precondition (GVisorRestore, no image) has
	// a single-stage chain and does exhaust.
	p := New(costmodel.Default())
	if _, err := p.Register("c-hello"); err != nil {
		t.Fatal(err)
	}
	live := p.M.Live()
	_, err := p.BootRecover(context.Background(), "c-hello", GVisorRestore)
	if err == nil {
		t.Fatal("restore without an image booted")
	}
	var be *BootError
	if !errors.As(err, &be) {
		t.Fatalf("exhausted chain error not typed: %v", err)
	}
	if be.Function != "c-hello" || be.Requested != GVisorRestore {
		t.Fatalf("BootError fields: %+v", be)
	}
	if len(be.Attempts) != 1 {
		t.Fatalf("attempts = %d, want 1", len(be.Attempts))
	}
	if !errors.Is(err, ErrNoImage) {
		t.Fatalf("BootError does not unwrap to ErrNoImage: %v", err)
	}
	if p.M.Live() != live {
		t.Fatalf("failed chain leaked instances: %d -> %d", live, p.M.Live())
	}
	if p.FailureStats().Exhausted != 1 {
		t.Fatalf("exhaustion not counted: %+v", p.FailureStats())
	}
}

func TestAllFaultsArmedStillServesViaGVisor(t *testing.T) {
	// With every injection site firing at rate 1, the chain degrades all
	// the way to the fault-free gVisor cold boot and still serves —
	// without leaking the partially-booted instances of the failed
	// stages.
	p := preparedPlatform(t, 13)
	live := p.M.Live()
	for _, s := range faults.Sites() {
		p.M.Faults.Arm(s, 1)
	}
	r, err := p.BootRecover(context.Background(), "c-hello", CatalyzerSfork)
	if err != nil {
		t.Fatalf("chain with gvisor terminal failed: %v", err)
	}
	if r.System != GVisor {
		t.Fatalf("served by %s, want gvisor last resort", r.System)
	}
	r.Sandbox.Release()
	if p.M.Live() != live {
		t.Fatalf("failed stages leaked instances: %d -> %d", live, p.M.Live())
	}
	st := p.FailureStats()
	if st.BootFailures[CatalyzerSfork] == 0 || st.Fallbacks[GVisor] != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestPreconditionSkipsStageWithoutBreakerCharge(t *testing.T) {
	// Image prepared but no template: the sfork stage is a precondition
	// miss, the chain degrades, and the sfork breaker stays untouched.
	p := New(costmodel.Default())
	p.M.Faults = faults.New(1)
	if _, err := p.PrepareImage("c-hello"); err != nil {
		t.Fatal(err)
	}
	r, err := p.BootRecover(context.Background(), "c-hello", CatalyzerSfork)
	if err != nil {
		t.Fatalf("chain with missing template failed: %v", err)
	}
	defer r.Sandbox.Release()
	if r.System == CatalyzerSfork {
		t.Fatal("served by sfork without a template")
	}
	st := p.FailureStats()
	if st.BootFailures[CatalyzerSfork] != 0 {
		t.Fatalf("precondition miss charged the sfork stage: %+v", st)
	}
	if got := p.BreakerStates()["c-hello/"+string(CatalyzerSfork)]; got != "closed" {
		t.Fatalf("sfork breaker after precondition miss = %q", got)
	}
}

func TestBootRecoverUnknownFunction(t *testing.T) {
	p := New(costmodel.Default())
	_, err := p.BootRecover(context.Background(), "no-such-fn", CatalyzerSfork)
	if !errors.Is(err, ErrNotRegistered) {
		t.Fatalf("err = %v, want ErrNotRegistered", err)
	}
}

func TestCorruptStoredImageQuarantinedAndRebuilt(t *testing.T) {
	dir := t.TempDir()
	store, err := image.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	// First platform builds and persists the image.
	p1 := NewWithStore(costmodel.Default(), store)
	if _, err := p1.PrepareImage("c-hello"); err != nil {
		t.Fatal(err)
	}
	// Corrupt the stored payload (the active generation file).
	path, err := store.ActivePath("c-hello")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/3] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// Second platform hits the corruption, quarantines, rebuilds, saves.
	p2 := NewWithStore(costmodel.Default(), store)
	f, err := p2.PrepareImage("c-hello")
	if err != nil {
		t.Fatalf("rebuild after corruption failed: %v", err)
	}
	if f.Image == nil {
		t.Fatal("no image after rebuild")
	}
	if got := p2.FailureStats().ImagesQuarantined; got != 1 {
		t.Fatalf("ImagesQuarantined = %d, want 1", got)
	}
	q, err := store.Quarantined()
	if err != nil {
		t.Fatal(err)
	}
	if len(q) != 1 || q[0] != "c-hello" {
		t.Fatalf("Quarantined() = %v", q)
	}
	// The rebuilt artifact on disk is valid again.
	if _, err := store.Load("c-hello"); err != nil {
		t.Fatalf("rebuilt stored image unreadable: %v", err)
	}
}

func TestInjectedLoadFaultRebuildsWithoutQuarantine(t *testing.T) {
	dir := t.TempDir()
	store, err := image.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	p1 := NewWithStore(costmodel.Default(), store)
	if _, err := p1.PrepareImage("c-hello"); err != nil {
		t.Fatal(err)
	}

	p2 := NewWithStore(costmodel.Default(), store)
	p2.M.Faults = faults.New(2)
	p2.M.Faults.Arm(faults.SiteImageLoad, 1)
	if _, err := p2.PrepareImage("c-hello"); err != nil {
		t.Fatalf("rebuild after load fault failed: %v", err)
	}
	st := p2.FailureStats()
	if st.ImageLoadFaults != 1 || st.ImagesQuarantined != 0 {
		t.Fatalf("stats = %+v, want 1 load fault, 0 quarantines", st)
	}
	q, _ := store.Quarantined()
	if len(q) != 0 {
		t.Fatalf("load fault quarantined the stored file: %v", q)
	}
}

func TestPlatformCloseReleasesEverything(t *testing.T) {
	p := preparedPlatform(t, 3)
	if _, err := p.PrepareTemplate("python-hello"); err != nil {
		t.Fatal(err)
	}
	r, err := p.InvokeRecover(context.Background(), "c-hello", CatalyzerRestore)
	if err != nil {
		t.Fatal(err)
	}
	if r.Sandbox == nil || !r.Sandbox.Released() {
		t.Fatal("InvokeRecover did not release the instance")
	}
	p.Close()
	if p.M.Live() != 0 {
		t.Fatalf("live after Close = %d, want 0", p.M.Live())
	}
}
