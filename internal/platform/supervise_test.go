package platform

import (
	"context"
	"errors"
	"sync"
	"testing"

	"catalyzer/internal/costmodel"
	"catalyzer/internal/faults"
	"catalyzer/internal/simtime"
)

// supervised builds a prepared platform whose probes are due on every
// PollSupervise (1-tick cadence), so tests don't have to choreograph the
// virtual clock against the default 100ms interval.
func supervised(t testing.TB, name string) *Platform {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Supervise.ProbeInterval = 1
	p, err := NewWithConfig(costmodel.Default(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.PrepareTemplate(name); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestConfigValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.ZygotePoolSize = -1
	if _, err := NewWithConfig(costmodel.Default(), bad); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("negative pool size: err = %v, want ErrBadConfig", err)
	}
	bad = DefaultConfig()
	bad.Supervise.ProbeInterval = -simtime.Millisecond
	if _, err := NewWithConfig(costmodel.Default(), bad); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("negative probe interval: err = %v, want ErrBadConfig", err)
	}

	// The pool size knob actually reaches the pool (the old hardcoded 4).
	cfg := DefaultConfig()
	cfg.ZygotePoolSize = 7
	p, err := NewWithConfig(costmodel.Default(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.Config().ZygotePoolSize != 7 || p.Zygotes.Target() != 7 {
		t.Fatalf("pool size not threaded through: cfg=%d target=%d",
			p.Config().ZygotePoolSize, p.Zygotes.Target())
	}
	if DefaultConfig().ZygotePoolSize != DefaultZygotePoolSize {
		t.Fatalf("default pool size = %d, want %d", DefaultConfig().ZygotePoolSize, DefaultZygotePoolSize)
	}
}

// TestZygoteProbePrunesAndRefills: wedged pooled Zygotes are pruned by
// the probe and the pool is topped back up in the same Poll, off any
// invocation's critical path.
func TestZygoteProbePrunesAndRefills(t *testing.T) {
	p := supervised(t, "c-hello")
	// A zygote boot populates the pool to its target.
	if _, err := p.Invoke("c-hello", CatalyzerZygote); err != nil {
		t.Fatal(err)
	}
	if p.Zygotes.Ready() != p.Zygotes.Target() {
		t.Fatalf("pool not at target after zygote boot: %d/%d", p.Zygotes.Ready(), p.Zygotes.Target())
	}

	p.ArmFault(faults.SiteSandboxWedge, 1)
	p.PollSupervise() // prune and refill both run inline
	p.DisarmFaults()

	if p.Zygotes.Ready() != p.Zygotes.Target() {
		t.Fatalf("pool not refilled after prune: %d/%d", p.Zygotes.Ready(), p.Zygotes.Target())
	}
	st := p.SuperviseStats()
	if st.WedgedEvicted < p.Zygotes.Target() {
		t.Fatalf("WedgedEvicted = %d, want >= %d (whole pool wedged)", st.WedgedEvicted, p.Zygotes.Target())
	}
}

// TestTemplateProbeQuarantineAndRegen: a wedged template sandbox is
// retired by the probe and rebuilt later in the same Poll; fork boots
// work again once the regen lands.
func TestTemplateProbeQuarantineAndRegen(t *testing.T) {
	p := supervised(t, "c-hello")
	f, err := p.Lookup("c-hello")
	if err != nil {
		t.Fatal(err)
	}

	p.ArmFault(faults.SiteSandboxWedge, 1)
	p.PollSupervise()
	p.DisarmFaults()

	p.mu.Lock()
	tmpl := f.Tmpl
	p.mu.Unlock()
	if tmpl == nil {
		t.Fatal("template not regenerated after wedge eviction")
	}
	st := p.FailureStats()
	if st.TemplateRegens != 1 {
		t.Fatalf("TemplateRegens = %d, want 1 (%+v)", st.TemplateRegens, st)
	}
	if p.SuperviseStats().WedgedEvicted == 0 {
		t.Fatal("wedged template not counted as evicted")
	}
	if _, err := p.Invoke("c-hello", CatalyzerSfork); err != nil {
		t.Fatalf("fork boot from regenerated template: %v", err)
	}
}

// TestTemplateRegenDeduplicated: concurrent failure paths requesting a
// rebuild of the same template produce exactly one regen.
func TestTemplateRegenDeduplicated(t *testing.T) {
	p := supervised(t, "c-hello")
	f, err := p.Lookup("c-hello")
	if err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	f.Tmpl.Retire()
	f.Tmpl = nil
	p.mu.Unlock()

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.startTemplateRegen(f)
		}()
	}
	wg.Wait()
	p.PollSupervise()

	if st := p.FailureStats(); st.TemplateRegens != 1 {
		t.Fatalf("TemplateRegens = %d, want 1 (regen not deduplicated)", st.TemplateRegens)
	}
	p.mu.Lock()
	tmpl := f.Tmpl
	p.mu.Unlock()
	if tmpl == nil {
		t.Fatal("deduplicated regen left no template")
	}
}

// TestKeepWarmProbeEvictsWedged: the keep-warm cache's probe group
// liveness-checks idle instances and evicts wedged ones, so a cache hit
// never hands out a dead sandbox.
func TestKeepWarmProbeEvictsWedged(t *testing.T) {
	p := supervised(t, "c-hello")
	kw := NewKeepWarmCache(p, 4, GVisor)
	defer kw.Release()
	if _, _, err := kw.Invoke("c-hello"); err != nil {
		t.Fatal(err)
	}
	if kw.Len() != 1 {
		t.Fatalf("cache len = %d after first invoke, want 1", kw.Len())
	}

	p.ArmFault(faults.SiteSandboxWedge, 1)
	p.PollSupervise()
	p.DisarmFaults()
	if kw.Len() != 0 {
		t.Fatalf("wedged idle instance not evicted: len = %d", kw.Len())
	}
	if p.SuperviseStats().WedgedEvicted == 0 {
		t.Fatal("eviction not counted in supervise stats")
	}
	// The next request is a miss that boots a fresh, healthy instance.
	if _, _, err := kw.Invoke("c-hello"); err != nil {
		t.Fatalf("invoke after eviction: %v", err)
	}
}

// TestWatchdogKillChargesBudgetAndReaps: a hung invocation costs exactly
// the watchdog budget of virtual time, its instance is reaped, and the
// kill is counted.
func TestWatchdogKillChargesBudgetAndReaps(t *testing.T) {
	p := prepared(t, "c-hello")
	p.ArmFault(faults.SiteInvokeHang, 1)
	before := p.Now()
	_, err := p.InvokeRecover(context.Background(), "c-hello", CatalyzerSfork)
	if !errors.Is(err, ErrInvocationHung) {
		t.Fatalf("err = %v, want ErrInvocationHung", err)
	}
	f, _ := p.Lookup("c-hello")
	budget := f.Spec.ExecComputeCost() * simtime.Duration(DefaultConfig().Supervise.WatchdogMultiple)
	if elapsed := p.Now() - before; elapsed < budget {
		t.Fatalf("kill charged %v, want at least the %v watchdog budget", elapsed, budget)
	}
	if got := p.LiveInstances(); got != 1 { // template only
		t.Fatalf("hung instance not reaped: %d live, want 1", got)
	}
	if st := p.FailureStats(); st.WatchdogKills != 1 {
		t.Fatalf("WatchdogKills = %d, want 1", st.WatchdogKills)
	}
}

// TestSuperviseCloseDrains: Close runs the self-healing work queued
// before it; after Close no probe fires and no new task runs — the
// shutdown drain contract the daemon relies on.
func TestSuperviseCloseDrains(t *testing.T) {
	p := supervised(t, "c-hello")
	if _, err := p.Invoke("c-hello", CatalyzerSfork); err != nil {
		t.Fatal(err)
	}
	f, _ := p.Lookup("c-hello")
	p.mu.Lock()
	f.Tmpl.Retire()
	f.Tmpl = nil
	p.mu.Unlock()
	p.startTemplateRegen(f)
	if st := p.FailureStats(); st.TemplateRegens != 0 {
		t.Fatalf("regen ran before any Poll or Close: %+v", st)
	}
	p.Close()
	if st := p.FailureStats(); st.TemplateRegens != 1 {
		t.Fatalf("regen queued before Close did not run: %+v", st)
	}

	snapshot := p.SuperviseStats().ProbesRun
	p.M.Env.Charge(simtime.Second)
	p.PollSupervise()
	if got := p.SuperviseStats().ProbesRun; got != snapshot {
		t.Fatalf("probe fired after Close: %d -> %d", snapshot, got)
	}

	// Self-healing scheduled after Close is dropped: neither a Poll nor
	// a second Close runs it.
	p.startTemplateRegen(f)
	p.PollSupervise()
	p.Close()
	if st := p.FailureStats(); st.TemplateRegens != 1 {
		t.Fatalf("regen queued after Close ran: %+v", st)
	}
}
