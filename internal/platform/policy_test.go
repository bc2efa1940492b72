package platform

import (
	"testing"

	"catalyzer/internal/costmodel"
	"catalyzer/internal/guest"
	"catalyzer/internal/simtime"
)

func TestReplayableBaseline(t *testing.T) {
	p := New(costmodel.Default())
	if _, err := p.PrepareImage("java-hello"); err != nil {
		t.Fatal(err)
	}
	r, err := p.Invoke("java-hello", Replayable)
	if err != nil {
		t.Fatal(err)
	}
	// §7: Replayable achieves ~54ms JVM boots via on-demand paging...
	if r.BootLatency < 35*simtime.Millisecond || r.BootLatency > 110*simtime.Millisecond {
		t.Fatalf("replayable java boot = %v, want ~50-80ms", r.BootLatency)
	}
	// ...but Catalyzer beats it because system-state recovery dominates.
	cr, err := p.Invoke("java-hello", CatalyzerRestore)
	if err != nil {
		t.Fatal(err)
	}
	if cr.BootLatency >= r.BootLatency {
		t.Fatalf("catalyzer-restore (%v) not faster than replayable (%v)", cr.BootLatency, r.BootLatency)
	}
	// The gap is the critical-path system state: kernel recovery + eager
	// I/O dominate Replayable's boot.
	kernel := phaseOf(t, r, "recover-kernel")
	io := phaseOf(t, r, "reconnect-io")
	if kernel+io < r.BootLatency/2 {
		t.Fatalf("system-state share = %v of %v; expected dominant", kernel+io, r.BootLatency)
	}
}

func TestReplayableRequiresImage(t *testing.T) {
	p := New(costmodel.Default())
	if _, err := p.Register("c-hello"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Invoke("c-hello", Replayable); err == nil {
		t.Fatal("replayable without image succeeded")
	}
}

// A Replayable boot that fails mid-way releases its partial instance:
// a truncated baseline checkpoint makes kernel recovery fail after the
// shell and its heap mapping exist, and neither may outlive the boot.
func TestReplayableFailedBootReleasesShell(t *testing.T) {
	p := New(costmodel.Default())
	f, err := p.PrepareImage("java-hello")
	if err != nil {
		t.Fatal(err)
	}
	// One good boot first, so the function's shared base mapping exists
	// and the failed boot below only shares it.
	r, err := p.Boot("java-hello", Replayable)
	if err != nil {
		t.Fatal(err)
	}
	p.ReleaseSandbox(r.Sandbox)

	img := *f.Image
	img.Kernel = &guest.Checkpoint{Baseline: f.Image.Kernel.Baseline[:len(f.Image.Kernel.Baseline)/2]}
	f.Image = &img
	live, frames := p.LiveInstances(), p.LivePages()
	if _, err := p.Boot("java-hello", Replayable); err == nil {
		t.Fatal("replayable boot from a truncated baseline succeeded")
	}
	if got := p.LiveInstances(); got != live {
		t.Errorf("live instances after failed boot = %d, want %d", got, live)
	}
	if got := p.LivePages(); got != frames {
		t.Errorf("live frames after failed boot = %d, want %d", got, frames)
	}
}

func phaseOf(t *testing.T, r *Result, name string) simtime.Duration {
	t.Helper()
	for _, ph := range r.Phases {
		if ph.Name == name {
			return ph.Duration
		}
	}
	t.Fatalf("phase %s missing", name)
	return 0
}

func TestRouterPromotesHotFunctions(t *testing.T) {
	p := New(costmodel.Default())
	r := NewRouter(p, RouterConfig{Window: simtime.Second * 3600, HotThreshold: 5, WarmThreshold: 2})

	var systems []System
	for i := 0; i < 8; i++ {
		res, err := r.Invoke("deathstar-text")
		if err != nil {
			t.Fatal(err)
		}
		systems = append(systems, res.System)
	}
	// First invocations: cold; then warm; then fork once hot.
	if systems[0] != CatalyzerRestore {
		t.Fatalf("first invocation used %s, want cold", systems[0])
	}
	if systems[3] != CatalyzerZygote {
		t.Fatalf("invocation 4 used %s, want warm", systems[3])
	}
	if systems[7] != CatalyzerSfork {
		t.Fatalf("invocation 8 used %s, want fork", systems[7])
	}
	if r.Frequency("deathstar-text") != 8 {
		t.Fatalf("frequency = %d", r.Frequency("deathstar-text"))
	}
}

func TestRouterWindowExpiry(t *testing.T) {
	p := New(costmodel.Default())
	r := NewRouter(p, RouterConfig{Window: simtime.Millisecond, HotThreshold: 3, WarmThreshold: 2})
	for i := 0; i < 5; i++ {
		if _, err := r.Invoke("c-hello"); err != nil {
			t.Fatal(err)
		}
	}
	// Each boot advances virtual time well past 1ms, so the window only
	// ever holds the most recent invocation: the router must stay cold.
	sys, err := r.Route("c-hello")
	if err != nil {
		t.Fatal(err)
	}
	if sys == CatalyzerSfork {
		t.Fatal("expired window still promoted to fork boot")
	}
}

func TestRouterPriorities(t *testing.T) {
	p := New(costmodel.Default())
	r := NewRouter(p, DefaultRouterConfig())
	if err := r.SetPriority("deathstar-media", PriorityHigh); err != nil {
		t.Fatal(err)
	}
	res, err := r.Invoke("deathstar-media")
	if err != nil {
		t.Fatal(err)
	}
	if res.System != CatalyzerSfork {
		t.Fatalf("high priority used %s", res.System)
	}

	if err := r.SetPriority("deathstar-text", PriorityLow); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		res, err := r.Invoke("deathstar-text")
		if err != nil {
			t.Fatal(err)
		}
		if res.System == CatalyzerSfork {
			t.Fatal("low priority function fork-booted")
		}
	}
	if err := r.SetPriority("no-such-fn", PriorityHigh); err == nil {
		t.Fatal("priority on unknown function accepted")
	}
}

func TestRouterZeroConfigUsesDefaults(t *testing.T) {
	p := New(costmodel.Default())
	r := NewRouter(p, RouterConfig{})
	if _, err := r.Invoke("c-hello"); err != nil {
		t.Fatal(err)
	}
}
