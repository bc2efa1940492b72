package catalyzer

import (
	"context"
	"testing"

	"catalyzer/internal/simtime"
)

func TestDeployAndInvokeAllKinds(t *testing.T) {
	c := newHost(t)
	if err := c.Deploy(context.Background(), "c-hello"); err != nil {
		t.Fatal(err)
	}
	if err := c.Deploy(context.Background(), "c-hello"); err != nil { // idempotent
		t.Fatal(err)
	}
	for _, kind := range Kinds() {
		inv, err := c.Invoke(context.Background(), "c-hello", kind)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if inv.BootLatency <= 0 || inv.ExecLatency <= 0 || inv.Total() != inv.BootLatency+inv.ExecLatency {
			t.Fatalf("%s: degenerate invocation %+v", kind, inv)
		}
		if len(inv.Phases) == 0 {
			t.Fatalf("%s: no phases", kind)
		}
	}
}

func TestForkBootSubMillisecond(t *testing.T) {
	c := newHost(t)
	if err := c.Deploy(context.Background(), "c-hello"); err != nil {
		t.Fatal(err)
	}
	inv, err := c.Invoke(context.Background(), "c-hello", ForkBoot)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's headline: <1ms startup in the best case (§1).
	if inv.BootLatency >= simtime.Millisecond {
		t.Fatalf("fork boot = %v, want <1ms", inv.BootLatency)
	}
}

func TestInvokeErrors(t *testing.T) {
	c := newHost(t)
	if _, err := c.Invoke(context.Background(), "c-hello", ForkBoot); err == nil {
		t.Fatal("invoke before deploy succeeded")
	}
	if err := c.Deploy(context.Background(), "no-such-function"); err == nil {
		t.Fatal("deploy of unknown function succeeded")
	}
	if err := c.Deploy(context.Background(), "c-hello"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Invoke(context.Background(), "c-hello", BootKind("bogus")); err == nil {
		t.Fatal("bogus boot kind accepted")
	}
	if _, err := c.Start(context.Background(), "c-hello", BootKind("bogus")); err == nil {
		t.Fatal("bogus boot kind accepted by Start")
	}
}

func TestStartKeepsInstancesRunning(t *testing.T) {
	c := newHost(t)
	if err := c.Deploy(context.Background(), "deathstar-text"); err != nil {
		t.Fatal(err)
	}
	base := c.Running()
	var instances []*Instance
	for i := 0; i < 3; i++ {
		inst, err := c.Start(context.Background(), "deathstar-text", ForkBoot)
		if err != nil {
			t.Fatal(err)
		}
		instances = append(instances, inst)
	}
	if got := c.Running(); got != base+3 {
		t.Fatalf("Running = %d, want %d", got, base+3)
	}
	// Re-execution on a warm instance is cheap: no boot at all.
	d, err := instances[0].Execute()
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 || d > 5*simtime.Millisecond {
		t.Fatalf("warm execute = %v", d)
	}
	if instances[0].RSS() == 0 || instances[0].PSS() <= 0 {
		t.Fatal("degenerate memory stats")
	}
	// Forked siblings share pages: PSS < RSS.
	if instances[0].PSS() >= float64(instances[0].RSS()) {
		t.Fatal("no page sharing between forked instances")
	}
	for _, inst := range instances {
		inst.Release()
	}
	if got := c.Running(); got != base {
		t.Fatalf("Running after release = %d, want %d", got, base)
	}
}

func TestConcurrentInvocations(t *testing.T) {
	c := newHost(t)
	if err := c.Deploy(context.Background(), "c-hello"); err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			for i := 0; i < 5; i++ {
				if _, err := c.Invoke(context.Background(), "c-hello", ForkBoot); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for g := 0; g < goroutines; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Stats()[ForkBoot].Count; got != goroutines*5 {
		t.Fatalf("stats count = %d, want %d", got, goroutines*5)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Duration {
		c := newHost(t)
		if err := c.Deploy(context.Background(), "python-django"); err != nil {
			t.Fatal(err)
		}
		inv, err := c.Invoke(context.Background(), "python-django", WarmBoot)
		if err != nil {
			t.Fatal(err)
		}
		return inv.Total()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic: %v vs %v", a, b)
	}
}

func TestServerMachineOption(t *testing.T) {
	c := newHost(t, WithServerMachine())
	if err := c.Deploy(context.Background(), "java-specjbb"); err != nil {
		t.Fatal(err)
	}
	inv, err := c.Invoke(context.Background(), "java-specjbb", WarmBoot)
	if err != nil {
		t.Fatal(err)
	}
	// 96-way parallel fixup: warm boot stays in the paper's <20ms zone.
	if inv.BootLatency > 20*simtime.Millisecond {
		t.Fatalf("server warm boot = %v", inv.BootLatency)
	}
}

func TestFunctionsListsRegistry(t *testing.T) {
	fns := Functions()
	if len(fns) < 25 {
		t.Fatalf("Functions lists %d workloads", len(fns))
	}
	seen := map[string]bool{}
	for _, f := range fns {
		seen[f] = true
	}
	for _, want := range []string{"c-hello", "java-specjbb", "pillow-filters", "ecom-purchase"} {
		if !seen[want] {
			t.Fatalf("missing %s", want)
		}
	}
}

func TestSortByBootLatency(t *testing.T) {
	invs := []*Invocation{
		{BootLatency: 3 * simtime.Millisecond},
		{BootLatency: simtime.Millisecond},
		{BootLatency: 2 * simtime.Millisecond},
	}
	SortByBootLatency(invs)
	if invs[0].BootLatency != simtime.Millisecond || invs[2].BootLatency != 3*simtime.Millisecond {
		t.Fatal("not sorted")
	}
}
