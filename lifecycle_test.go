package catalyzer

import (
	"context"
	"errors"
	"math"
	"testing"

	"catalyzer/internal/simtime"
	"catalyzer/internal/workload"
)

// TestFullLifecycle drives the public API end to end: deploy a custom
// function, serve requests through every Catalyzer path, train a
// pre-initialized variant, absorb a burst, and check the collected
// metrics — the workflow a downstream adopter would run.
func TestFullLifecycle(t *testing.T) {
	const doc = `{
	  "name": "lifecycle-fn", "language": "python",
	  "configKB": 4, "taskImagePages": 2000, "rootMounts": 2,
	  "initComputeMS": 50, "initSyscalls": 4000, "initMmaps": 600,
	  "initFiles": 150, "initFilePages": 2500, "initHeapPages": 8000,
	  "kernelObjects": 11000, "kernelThreads": 28, "kernelTimers": 10,
	  "conns": {"total": 18, "hot": 12, "sockets": 3},
	  "execComputeUS": 20000, "execSyscalls": 900, "execPages": 1200,
	  "execConns": 4
	}`
	c := newHost(t)
	name, err := c.DeployCustom(context.Background(), []byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	defer workload.Unregister(name)

	// Serve through every path; boot ordering must hold.
	var fork, warm, cold Duration
	for _, kind := range []BootKind{ForkBoot, WarmBoot, ColdBoot} {
		inv, err := c.Invoke(context.Background(), name, kind)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		switch kind {
		case ForkBoot:
			fork = inv.BootLatency
		case WarmBoot:
			warm = inv.BootLatency
		case ColdBoot:
			cold = inv.BootLatency
		}
	}
	if !(fork < warm && warm < cold) {
		t.Fatalf("ordering: fork=%v warm=%v cold=%v", fork, warm, cold)
	}

	// Train a pre-initialized variant and verify it cuts execution.
	variant, err := c.Train(context.Background(), name, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	defer workload.Unregister(variant)
	base, err := c.Invoke(context.Background(), name, ForkBoot)
	if err != nil {
		t.Fatal(err)
	}
	trained, err := c.Invoke(context.Background(), variant, ForkBoot)
	if err != nil {
		t.Fatal(err)
	}
	if trained.ExecLatency >= base.ExecLatency {
		t.Fatalf("training did not cut execution: %v vs %v", trained.ExecLatency, base.ExecLatency)
	}

	// Burst: 32 simultaneous requests drain fast under fork boot.
	rep, err := c.Burst(context.Background(), name, ForkBoot, 32, 8)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 32 || rep.Cores != 8 {
		t.Fatalf("burst shape: %+v", rep)
	}
	if rep.Makespan > 150*simtime.Millisecond {
		t.Fatalf("burst makespan = %v", rep.Makespan)
	}
	if _, err := c.Burst(context.Background(), name, BootKind("bogus"), 1, 1); err == nil {
		t.Fatal("bogus kind accepted by Burst")
	}

	// Metrics recorded every fork boot (2 invokes + 32 burst requests).
	if got := c.Stats()[ForkBoot].Count; got < 34 {
		t.Fatalf("fork stats count = %d", got)
	}
	// Everything released: only templates and pool state remain.
	if c.Running() > 4 {
		t.Fatalf("running = %d after lifecycle", c.Running())
	}
}

func TestSandboxFootprintMatchesSpec(t *testing.T) {
	c := newHost(t)
	if err := c.Deploy(context.Background(), "c-nginx"); err != nil {
		t.Fatal(err)
	}
	inst, err := c.Start(context.Background(), "c-nginx", BaselineGVisor)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Release()
	spec := workload.MustGet("c-nginx")
	want := uint64(spec.TaskImagePages+spec.InitHeapPages) * 4096
	if got := inst.RSS(); got != want {
		t.Fatalf("RSS = %d, want %d (task image + heap)", got, want)
	}
}

// TestTrainCutsExecution: the trained variant moves per-request
// preparation work into its func-image (§6.7 / Figure 16-a), cutting
// execution ~3x while boot stays in the fork-boot class. Re-training
// reuses the registered variant.
func TestTrainCutsExecution(t *testing.T) {
	c := newHost(t)
	ctx := context.Background()
	if err := c.Deploy(ctx, "java-specjbb"); err != nil {
		t.Fatal(err)
	}
	variant, err := c.Train(ctx, "java-specjbb", 0.66)
	if err != nil {
		t.Fatal(err)
	}
	defer workload.Unregister(variant)
	if variant != "java-specjbb@pretrained" {
		t.Fatalf("variant name = %s", variant)
	}

	base, err := c.Invoke(ctx, "java-specjbb", ForkBoot)
	if err != nil {
		t.Fatal(err)
	}
	trained, err := c.Invoke(ctx, variant, ForkBoot)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(base.ExecLatency) / float64(trained.ExecLatency)
	if ratio < 2 || ratio > 4.5 {
		t.Fatalf("trained exec reduction = %.1fx (base %v vs %v)", ratio, base.ExecLatency, trained.ExecLatency)
	}
	if trained.BootLatency > 2*base.BootLatency+base.BootLatency/2 {
		t.Fatalf("trained boot = %v vs base %v", trained.BootLatency, base.BootLatency)
	}

	p := c.members()[0]
	before, err := p.Lookup(variant)
	if err != nil {
		t.Fatal(err)
	}
	again, err := c.Train(ctx, "java-specjbb", 0.66)
	if err != nil {
		t.Fatal(err)
	}
	if after, _ := p.Lookup(variant); again != variant || after != before {
		t.Fatalf("re-training gave %s and a new registration; want %s reused", again, variant)
	}
}

func TestTrainValidation(t *testing.T) {
	c := newHost(t)
	ctx := context.Background()
	if _, err := c.Train(ctx, "unknown-fn", 0.5); !errors.Is(err, ErrNotRegistered) {
		t.Fatalf("unknown function: %v, want ErrNotRegistered", err)
	}
	if _, err := c.Train(ctx, "c-hello", 0); err == nil {
		t.Fatal("zero fraction accepted")
	}
	if _, err := c.Train(ctx, "c-hello", 1.5); err == nil {
		t.Fatal("fraction > 1 accepted")
	}
	if _, err := c.Train(ctx, "c-hello", math.NaN()); err == nil {
		t.Fatal("NaN fraction accepted")
	}
}
