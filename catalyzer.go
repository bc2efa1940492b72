// Package catalyzer is the public API of the Catalyzer reproduction: a
// serverless sandbox system that boots function instances from
// initialized state instead of initializing them on the critical path
// (init-less booting, ASPLOS '20).
//
// A Fleet owns N simulated host machines; a single host is a
// one-machine fleet. Deploy registers a function (by the name of a
// workload in the built-in registry) and prepares its offline artifacts
// on the function's ring-primary machine — the func-image with its
// partially-deserialized metadata and I/O cache, the shared base memory
// mapping, and the template sandbox for fork boot — then replicates the
// func-image to R−1 more machines. Invoke serves a request through any
// boot strategy:
//
//	f, err := catalyzer.NewFleet(catalyzer.FleetConfig{Machines: 1})
//	if err != nil { ... }
//	defer f.Close()
//	if err := f.Deploy(ctx, "java-specjbb"); err != nil { ... }
//	inv, err := f.Invoke(ctx, "java-specjbb", catalyzer.ForkBoot)
//	fmt.Println(inv.BootLatency, inv.ExecLatency)
//
// Every serving method takes a context. The context bounds the whole
// request — admission queueing, the failure-recovery boot chain (which
// aborts between fallback stages), and execution — and expiry surfaces
// as the typed ErrDeadlineExceeded / ErrCanceled.
//
// Fleets are safe for concurrent use, and independent functions make
// progress concurrently: each machine's virtual clock serializes only
// the simulated machine work itself, under that machine's own locks.
// Overload protection is configurable with WithAdmission (concurrency
// caps + bounded queue shedding with ErrOverloaded) and
// WithMemoryBudget (boots under memory pressure evict idle keep-warm
// instances and retire idle templates LRU-first instead of failing).
//
// Behind the front door sit a health-checked membership view and
// consistent-hash placement with bounded loads: whole-machine crashes
// and partitions are first-class injected faults, failed dispatches
// replay on survivors, and a machine missing a func-image remote-forks
// it from a replica peer. See NewFleet.
//
// Latencies are deterministic virtual time derived from the work each
// boot performs; see DESIGN.md for the calibration methodology.
package catalyzer

import (
	"context"
	"sort"

	"catalyzer/internal/admission"
	"catalyzer/internal/costmodel"
	"catalyzer/internal/platform"
	"catalyzer/internal/sandbox"
	"catalyzer/internal/simtime"
	"catalyzer/internal/workload"
)

// Duration is virtual time; it aliases time.Duration for formatting.
type Duration = simtime.Duration

// BootKind selects how an instance is started.
type BootKind string

const (
	// ColdBoot restores a new sandbox from the func-image with
	// on-demand restore (Catalyzer-restore).
	ColdBoot BootKind = "cold"
	// WarmBoot specializes a cached virtualization Zygote and shares
	// the running instances' base memory mapping (Catalyzer-Zygote).
	WarmBoot BootKind = "warm"
	// ForkBoot sforks the function's template sandbox (Catalyzer-sfork).
	ForkBoot BootKind = "fork"

	// Baselines, for comparison studies.
	BaselineGVisor        BootKind = "gvisor"
	BaselineGVisorRestore BootKind = "gvisor-restore"
	BaselineDocker        BootKind = "docker"
	BaselineFireCracker   BootKind = "firecracker"
	BaselineHyper         BootKind = "hyper"
	BaselineNative        BootKind = "native"
)

// systemToKind is the reverse of kindToSystem, for reporting which
// strategy actually served a recovered invocation.
var systemToKind = func() map[platform.System]BootKind {
	out := make(map[platform.System]BootKind)
	for k, s := range kindToSystem {
		out[s] = k
	}
	return out
}()

var kindToSystem = map[BootKind]platform.System{
	ColdBoot:              platform.CatalyzerRestore,
	WarmBoot:              platform.CatalyzerZygote,
	ForkBoot:              platform.CatalyzerSfork,
	BaselineGVisor:        platform.GVisor,
	BaselineGVisorRestore: platform.GVisorRestore,
	BaselineDocker:        platform.Docker,
	BaselineFireCracker:   platform.FireCracker,
	BaselineHyper:         platform.HyperContainer,
	BaselineNative:        platform.Native,
}

// AdmissionConfig bounds how much work a fleet admits at once: the
// global and per-function in-flight caps and the FIFO queue depth. Zero
// values mean unlimited concurrency and no queue (immediate shedding at
// capacity).
type AdmissionConfig = admission.Config

// Option configures a Fleet: admission at its front door, and per
// machine the cost model, Zygote pool, memory budget, supervision
// tuning and fault seed.
type Option func(*config)

type config struct {
	cost       *costmodel.Model
	faultSeed  *int64
	adm        admission.Config
	memPages   int
	zygotePool *int
	supervise  *SuperviseConfig
}

// platformConfig assembles the platform tuning from the options.
// Options sanitize their inputs, so the result always validates.
func platformConfig(cfg config) platform.Config {
	pcfg := platform.DefaultConfig()
	if cfg.zygotePool != nil {
		pcfg.ZygotePoolSize = *cfg.zygotePool
	}
	if cfg.supervise != nil {
		pcfg.Supervise = *cfg.supervise
	}
	return pcfg
}

// WithServerMachine runs every machine on the paper's 96-core server
// model instead of the 8-core workstation.
func WithServerMachine() Option {
	return func(c *config) { c.cost = costmodel.Server() }
}

// WithCostModel supplies a custom cost model.
func WithCostModel(m *costmodel.Model) Option {
	return func(c *config) { c.cost = m }
}

// WithAdmission bounds the fleet's admission: concurrency caps with a
// bounded deadline-aware FIFO queue. Requests over capacity queue; a
// full queue (or an expired wait) sheds them with the typed
// ErrOverloaded / ErrDeadlineExceeded.
func WithAdmission(cfg AdmissionConfig) Option {
	return func(c *config) { c.adm = cfg }
}

// WithMemoryBudget bounds each machine's physical memory in pages (0 =
// unlimited). Boots that would exceed the budget reclaim idle memory —
// keep-warm instances first, then idle templates LRU-first — before
// failing with an out-of-memory error.
func WithMemoryBudget(pages int) Option {
	return func(c *config) { c.memPages = pages }
}

// WithZygotePool sets the Zygote pool's target size: the pool is built
// to n at machine creation and refilled back to n after warm boots and
// after the supervisor prunes wedged Zygotes. Zero disables the pool
// (warm boots degrade to cold); negative values are treated as zero.
func WithZygotePool(n int) Option {
	return func(c *config) {
		if n < 0 {
			n = 0
		}
		v := n
		c.zygotePool = &v
	}
}

// WithSupervision tunes each machine's runtime supervision layer (probe
// cadence, watchdog multiple, poisoning verdict threshold, crash-loop
// parking). Zero fields keep their defaults; negative fields are
// sanitized to zero (i.e. the default).
func WithSupervision(cfg SuperviseConfig) Option {
	return func(c *config) {
		if cfg.ProbeInterval < 0 {
			cfg.ProbeInterval = 0
		}
		if cfg.WatchdogMultiple < 0 {
			cfg.WatchdogMultiple = 0
		}
		if cfg.PoisonThreshold < 0 {
			cfg.PoisonThreshold = 0
		}
		if cfg.CrashLoopWindow < 0 {
			cfg.CrashLoopWindow = 0
		}
		if cfg.CrashLoopThreshold < 0 {
			cfg.CrashLoopThreshold = 0
		}
		if cfg.ParkBase < 0 {
			cfg.ParkBase = 0
		}
		if cfg.ParkMax < 0 {
			cfg.ParkMax = 0
		}
		v := cfg
		c.supervise = &v
	}
}

// Functions lists the deployable workload names.
func Functions() []string { return workload.Names() }

// deployCustom parses a JSON workload document, registers the spec and
// deploys it with deploy, unregistering it again if the deploy fails.
func deployCustom(ctx context.Context, doc []byte, deploy func(context.Context, string) error) (string, error) {
	spec, err := workload.ParseSpec(doc)
	if err != nil {
		return "", err
	}
	if err := workload.RegisterCustom(spec); err != nil {
		return "", err
	}
	if err := deploy(ctx, spec.Name); err != nil {
		workload.Unregister(spec.Name)
		return "", err
	}
	return spec.Name, nil
}

// Invocation reports one served request.
type Invocation struct {
	Function    string
	Kind        BootKind
	BootLatency Duration
	ExecLatency Duration
	// Arrival is the virtual time at which the request entered service;
	// Completion is Arrival + Total. Overlapping requests overlap in
	// virtual time: two independent functions invoked concurrently share
	// an arrival and complete at max (not sum) of their latencies.
	Arrival    Duration
	Completion Duration
	// ServedBy is the boot strategy that actually served the request. It
	// equals Kind unless the failure-recovery chain degraded the boot
	// (e.g. a failing sfork served by a Zygote, or a Zygote-pool miss
	// served by Catalyzer-restore).
	ServedBy BootKind
	// Machine is the index of the fleet machine that served the request
	// (0 on a one-machine fleet).
	Machine int
	// Phases is the boot's per-step breakdown (Figure 2 style).
	Phases []Phase
}

// Degraded reports whether the request was served by a fallback strategy
// rather than the requested one.
func (i *Invocation) Degraded() bool { return i.ServedBy != i.Kind }

// Phase is one named boot step.
type Phase = simtime.Phase

// Total is the end-to-end latency.
func (i *Invocation) Total() Duration { return i.BootLatency + i.ExecLatency }

func invocationOf(r *platform.Result, kind BootKind, arrival Duration) *Invocation {
	served, ok := systemToKind[r.System]
	if !ok {
		served = BootKind(r.System)
	}
	inv := &Invocation{
		Function:    r.Function,
		Kind:        kind,
		BootLatency: r.BootLatency,
		ExecLatency: r.ExecLatency,
		Arrival:     arrival,
		ServedBy:    served,
		Phases:      r.Phases,
	}
	inv.Completion = arrival + inv.Total()
	return inv
}

// Instance is a running function instance kept alive after its first
// request (auto-scaling and memory studies). It lives on the machine
// that booted it.
type Instance struct {
	p   *platform.Platform
	inv *Invocation
	s   *sandbox.Sandbox
}

// Invocation returns the boot/first-request report.
func (i *Instance) Invocation() *Invocation { return i.inv }

// Execute serves another request on the running instance.
func (i *Instance) Execute() (Duration, error) { return i.p.ExecuteSandbox(i.s) }

// RSS returns the instance's resident set size in bytes.
func (i *Instance) RSS() uint64 {
	rss, _ := i.p.SandboxMem(i.s)
	return rss
}

// PSS returns the instance's proportional set size in bytes.
func (i *Instance) PSS() float64 {
	_, pss := i.p.SandboxMem(i.s)
	return pss
}

// Release tears the instance down. Release is idempotent.
func (i *Instance) Release() { i.p.ReleaseSandbox(i.s) }

// Start boots an instance, serves one request, and keeps it running on
// the machine placement picks for name. Like Invoke, the request passes
// admission and boots through that machine's failure-recovery chain,
// bounded by ctx; unlike Invoke it draws no machine faults and does not
// fail over. The admission slot is released when Start returns (the
// in-flight unit is the request, not the instance's lifetime); the
// instance's memory is governed by WithMemoryBudget.
func (f *Fleet) Start(ctx context.Context, name string, kind BootKind) (*Instance, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	sys, release, err := f.admit(ctx, name, kind)
	if err != nil {
		return nil, err
	}
	defer release()
	idx, p, err := f.machineFor(name, sys)
	if err != nil {
		return nil, err
	}
	arrival := p.Now()
	r, err := p.InvokeKeepRecover(ctx, name, sys)
	if err != nil {
		return nil, err
	}
	inv := invocationOf(r, kind, arrival)
	inv.Machine = idx
	f.stats.observe(inv.ServedBy, r.BootLatency)
	return &Instance{p: p, inv: inv, s: r.Sandbox}, nil
}

// BurstReport summarizes how a burst of simultaneous requests drains.
type BurstReport struct {
	Makespan Duration // time until the last response
	P50      Duration
	P99      Duration
	Requests int
	Cores    int
}

// Burst serves n simultaneous requests for a deployed function with the
// given boot strategy on a machine with the given core count, reporting
// how the burst drains (§6.6's auto-scaling scenario). The burst runs on
// the machine placement picks for name and passes admission as one
// unit; instances are released afterwards. ctx bounds the whole burst
// and aborts the remainder on expiry.
func (f *Fleet) Burst(ctx context.Context, name string, kind BootKind, n, cores int) (*BurstReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	sys, release, err := f.admit(ctx, name, kind)
	if err != nil {
		return nil, err
	}
	defer release()
	_, p, err := f.machineFor(name, sys)
	if err != nil {
		return nil, err
	}
	r, err := p.SimulateBurst(ctx, name, sys, n, cores)
	if err != nil {
		return nil, err
	}
	for _, q := range r.Requests {
		f.stats.observe(kind, q.Boot)
	}
	return &BurstReport{
		Makespan: r.Makespan(),
		P50:      r.CompletionPercentile(50),
		P99:      r.CompletionPercentile(99),
		Requests: len(r.Requests),
		Cores:    cores,
	}, nil
}

// OverloadStats is a snapshot of the fleet's admission accounting.
type OverloadStats = admission.Stats

// Kinds returns every boot kind, Catalyzer paths first.
func Kinds() []BootKind {
	out := []BootKind{ForkBoot, WarmBoot, ColdBoot,
		BaselineGVisorRestore, BaselineGVisor, BaselineDocker,
		BaselineFireCracker, BaselineHyper, BaselineNative}
	return out
}

// SortByBootLatency orders invocations fastest-boot first (reporting
// helper for examples).
func SortByBootLatency(invs []*Invocation) {
	sort.Slice(invs, func(i, j int) bool { return invs[i].BootLatency < invs[j].BootLatency })
}
