// Package catalyzer is the public API of the Catalyzer reproduction: a
// serverless sandbox system that boots function instances from
// initialized state instead of initializing them on the critical path
// (init-less booting, ASPLOS '20).
//
// A Client owns one simulated host machine. Deploy registers a function
// (by the name of a workload in the built-in registry) and prepares its
// offline artifacts — the func-image with its partially-deserialized
// metadata and I/O cache, the shared base memory mapping, and the
// template sandbox for fork boot. Invoke then serves a request through
// any boot strategy:
//
//	c := catalyzer.NewClient()
//	if err := c.Deploy(ctx, "java-specjbb"); err != nil { ... }
//	inv, err := c.Invoke(ctx, "java-specjbb", catalyzer.ForkBoot)
//	fmt.Println(inv.BootLatency, inv.ExecLatency)
//
// Every serving method takes a context. The context bounds the whole
// request — admission queueing, the failure-recovery boot chain (which
// aborts between fallback stages), and execution — and expiry surfaces
// as the typed ErrDeadlineExceeded / ErrCanceled.
//
// Clients are safe for concurrent use, and independent functions make
// progress concurrently: registration, recovery accounting, and
// per-function artifacts are guarded by fine-grained locks, while the
// machine's virtual clock serializes only the simulated machine work
// itself. Overload protection is configurable with WithAdmission
// (concurrency caps + bounded queue shedding with ErrOverloaded) and
// WithMemoryBudget (boots under memory pressure evict idle keep-warm
// instances and retire idle templates LRU-first instead of failing).
//
// A Fleet scales the same Deploy/Invoke surface across N simulated
// machines behind a health-checked membership view and consistent-hash
// placement with bounded loads: functions replicate to R machines,
// whole-machine crashes and partitions are first-class injected faults,
// failed dispatches replay on survivors, and a machine missing a
// func-image remote-forks it from a replica peer. See NewFleet.
//
// Latencies are deterministic virtual time derived from the work each
// boot performs; see DESIGN.md for the calibration methodology.
package catalyzer

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"catalyzer/internal/admission"
	"catalyzer/internal/costmodel"
	"catalyzer/internal/faults"
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

// AdmissionConfig bounds how much work a client admits at once. Zero
// values mean unlimited concurrency and no queue (immediate shedding at
// capacity).
type AdmissionConfig struct {
	// MaxConcurrent caps in-flight invocations across all functions.
	MaxConcurrent int
	// MaxPerFunction caps in-flight invocations of any single function.
	MaxPerFunction int
	// QueueDepth bounds the FIFO wait queue; arrivals beyond it are shed
	// immediately with ErrOverloaded.
	QueueDepth int
}

// Option configures a Client.
type Option func(*config)

type config struct {
	cost       *costmodel.Model
	faultSeed  *int64
	adm        admission.Config
	memPages   int
	zygotePool *int
	supervise  *SuperviseConfig
}

// platformConfig assembles the platform tuning from the client options.
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

// WithServerMachine runs the client on the paper's 96-core server
// machine model instead of the 8-core workstation.
func WithServerMachine() Option {
	return func(c *config) { c.cost = costmodel.Server() }
}

// WithCostModel supplies a custom cost model.
func WithCostModel(m *costmodel.Model) Option {
	return func(c *config) { c.cost = m }
}

// WithAdmission bounds the client's admission: concurrency caps with a
// bounded deadline-aware FIFO queue. Requests over capacity queue; a
// full queue (or an expired wait) sheds them with the typed
// ErrOverloaded / ErrDeadlineExceeded.
func WithAdmission(cfg AdmissionConfig) Option {
	return func(c *config) {
		c.adm = admission.Config{
			MaxConcurrent:  cfg.MaxConcurrent,
			MaxPerFunction: cfg.MaxPerFunction,
			QueueDepth:     cfg.QueueDepth,
		}
	}
}

// WithMemoryBudget bounds the machine's physical memory in pages (0 =
// unlimited). Boots that would exceed the budget reclaim idle memory —
// keep-warm instances first, then idle templates LRU-first — before
// failing with an out-of-memory error.
func WithMemoryBudget(pages int) Option {
	return func(c *config) { c.memPages = pages }
}

// WithZygotePool sets the Zygote pool's target size: the pool is built
// to n at client creation and refilled back to n after warm boots and
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

// WithSupervision tunes the client's runtime supervision layer (probe
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

// Client is a handle to one simulated serverless host. It is safe for
// concurrent use; independent functions make progress concurrently (the
// machine's single virtual clock serializes only the simulated machine
// work itself, under the platform's internal locks).
type Client struct {
	p     *platform.Platform
	stats *statsCollector
	adm   *admission.Controller

	// fnMu guards fnLocks; each function gets its own RWMutex so deploys
	// and refreshes (artifact swaps, write-locked) exclude invocations
	// (read-locked) of the same function without serializing the rest.
	fnMu    sync.Mutex
	fnLocks map[string]*sync.RWMutex

	// recMu guards lastRecovery, the cached report of the most recent
	// Recover pass.
	recMu        sync.Mutex
	lastRecovery *RecoveryReport

	// arrived, when set, runs after an invocation reads its arrival time
	// and before any machine work; tests use it to line concurrent
	// requests up independently of goroutine scheduling.
	arrived func()
}

func newClient(cfg config) *Client {
	c := &Client{
		stats:   newStatsCollector(),
		adm:     admission.New(cfg.adm),
		fnLocks: make(map[string]*sync.RWMutex),
	}
	return c
}

// NewClient creates a client on a fresh machine.
func NewClient(opts ...Option) *Client {
	cfg := config{cost: costmodel.Default()}
	for _, o := range opts {
		o(&cfg)
	}
	c := newClient(cfg)
	p, err := platform.NewWithConfig(cfg.cost, platformConfig(cfg))
	if err != nil {
		// Options sanitize their inputs; an invalid platform config here
		// is a programming error, not a user error.
		panic(err)
	}
	c.p = p
	if cfg.faultSeed != nil {
		c.p.InstallFaults(faults.New(*cfg.faultSeed))
	}
	if cfg.memPages > 0 {
		c.p.SetMemoryBudget(cfg.memPages)
	}
	return c
}

// fnLock returns (lazily creating) the per-function lock for name.
func (c *Client) fnLock(name string) *sync.RWMutex {
	c.fnMu.Lock()
	defer c.fnMu.Unlock()
	l, ok := c.fnLocks[name]
	if !ok {
		l = &sync.RWMutex{}
		c.fnLocks[name] = l
	}
	return l
}

// Functions lists the deployable workload names.
func Functions() []string { return workload.Names() }

// Deploy registers a function and prepares all of its offline artifacts
// (func-image, I/O cache, template sandbox). Deploy is idempotent and
// honours ctx: an already-expired context fails fast with a typed error.
func (c *Client) Deploy(ctx context.Context, name string) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := admission.CtxErr(ctx); err != nil {
		return err
	}
	l := c.fnLock(name)
	l.Lock()
	defer l.Unlock()
	//lint:allow lockdiscipline no-machine-work-under-lock waived: per-function lock deliberately serializes deploys against invokes on one function; the reclaim path takes no fn locks
	_, err := c.p.PrepareTemplate(name)
	return err
}

// DeployCustom registers a user-defined function from its JSON workload
// document (see internal/workload.SpecDoc for the format) and prepares
// its offline artifacts. The name must not collide with a built-in
// workload.
func (c *Client) DeployCustom(ctx context.Context, doc []byte) (string, error) {
	return deployCustom(ctx, doc, c.Deploy)
}

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

// Train derives and deploys the user-guided pre-initialization variant
// of a deployed function (§6.7): the given fraction (0..1) of per-request
// preparation work is warmed at training time and captured in the
// variant's artifacts. It returns the variant's name
// ("<name>@pretrained"), which Invoke accepts like any function.
func (c *Client) Train(name string, fraction float64) (string, error) {
	l := c.fnLock(name)
	l.Lock()
	defer l.Unlock()
	//lint:allow lockdiscipline no-machine-work-under-lock waived: per-function lock deliberately serializes training against invokes on one function; the reclaim path takes no fn locks
	f, err := c.p.PrepareTrained(name, fraction)
	if err != nil {
		return "", err
	}
	return f.Spec.Name, nil
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
	// (always 0 for a single-machine Client).
	Machine int
	// Phases is the boot's per-step breakdown (Figure 2 style).
	Phases []Phase
}

// Degraded reports whether the request was served by a fallback strategy
// rather than the requested one.
func (i *Invocation) Degraded() bool { return i.ServedBy != i.Kind }

// Phase is one named boot step.
type Phase struct {
	Name     string
	Duration Duration
}

// Total is the end-to-end latency.
func (i *Invocation) Total() Duration { return i.BootLatency + i.ExecLatency }

// Invoke boots an instance with the given strategy, executes one
// request, and tears the instance down. The request first passes
// admission (queueing or shedding under overload per WithAdmission),
// then boots through the failure-recovery chain: a failing Catalyzer
// stage retries with virtual-time backoff and then degrades (sfork →
// Zygote → restore → gVisor cold); check Invocation.ServedBy for the
// strategy that actually served. With nothing failing the chain adds no
// work. ctx bounds the whole request; expiry surfaces as
// ErrDeadlineExceeded (mid-chain aborts happen between fallback stages).
func (c *Client) Invoke(ctx context.Context, name string, kind BootKind) (*Invocation, error) {
	sys, ok := kindToSystem[kind]
	if !ok {
		return nil, fmt.Errorf("%w: boot kind %q", ErrUnknownSystem, kind)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	release, err := c.adm.Acquire(ctx, name)
	if err != nil {
		return nil, err
	}
	defer release()
	l := c.fnLock(name)
	l.RLock()
	defer l.RUnlock()
	arrival := c.p.Now()
	if c.arrived != nil {
		c.arrived()
	}
	//lint:allow lockdiscipline no-machine-work-under-lock waived: read-held fn lock lets invokes run concurrently while deploys exclude them; the reclaim path takes no fn locks
	r, err := c.p.InvokeRecover(ctx, name, sys)
	if err != nil {
		return nil, err
	}
	inv := invocationOf(r, kind, arrival)
	c.stats.observe(inv.ServedBy, r.BootLatency)
	return inv, nil
}

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
	}
	inv.Completion = arrival + inv.Total()
	for _, ph := range r.Phases {
		inv.Phases = append(inv.Phases, Phase{Name: ph.Name, Duration: ph.Duration})
	}
	return inv
}

// Instance is a running function instance kept alive after its first
// request (auto-scaling and memory studies).
type Instance struct {
	c   *Client
	inv *Invocation
	s   *sandbox.Sandbox
}

// Invocation returns the boot/first-request report.
func (i *Instance) Invocation() *Invocation { return i.inv }

// Execute serves another request on the running instance.
func (i *Instance) Execute() (Duration, error) { return i.c.p.ExecuteSandbox(i.s) }

// RSS returns the instance's resident set size in bytes.
func (i *Instance) RSS() uint64 {
	rss, _ := i.c.p.SandboxMem(i.s)
	return rss
}

// PSS returns the instance's proportional set size in bytes.
func (i *Instance) PSS() float64 {
	_, pss := i.c.p.SandboxMem(i.s)
	return pss
}

// Release tears the instance down. Release is idempotent.
func (i *Instance) Release() { i.c.p.ReleaseSandbox(i.s) }

// Start boots an instance, serves one request, and keeps it running.
// Like Invoke, the request passes admission and boots through the
// failure-recovery chain, bounded by ctx. The admission slot is released
// when Start returns (the in-flight unit is the request, not the
// instance's lifetime); the instance's memory is governed by
// WithMemoryBudget.
func (c *Client) Start(ctx context.Context, name string, kind BootKind) (*Instance, error) {
	sys, ok := kindToSystem[kind]
	if !ok {
		return nil, fmt.Errorf("%w: boot kind %q", ErrUnknownSystem, kind)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	release, err := c.adm.Acquire(ctx, name)
	if err != nil {
		return nil, err
	}
	defer release()
	l := c.fnLock(name)
	l.RLock()
	defer l.RUnlock()
	arrival := c.p.Now()
	//lint:allow lockdiscipline no-machine-work-under-lock waived: read-held fn lock lets starts run concurrently while deploys exclude them; the reclaim path takes no fn locks
	r, err := c.p.InvokeKeepRecover(ctx, name, sys)
	if err != nil {
		return nil, err
	}
	inv := invocationOf(r, kind, arrival)
	c.stats.observe(inv.ServedBy, r.BootLatency)
	return &Instance{c: c, inv: inv, s: r.Sandbox}, nil
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
// how the burst drains (§6.6's auto-scaling scenario). Instances are
// released afterwards. The burst passes admission as one unit; ctx
// bounds the whole burst and aborts the remainder on expiry.
func (c *Client) Burst(ctx context.Context, name string, kind BootKind, n, cores int) (*BurstReport, error) {
	sys, ok := kindToSystem[kind]
	if !ok {
		return nil, fmt.Errorf("%w: boot kind %q", ErrUnknownSystem, kind)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	release, err := c.adm.Acquire(ctx, name)
	if err != nil {
		return nil, err
	}
	defer release()
	l := c.fnLock(name)
	l.RLock()
	defer l.RUnlock()
	//lint:allow lockdiscipline no-machine-work-under-lock waived: read-held fn lock lets bursts run concurrently while deploys exclude them; the reclaim path takes no fn locks
	r, err := c.p.SimulateBurst(ctx, name, sys, n, cores)
	if err != nil {
		return nil, err
	}
	for _, q := range r.Requests {
		c.stats.observe(kind, q.Boot)
	}
	return &BurstReport{
		Makespan: r.Makespan(),
		P50:      r.CompletionPercentile(50),
		P99:      r.CompletionPercentile(99),
		Requests: len(r.Requests),
		Cores:    cores,
	}, nil
}

// Running returns the number of live instances on the machine.
func (c *Client) Running() int { return c.p.LiveInstances() }

// Now returns the machine's virtual clock reading.
func (c *Client) Now() Duration { return c.p.Now() }

// OverloadStats is a snapshot of the client's admission accounting.
type OverloadStats = admission.Stats

// OverloadStats returns a snapshot of the client's admission/overload
// accounting.
func (c *Client) OverloadStats() OverloadStats { return c.adm.Snapshot() }

// BeginDrain stops admitting new work: subsequent invocations fail with
// ErrDraining while queued and in-flight work proceeds.
func (c *Client) BeginDrain() { c.adm.BeginDrain() }

// Draining reports whether the client has stopped admitting.
func (c *Client) Draining() bool { return c.adm.Draining() }

// Drain stops admissions and waits for in-flight work and the admission
// queue to finish. When ctx expires first, every still-queued request is
// shed with ErrOverloaded and Drain returns the typed context error;
// in-flight work is not interrupted (its own contexts govern that).
func (c *Client) Drain(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	return c.adm.Drain(ctx)
}

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
