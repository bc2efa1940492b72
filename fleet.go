package catalyzer

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"

	"catalyzer/internal/admission"
	"catalyzer/internal/costmodel"
	"catalyzer/internal/faults"
	"catalyzer/internal/fleet"
	"catalyzer/internal/image"
	"catalyzer/internal/platform"
	"catalyzer/internal/workload"
)

// Typed fleet errors, re-exported so callers branch with errors.Is.
var (
	// ErrNotDeployed: the function has not been deployed to the fleet.
	ErrNotDeployed = fleet.ErrNotDeployed
	// ErrMachineDown: the target machine is down (crashed, or marked
	// down by membership probes).
	ErrMachineDown = fleet.ErrMachineDown
	// ErrMachineUnreachable: the target machine did not answer
	// (partitioned); consecutive misses mark it down.
	ErrMachineUnreachable = fleet.ErrUnreachable
	// ErrNoSurvivors: no Up machine was left to serve the request.
	ErrNoSurvivors = fleet.ErrNoSurvivors
	// ErrMachineFlaky: the target machine answered erratically (the
	// machine-flaky site); the dispatcher replays on the next survivor.
	ErrMachineFlaky = fleet.ErrFlaky
	// ErrBrownout: every healthy machine is exhausted and the soft-ejected
	// remainder could not serve either; retryable — ejected members are
	// probed and re-admitted as they recover.
	ErrBrownout = fleet.ErrBrownout
	// ErrBudgetExhausted: the fleet-wide retry/hedge token budget is dry,
	// so the invocation was not replayed further; retryable — the bucket
	// refills as admitted traffic flows.
	ErrBudgetExhausted = fleet.ErrBudgetExhausted
	// ErrZoneDegraded: every machine that could serve is inside a
	// downed-but-healing failure domain (a scenario outage in effect, or
	// repairs still queued); retryable — healing rejoins the zone and
	// the repair queue drains.
	ErrZoneDegraded = fleet.ErrZoneDegraded
)

// Scenario is a deterministic virtual-time fault timeline: an outage
// script of correlated failures (zone losses, rolling crashes, network
// splits) that a fleet replays identically on every same-seed run.
// Build one with NewScenario and install it with Fleet.InstallScenario.
type Scenario = faults.Scenario

// NewScenario returns an empty fault timeline. Add steps fluently:
//
//	sc := catalyzer.NewScenario()
//	sc.At(2 * time.Second).ZoneDown("z1")
//	sc.At(6 * time.Second).Heal()
func NewScenario() *Scenario { return faults.NewScenario() }

// FleetConfig sizes a fleet. Zero values take defaults (replication 2,
// one zone, repair budget 4, score warm-up 8, ejection sample floor 8,
// retry/hedge budget 0.1 per invocation with a burst of 32). The rest
// of the fleet's tuning is fixed: 16 ring points per machine,
// bounded-load factor 1.25, probe cadence 100ms, 2 misses to mark a
// member down (see DESIGN.md §13 and §14).
type FleetConfig struct {
	// Machines is the fleet size N (required, ≥ 1).
	Machines int
	// Replication is the func-image replication factor R: Deploy writes
	// artifacts to R machines so k < R machine losses cannot lose a
	// function.
	Replication int
	// Zones is the number of failure domains machines stripe across
	// (machine i lives in zone i % Zones, labelled "z0".."zN-1"):
	// replica sets spread across distinct zones when survivors allow,
	// so a whole-zone outage cannot take every copy of a function.
	// Default 1 — a single zone, identical to the pre-zone fleet.
	Zones int
	// RepairBudget caps concurrent re-replications after machine
	// losses: a mass outage's repair plan drains through a
	// deterministic queue in batches of at most this many (default 4).
	RepairBudget int

	// Gray-failure defense knobs (zero values take the defaults; the
	// layer runs out of the box — see DESIGN.md §14).

	// ScoreWarmup is the fleet-wide scored-dispatch count below which
	// the adaptive machinery stays disengaged (default 8).
	ScoreWarmup int
	// MinEjectSamples is the per-machine sample floor before ejection
	// eligibility (default 8).
	MinEjectSamples int
	// BudgetRatio is the retry/hedge tokens earned per admitted
	// invocation and BudgetBurst caps the bucket (defaults 0.1 / 32), so
	// retries and hedges are bounded to ~BudgetRatio of traffic plus the
	// burst.
	BudgetRatio float64
	BudgetBurst int

	// StoreDir, when set, gives every machine its own crash-consistent
	// func-image store in a per-machine subdirectory StoreDir/m0 …
	// StoreDir/mN-1 (journaled manifest + generations): Deploy loads a
	// stored image instead of re-running offline initialization, and a
	// corrupt stored image is quarantined and rebuilt, never silently
	// reused. Replica pulls are then fsync-acknowledged through the
	// durable import path, a crashed machine restarts over its surviving
	// on-disk state, and a whole fleet rebuilt over the same StoreDir
	// recovers every deployed function with Fleet.Recover. Empty =
	// in-memory machines (the pre-store fleet, byte-identical schedules).
	StoreDir string
}

// Fleet is a handle to N simulated machines behind the fleet control
// plane: health-checked membership, consistent-hash placement with
// bounded loads, R-way func-image replication, failover with replay,
// and remote forks onto machines missing an image. A one-machine fleet
// is the single host. Every invocation first passes the fleet's
// admission controller (WithAdmission), which also drains it on
// shutdown. Safe for concurrent use; determinism holds for any fixed
// sequence of calls.
type Fleet struct {
	fl    *fleet.Fleet
	stats *statsCollector
	adm   *admission.Controller

	// arrived, when set, runs after an invocation reads its arrival time
	// and before any machine work; tests use it to line concurrent
	// requests up independently of goroutine scheduling.
	arrived func()

	// mu guards machines (the platform currently behind each fleet
	// index; a crashed machine's is replaced when it is rebuilt) and the
	// report of the last Recover pass.
	mu           sync.Mutex
	machines     []*platform.Platform
	lastRecovery *FleetRecovery
}

// fleetConfig is the control-plane tuning cfg selects: every field but
// StoreDir, which NewFleet's machine factory reads itself.
func (cfg FleetConfig) fleetConfig() fleet.Config {
	return fleet.Config{
		Machines:        cfg.Machines,
		Replication:     cfg.Replication,
		Zones:           cfg.Zones,
		RepairBudget:    cfg.RepairBudget,
		ScoreWarmup:     cfg.ScoreWarmup,
		MinEjectSamples: cfg.MinEjectSamples,
		BudgetRatio:     cfg.BudgetRatio,
		BudgetBurst:     cfg.BudgetBurst,
	}
}

// NewFleet builds a fleet of cfg.Machines machines; FleetConfig{Machines:
// 1} is a single host. Options set admission (WithAdmission) at the
// fleet's front door, and per machine the cost model, zygote pool,
// memory budget and supervision tuning; WithFaultSeed seeds the single
// injector that drives the whole fleet's fault schedule — machine sites
// and per-machine boot sites alike.
func NewFleet(cfg FleetConfig, opts ...Option) (*Fleet, error) {
	c := config{cost: costmodel.Default()}
	for _, o := range opts {
		o(&c)
	}
	// fleet.New rejects a non-positive size before building any machine.
	f := &Fleet{
		stats:    newStatsCollector(),
		adm:      admission.New(c.adm),
		machines: make([]*platform.Platform, max(cfg.Machines, 0)),
	}
	pcfg := platformConfig(c)
	fcfg := cfg.fleetConfig()
	if c.faultSeed != nil {
		fcfg.Seed = *c.faultSeed
	}
	fl, err := fleet.New(fcfg, func(idx int) (platform.Node, error) {
		var p *platform.Platform
		var perr error
		if cfg.StoreDir != "" {
			// Each machine owns the store under its per-machine subdir;
			// opening it replays the journal and scrubs, so a machine
			// rebuilt after a crash (or a whole-fleet restart) comes back
			// with its durable state.
			st, serr := image.NewStore(filepath.Join(cfg.StoreDir, fmt.Sprintf("m%d", idx)))
			if serr != nil {
				return nil, fmt.Errorf("open machine %d store: %w", idx, serr)
			}
			p, perr = platform.NewWithStoreConfig(c.cost, st, pcfg)
		} else {
			p, perr = platform.NewWithConfig(c.cost, pcfg)
		}
		if perr != nil {
			// Options sanitize their inputs; an invalid platform config
			// here is a programming error, not a user error.
			panic(perr)
		}
		if c.memPages > 0 {
			p.SetMemoryBudget(c.memPages)
		}
		f.mu.Lock()
		defer f.mu.Unlock()
		// A machine rebuilt after a crash keeps its predecessor's
		// recovery tuning (SetRecoveryConfig).
		if old := f.machines[idx]; old != nil {
			p.SetRecoveryConfig(old.RecoveryConfig())
		}
		f.machines[idx] = p
		return p, nil
	})
	if err != nil {
		return nil, err
	}
	f.fl = fl
	return f, nil
}

// Deploy registers a function fleet-wide: full artifacts on its
// ring-primary machine, the func-image replicated to R−1 more machines.
// Idempotent; a re-deploy re-establishes the replica set.
func (f *Fleet) Deploy(ctx context.Context, name string) error {
	return f.fl.Deploy(ctx, name)
}

// DeployCustom registers a user-defined function from its JSON workload
// document (see internal/workload.SpecDoc for the format) and deploys it
// fleet-wide. The name must not collide with a built-in workload.
func (f *Fleet) DeployCustom(ctx context.Context, doc []byte) (string, error) {
	return deployCustom(ctx, doc, f.Deploy)
}

// Train derives the user-guided pre-initialization variant of a
// function (§6.7) and deploys it fleet-wide, so the variant replicates
// like any other function: the given fraction (0..1) of per-request
// preparation work is warmed at training time and captured in the
// variant's artifacts. It returns the variant's name
// ("<name>@pretrained"), which Invoke accepts like any function.
func (f *Fleet) Train(ctx context.Context, name string, fraction float64) (string, error) {
	base, err := workload.Registry(name)
	if err != nil {
		return "", fmt.Errorf("%w: %v", ErrNotRegistered, err)
	}
	variant, err := workload.PreInitVariant(base, fraction)
	if err != nil {
		return "", err
	}
	// A re-trained variant is already registered; deploying it again
	// re-establishes its replica set.
	if err := workload.RegisterCustom(variant); err != nil && !errors.Is(err, workload.ErrAlreadyRegistered) {
		return "", err
	}
	if err := f.Deploy(ctx, variant.Name); err != nil {
		return "", err
	}
	return variant.Name, nil
}

// Invoke boots an instance with the given strategy, executes one
// request, and tears the instance down. The request first passes the
// fleet's admission controller (queueing or shedding under overload per
// WithAdmission), then consistent-hash placement (spilling off
// overloaded machines), machine-fault draws at dispatch, remote fork of
// missing artifacts, and the chosen machine's recovery chain: a failing
// Catalyzer stage retries with virtual-time backoff and then degrades
// (sfork → Zygote → restore → gVisor cold); check Invocation.ServedBy
// for the strategy that actually served. Machine-level failures replay
// the invocation on the next survivor with virtual-time backoff;
// Invocation.Machine reports who served. ctx bounds the whole request;
// expiry surfaces as ErrDeadlineExceeded (mid-chain aborts happen
// between fallback stages).
func (f *Fleet) Invoke(ctx context.Context, name string, kind BootKind) (*Invocation, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	sys, release, err := f.admit(ctx, name, kind)
	if err != nil {
		return nil, err
	}
	defer release()
	arrival := f.fl.Now()
	if f.arrived != nil {
		f.arrived()
	}
	res, machine, err := f.fl.Invoke(ctx, name, sys)
	if err != nil {
		return nil, err
	}
	inv := invocationOf(res, kind, arrival)
	inv.Machine = machine
	f.stats.observe(inv.ServedBy, res.BootLatency)
	return inv, nil
}

// admit resolves kind's boot system and passes one request for name
// through the fleet's admission controller; the caller runs release
// once the request is done.
func (f *Fleet) admit(ctx context.Context, name string, kind BootKind) (sys platform.System, release func(), err error) {
	sys, ok := kindToSystem[kind]
	if !ok {
		return "", nil, fmt.Errorf("%w: boot kind %q", ErrUnknownSystem, kind)
	}
	release, err = f.adm.Acquire(ctx, name)
	return sys, release, err
}

// machineFor readies the machine placement picks for name's next
// request (remote fork, first template build) and returns its index and
// platform.
func (f *Fleet) machineFor(name string, sys platform.System) (int, *platform.Platform, error) {
	idx, err := f.fl.Prepare(name, sys)
	if err != nil {
		return -1, nil, err
	}
	return idx, f.members()[idx], nil
}

// Size returns the fleet size N.
func (f *Fleet) Size() int { return f.fl.Size() }

// Deployed lists the deployed functions, sorted.
func (f *Fleet) Deployed() []string { return f.fl.Functions() }

// Replicas returns the machine indices holding name's replicas, or nil
// if not deployed.
func (f *Fleet) Replicas(name string) []int { return f.fl.Replicas(name) }

// Running returns the total number of live instances across the fleet.
func (f *Fleet) Running() int {
	total := 0
	for _, m := range f.fl.Members() {
		total += m.Live
	}
	return total
}

// Now returns the fleet's virtual clock (the furthest member clock).
func (f *Fleet) Now() Duration { return f.fl.Now() }

// MachineInfo is one machine's membership snapshot.
type MachineInfo struct {
	// Index is the machine's fleet index; Zone its failure-domain label
	// ("z0".."zN-1"); State is "up" or "down".
	Index int
	Zone  string
	State string
	// Crashed reports a down machine lost its state (needs
	// RestartMachine); Epoch counts its restarts.
	Crashed bool
	Epoch   int
	// Live is the machine's live-instance gauge; Clock its virtual time.
	Live  int
	Clock Duration
	// Ejected reports a soft-ejected (Up but drained) member; Score is
	// its EWMA dispatch latency over Samples scored dispatches.
	Ejected bool
	Score   Duration
	Samples int
}

// Machines snapshots the fleet's membership view.
func (f *Fleet) Machines() []MachineInfo {
	ms := f.fl.Members()
	out := make([]MachineInfo, len(ms))
	for i, m := range ms {
		out[i] = MachineInfo{
			Index:   m.Index,
			Zone:    m.Zone,
			State:   m.State.String(),
			Crashed: m.Crashed,
			Epoch:   m.Epoch,
			Live:    m.Live,
			Clock:   m.Clock,
			Ejected: m.Ejected,
			Score:   m.Score,
			Samples: m.Samples,
		}
	}
	return out
}

// KillMachine forcibly crashes a machine (chaos hook): state lost, its
// functions re-place and re-replicate onto survivors, and only
// RestartMachine brings it back.
func (f *Fleet) KillMachine(idx int) error { return f.fl.Kill(idx) }

// RestartMachine re-admits a down machine: a crashed one comes back
// empty on a fresh machine (remote forks repopulate it on demand); a
// partitioned one rejoins with state intact. No-op if already up.
func (f *Fleet) RestartMachine(idx int) error { return f.fl.Restart(idx) }

// FleetRecovery summarizes one whole-fleet cold restart: the functions
// restored to service (sorted) and, per unrecoverable function, why.
type FleetRecovery struct {
	Recovered []string
	Failed    map[string]string
}

// Recover rebuilds the fleet's serving state from the machines'
// per-machine stores after a whole-fleet restart, so a restarted fleet
// serves previously deployed functions without a fresh Deploy. Call it
// once on a freshly constructed fleet whose FleetConfig.StoreDir points
// at the previous fleet's store root: each machine's store has already
// scrubbed and rehydrated itself at open, so Recover runs the
// deterministic reconciliation pass (highest verified generation wins,
// stale replicas re-pull, byte-divergent ones quarantine and re-pull),
// re-derives ring placement, and tops replica sets back toward R under
// the repair budget. Without per-machine stores there is nothing on
// disk to recover and the report is empty.
func (f *Fleet) Recover(ctx context.Context) (*FleetRecovery, error) {
	rep, err := f.fl.Recover(ctx)
	if rep == nil {
		return nil, err
	}
	out := &FleetRecovery{Recovered: rep.Recovered, Failed: rep.Failed}
	f.mu.Lock()
	f.lastRecovery = out
	f.mu.Unlock()
	return out, err
}

// RecoveryReport returns the report of the most recent Recover pass, or
// nil if Recover has not run.
func (f *Fleet) RecoveryReport() *FleetRecovery {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lastRecovery
}

// InstallScenario anchors a fault timeline at the current fleet clock:
// each step fires once the virtual clock passes its offset, checked on
// every dispatch and membership probe, so same-seed runs replay the
// identical outage script. Installing replaces any prior scenario. The
// scenario must compile and may only name configured zones.
func (f *Fleet) InstallScenario(sc *Scenario) error { return f.fl.InstallScenario(sc) }

// ZoneNames lists the fleet's configured zone labels in index order.
func (f *Fleet) ZoneNames() []string { return f.fl.ZoneNames() }

// ArmFault arms a fault-injection site (see FaultSites) on the fleet's
// shared injector: machine sites are drawn by the control plane, every
// other site by the member machines.
func (f *Fleet) ArmFault(site string, rate float64) error {
	if !faults.ValidSite(faults.Site(site)) {
		return fmt.Errorf("%w: %q (known: %v)", ErrUnknownFaultSite, site, FaultSites())
	}
	f.fl.ArmFault(faults.Site(site), rate)
	return nil
}

// ArmMachineFault arms a fault site on one machine only (keyed arming
// on the fleet's shared injector): the canonical way to make a single
// member gray-slow or flaky without perturbing the seeded fault
// schedule of the rest of the fleet.
func (f *Fleet) ArmMachineFault(idx int, site string, rate float64) error {
	if !faults.ValidSite(faults.Site(site)) {
		return fmt.Errorf("%w: %q (known: %v)", ErrUnknownFaultSite, site, FaultSites())
	}
	return f.fl.ArmFaultOn(idx, faults.Site(site), rate)
}

// DisarmFaults disarms every fault site, keyed per-machine armings
// included; injection counts are retained.
func (f *Fleet) DisarmFaults() { f.fl.DisarmFaults() }

// Stats returns the per-kind boot latency distribution of everything
// the fleet has served.
func (f *Fleet) Stats() map[BootKind]KindStats { return f.stats.snapshot() }

// StatsKinds returns the kinds with recorded invocations, sorted.
func (f *Fleet) StatsKinds() []BootKind { return f.stats.kinds() }

// FleetStats is the fleet control plane's accounting: membership
// gauges, fault/failover counters, remote-fork and re-replication
// counters, and per-machine served/live vectors.
type FleetStats = fleet.Stats

// FleetStats returns a snapshot of the fleet control plane's
// accounting.
func (f *Fleet) FleetStats() FleetStats { return f.fl.Stats() }

// members snapshots the platform behind every fleet index.
func (f *Fleet) members() []*platform.Platform {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]*platform.Platform(nil), f.machines...)
}

// FailureStats sums the machines' failure-recovery accounting: counters
// and per-key counts add up, Breakers keeps each "function/system"
// breaker's most severe state across machines, and Faults is the
// shared injector's per-site counts, which every machine reports
// identically. A machine rebuilt after a crash counts from zero.
func (f *Fleet) FailureStats() FailureStats {
	ms := f.members()
	out := ms[0].FailureStats()
	for _, p := range ms[1:] {
		st := p.FailureStats()
		addCounters(&out, &st)
		for k, state := range st.Breakers {
			if breakerSeverity[state] > breakerSeverity[out.Breakers[k]] {
				out.Breakers[k] = state
			}
		}
	}
	return out
}

// breakerSeverity orders breaker states for merging across machines.
var breakerSeverity = map[string]int{"closed": 1, "half-open": 2, "open": 3}

// SuperviseStats sums the machines' runtime supervision accounting.
func (f *Fleet) SuperviseStats() SuperviseStats {
	ms := f.members()
	out := ms[0].SuperviseStats()
	for _, p := range ms[1:] {
		st := p.SuperviseStats()
		addCounters(&out, &st)
	}
	return out
}

// ParkedFunctions lists the functions parked as crash-looping on any
// machine, each with the largest remaining virtual park time.
func (f *Fleet) ParkedFunctions() map[string]Duration {
	ms := f.members()
	out := ms[0].ParkedFunctions()
	for _, p := range ms[1:] {
		for fn, left := range p.ParkedFunctions() {
			out[fn] = max(out[fn], left)
		}
	}
	return out
}

// addCounters adds every integer field of *src into *dst, and every
// integer-valued map per key; fields of other kinds are left alone.
// Both must point to the same struct type.
func addCounters(dst, src any) {
	d, s := reflect.ValueOf(dst).Elem(), reflect.ValueOf(src).Elem()
	for i := 0; i < d.NumField(); i++ {
		df, sf := d.Field(i), s.Field(i)
		switch {
		case df.CanInt():
			df.SetInt(df.Int() + sf.Int())
		case df.Kind() == reflect.Map && df.Type().Elem().Kind() == reflect.Int:
			if df.IsNil() {
				df.Set(reflect.MakeMap(df.Type()))
			}
			for it := sf.MapRange(); it.Next(); {
				n := it.Value().Int()
				if cur := df.MapIndex(it.Key()); cur.IsValid() {
					n += cur.Int()
				}
				df.SetMapIndex(it.Key(), reflect.ValueOf(n).Convert(df.Type().Elem()))
			}
		}
	}
}

// SetRecoveryConfig replaces every machine's recovery tuning (retries,
// breakers, quarantine thresholds), including machines rebuilt after a
// crash. Existing breaker state is reset.
func (f *Fleet) SetRecoveryConfig(cfg RecoveryConfig) {
	// Holding mu orders this against a concurrent rebuild, which copies
	// the tuning of the machine it replaces.
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, p := range f.machines {
		p.SetRecoveryConfig(cfg)
	}
}

// OverloadStats returns a snapshot of the fleet's admission/overload
// accounting.
func (f *Fleet) OverloadStats() OverloadStats { return f.adm.Snapshot() }

// BeginDrain stops admitting new work: subsequent invocations fail with
// ErrDraining while queued and in-flight work proceeds.
func (f *Fleet) BeginDrain() { f.adm.BeginDrain() }

// Draining reports whether the fleet has stopped admitting.
func (f *Fleet) Draining() bool { return f.adm.Draining() }

// Drain stops admissions and waits for in-flight work and the admission
// queue to finish. When ctx expires first, every still-queued request is
// shed with ErrOverloaded and Drain returns the typed context error;
// in-flight work is not interrupted (its own contexts govern that).
func (f *Fleet) Drain(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	return f.adm.Drain(ctx)
}

// Close shuts the fleet down: membership probes stop, then every member
// machine closes (templates retired, mappings closed, supervision
// drained). After Close and the release of any kept instances, Running
// reports zero.
func (f *Fleet) Close() { f.fl.Close() }
