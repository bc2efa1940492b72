package catalyzer

import (
	"context"
	"fmt"
	"path/filepath"

	"catalyzer/internal/costmodel"
	"catalyzer/internal/faults"
	"catalyzer/internal/fleet"
	"catalyzer/internal/image"
	"catalyzer/internal/platform"
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
// 16 virtual ring nodes per machine, bounded-load factor 1.25, probe
// cadence 100ms, 2 misses to mark down).
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
	// LoadFactor is the bounded-load factor: a machine over this multiple
	// of its fair share of live instances spills placements clockwise.
	LoadFactor float64
	// VirtualNodes is the number of consistent-hash ring points per
	// machine.
	VirtualNodes int
	// ProbeInterval is the virtual-time membership probe cadence.
	ProbeInterval Duration
	// ProbeMisses is the number of consecutive partition misses that
	// mark a member down.
	ProbeMisses int
	// FailoverBackoff is the virtual-time backoff charged before each
	// replayed invocation (doubling per consecutive failover, saturating
	// at MaxAttemptTimeout; superseded by the adaptive timeout once
	// machine scores are warm).
	FailoverBackoff Duration

	// Gray-failure defense knobs (zero values take the defaults; the
	// layer runs out of the box — see DESIGN.md §14).

	// ScoreAlpha is the EWMA weight of each new latency sample in a
	// machine's score (default 0.3).
	ScoreAlpha float64
	// TimeoutFactor scales the healthy median score into the adaptive
	// per-attempt timeout (default 4), clamped to
	// [MinAttemptTimeout, MaxAttemptTimeout] (defaults 1ms / 250ms).
	TimeoutFactor     float64
	MinAttemptTimeout Duration
	MaxAttemptTimeout Duration
	// HedgeFactor scales the healthy median score into the hedge delay
	// (default 2), floored at MinHedgeDelay (default 500µs): a primary
	// attempt running longer races a hedged second attempt.
	HedgeFactor   float64
	MinHedgeDelay Duration
	// ScoreWarmup is the fleet-wide scored-dispatch count below which
	// the adaptive machinery stays disengaged (default 8).
	ScoreWarmup int
	// BudgetRatio is the retry/hedge tokens earned per admitted
	// invocation and BudgetBurst caps the bucket (defaults 0.1 / 32), so
	// retries and hedges are bounded to ~BudgetRatio of traffic plus the
	// burst.
	BudgetRatio float64
	BudgetBurst int
	// EjectFactor is the outlier-ejection threshold as a multiple of the
	// healthy median score (default 4); ReadmitFactor the re-admission
	// hysteresis band (default 1.5).
	EjectFactor   float64
	ReadmitFactor float64
	// MaxEjectFraction bounds the soft-ejected share of the Up fleet
	// (default 1/3); past it outliers stay in rotation and the fleet
	// degrades to brownout instead of collapsing.
	MaxEjectFraction float64
	// MinEjectSamples is the per-machine sample floor before ejection
	// eligibility (default 8); ReadmitProbes the consecutive clean
	// recovery probes that re-admit an ejected member (default 2).
	MinEjectSamples int
	ReadmitProbes   int
	// EjectProbeInterval is the recovery-probe cadence for ejected
	// members (default: ProbeInterval).
	EjectProbeInterval Duration

	// StoreDir, when set, gives every machine its own crash-consistent
	// func-image store in a per-machine subdirectory StoreDir/m0 …
	// StoreDir/mN-1 (journaled manifest + generations, like the
	// single-machine NewClientWithStore). Replica pulls are then
	// fsync-acknowledged through the durable import path, a crashed
	// machine restarts over its surviving on-disk state, and a whole
	// fleet rebuilt over the same StoreDir recovers every deployed
	// function with Fleet.Recover. Empty = in-memory machines (the
	// pre-store fleet, byte-identical schedules).
	StoreDir string
}

// Fleet is a handle to N simulated machines behind the fleet control
// plane: health-checked membership, consistent-hash placement with
// bounded loads, R-way func-image replication, failover with replay,
// and remote forks onto machines missing an image. Safe for concurrent
// use; determinism holds for any fixed sequence of calls.
type Fleet struct {
	fl    *fleet.Fleet
	stats *statsCollector
}

// NewFleet builds a fleet of cfg.Machines machines. The same options as
// NewClient apply per machine (cost model, zygote pool, supervision
// tuning); WithFaultSeed seeds the single injector that drives the whole
// fleet's fault schedule — machine sites and per-machine boot sites
// alike.
func NewFleet(cfg FleetConfig, opts ...Option) (*Fleet, error) {
	c := config{cost: costmodel.Default()}
	for _, o := range opts {
		o(&c)
	}
	pcfg := platformConfig(c)
	fcfg := fleet.Config{
		Machines:           cfg.Machines,
		Replication:        cfg.Replication,
		Zones:              cfg.Zones,
		RepairBudget:       cfg.RepairBudget,
		LoadFactor:         cfg.LoadFactor,
		VirtualNodes:       cfg.VirtualNodes,
		ProbeInterval:      cfg.ProbeInterval,
		ProbeMisses:        cfg.ProbeMisses,
		FailoverBackoff:    cfg.FailoverBackoff,
		ScoreAlpha:         cfg.ScoreAlpha,
		TimeoutFactor:      cfg.TimeoutFactor,
		MinAttemptTimeout:  cfg.MinAttemptTimeout,
		MaxAttemptTimeout:  cfg.MaxAttemptTimeout,
		HedgeFactor:        cfg.HedgeFactor,
		MinHedgeDelay:      cfg.MinHedgeDelay,
		ScoreWarmup:        cfg.ScoreWarmup,
		BudgetRatio:        cfg.BudgetRatio,
		BudgetBurst:        cfg.BudgetBurst,
		EjectFactor:        cfg.EjectFactor,
		ReadmitFactor:      cfg.ReadmitFactor,
		MaxEjectFraction:   cfg.MaxEjectFraction,
		MinEjectSamples:    cfg.MinEjectSamples,
		ReadmitProbes:      cfg.ReadmitProbes,
		EjectProbeInterval: cfg.EjectProbeInterval,
	}
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
		return p, nil
	})
	if err != nil {
		return nil, err
	}
	return &Fleet{fl: fl, stats: newStatsCollector()}, nil
}

// Deploy registers a function fleet-wide: full artifacts on its
// ring-primary machine, the func-image replicated to R−1 more machines.
// Idempotent; a re-deploy re-establishes the replica set.
func (f *Fleet) Deploy(ctx context.Context, name string) error {
	return f.fl.Deploy(ctx, name)
}

// Invoke serves one request on the fleet: consistent-hash placement
// (spilling off overloaded machines), machine-fault draws at dispatch,
// remote fork of missing artifacts, then the chosen machine's recovery
// chain. Machine-level failures replay the invocation on the next
// survivor with virtual-time backoff; Invocation.Machine reports who
// served.
func (f *Fleet) Invoke(ctx context.Context, name string, kind BootKind) (*Invocation, error) {
	sys, ok := kindToSystem[kind]
	if !ok {
		return nil, fmt.Errorf("%w: boot kind %q", ErrUnknownSystem, kind)
	}
	arrival := f.fl.Now()
	res, machine, err := f.fl.Invoke(ctx, name, sys)
	if err != nil {
		return nil, err
	}
	inv := invocationOf(res, kind, arrival)
	inv.Machine = machine
	f.stats.observe(inv.ServedBy, res.BootLatency)
	return inv, nil
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
// per-machine stores after a whole-fleet restart — the fleet analogue
// of Client.Recover. Call it once on a freshly constructed fleet whose
// FleetConfig.StoreDir points at the previous fleet's store root: each
// machine's store has already scrubbed and rehydrated itself at open, so
// Recover runs the deterministic reconciliation pass (highest verified
// generation wins, stale replicas re-pull, byte-divergent ones
// quarantine and re-pull), re-derives ring placement, and tops replica
// sets back toward R under the repair budget. Without per-machine
// stores there is nothing on disk to recover and the report is empty.
func (f *Fleet) Recover(ctx context.Context) (*FleetRecovery, error) {
	rep, err := f.fl.Recover(ctx)
	if rep == nil {
		return nil, err
	}
	return &FleetRecovery{Recovered: rep.Recovered, Failed: rep.Failed}, err
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

// Close shuts the fleet down: membership probes stop, then every member
// machine closes (templates retired, mappings closed, supervision
// drained).
func (f *Fleet) Close() { f.fl.Close() }
