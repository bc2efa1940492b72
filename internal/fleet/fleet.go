// Package fleet is the multi-machine control plane: N Platform machines
// behind a health-checked membership view and a consistent-hash (with
// bounded-load fallback) placement layer, where whole-machine failure is
// a first-class injected fault.
//
// Deploy writes a function's artifacts to R machines (the template on
// the ring-primary, the func-image shipped to R−1 replicas). Invoke
// places each request on the ring, draws the machine-granularity fault
// sites (machine-crash, machine-partition, machine-slow) at dispatch,
// and on a machine-level failure replays the invocation on the next
// survivor with virtual-time backoff — the per-machine boot then runs
// through the platform's existing recovery chain. A detected crash marks
// the member down, re-places its functions, and re-replicates their
// images from surviving replicas to restore R. A boot placed on a
// machine missing the image performs a remote fork: fork from a peer's
// live template when one exists, else pull the image from a replica
// peer, degrading to a local cold build when no peer has it.
//
// Membership is probed through the supervise probe-group machinery on a
// virtual-time cadence: probes draw the crash/partition sites, mark
// members down after consecutive partition misses, and re-admit a
// partitioned member on its first clean probe. A crashed member lost its
// state and rejoins empty via Restart; the ring then re-balances onto it
// automatically and remote forks repopulate it on demand.
//
// Everything is deterministic virtual time: one seeded injector drives
// the whole fleet's fault schedule, placement depends only on the ring
// and live-instance counts, and iteration over deployments is sorted —
// two sequential runs with the same seed produce identical placement
// and stats.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"catalyzer/internal/admission"
	"catalyzer/internal/faults"
	"catalyzer/internal/obs"
	"catalyzer/internal/platform"
	"catalyzer/internal/simtime"
	"catalyzer/internal/supervise"
)

// Typed fleet errors. Callers branch on these with errors.Is.
var (
	// ErrBadConfig: the fleet configuration is invalid.
	ErrBadConfig = errors.New("fleet: invalid configuration")
	// ErrNotDeployed: the function has not been deployed to the fleet.
	ErrNotDeployed = errors.New("fleet: function not deployed")
	// ErrMachineDown: the target machine is down (crashed or marked down
	// by membership probes).
	ErrMachineDown = errors.New("fleet: machine is down")
	// ErrUnreachable: the target machine did not answer (partitioned);
	// it may be marked down after consecutive misses.
	ErrUnreachable = errors.New("fleet: machine unreachable")
	// ErrNoSurvivors: no Up machine is left to serve the request.
	ErrNoSurvivors = errors.New("fleet: no machine available")
	// ErrFlaky: the target machine dropped the request erratically
	// (machine-flaky site); the dispatch is replayed elsewhere without
	// accruing partition misses.
	ErrFlaky = errors.New("fleet: machine answered erratically")
	// ErrBrownout: every healthy machine is ejected or failed; the fleet
	// is draining its outliers and could not serve this request. A
	// retryable condition — ejected machines are probed back in.
	ErrBrownout = errors.New("fleet: browned out, healthy machines exhausted")
	// ErrBudgetExhausted: the fleet-wide retry/hedge budget is dry, so a
	// failed invocation could not be replayed. Retryable — the bucket
	// refills as traffic flows.
	ErrBudgetExhausted = errors.New("fleet: retry/hedge budget exhausted")
)

// State is a member's membership state.
type State int

const (
	// StateUp: the member serves placements and is probed for failure.
	StateUp State = iota
	// StateDown: the member receives no placements; a crashed member
	// waits for Restart, a partitioned one for a clean probe.
	StateDown
)

// String implements fmt.Stringer.
func (s State) String() string {
	if s == StateUp {
		return "up"
	}
	return "down"
}

// Fixed fleet tuning (DESIGN.md §13 and §14); every fleet runs with
// these values.
const (
	// virtualNodes is the number of ring points per machine.
	virtualNodes = 16
	// probeMisses is the number of consecutive failed probes or
	// dispatches that mark a partitioned member down. Membership is
	// probed at the supervise default cadence (100ms).
	probeMisses = 2
	// pullPageCost is the virtual transfer cost per image page when a
	// remote fork pulls a func-image from a replica peer;
	// templateForkPageCost is the cheaper per-page cost when it sources
	// a peer's live template.
	pullPageCost         = simtime.Microsecond
	templateForkPageCost = 250 * simtime.Nanosecond
	// slowPenalty is the virtual latency charged to a machine when the
	// machine-slow site fires at dispatch.
	slowPenalty = 5 * simtime.Millisecond

	// scoreAlpha is the EWMA weight of each new latency sample in a
	// machine's score.
	scoreAlpha = 0.3
	// timeoutFactor scales the healthy median score into the adaptive
	// per-attempt timeout; maxAttemptTimeout caps it (raised to
	// MinAttemptTimeout when that is larger, see attemptCeiling) and
	// saturates the cold-start doubling backoff.
	timeoutFactor     = 4
	maxAttemptTimeout = 250 * simtime.Millisecond
	// hedgeFactor scales the healthy median score into the hedge delay:
	// a primary attempt running longer than this races a second
	// attempt. minHedgeDelay floors the hedge delay.
	hedgeFactor   = 2
	minHedgeDelay = 500 * simtime.Microsecond
	// readmitFactor is the hysteresis band for score-based re-admission
	// of an ejected member; readmitProbes is the consecutive clean
	// recovery probes that re-admit it; probeCost is the virtual cost
	// charged per recovery probe.
	readmitFactor = 1.5
	readmitProbes = 2
	probeCost     = 200 * simtime.Microsecond
	// lingerPenalty is the extra charge when a hedge loser lingers.
	lingerPenalty = 5 * simtime.Millisecond
)

// Config tunes the fleet. Zero values select the defaults.
type Config struct {
	// Machines is the fleet size N (required, ≥ 1).
	Machines int
	// Replication is the func-image replication factor R: Deploy writes
	// artifacts to R machines (clamped to Machines; default 2).
	Replication int
	// Zones is the number of failure domains machines stripe across
	// (machine i lives in zone i % Zones, labelled "z0".."zN-1").
	// Replica selection spreads each function across distinct zones
	// when survivors allow (see zones.go). Default 1 — a single zone,
	// byte-identical to the pre-zone fleet (clamped to Machines).
	Zones int
	// RepairBudget caps concurrent re-replications: a mass outage's
	// repair plan drains through a deterministic queue in batches of at
	// most this many, excess counted in RepairsDeferred (default 4).
	RepairBudget int
	// LoadFactor is the bounded-load factor c: a machine holding more
	// than c times its fair share of live instances spills placements to
	// the next ring machine (default 1.25; values ≤ 1 take the default).
	LoadFactor float64
	// FailoverBackoff is the virtual-time backoff charged before a
	// replayed invocation, doubling per consecutive failover (default
	// 200µs).
	FailoverBackoff simtime.Duration

	// The gray-failure defense knobs (see gray.go). Zero values select
	// the defaults; the whole layer runs out of the box.

	// MinAttemptTimeout floors the adaptive per-attempt timeout
	// (default 1ms).
	MinAttemptTimeout simtime.Duration
	// ScoreWarmup is the fleet-wide scored-dispatch count below which
	// the adaptive machinery (timeouts, hedging) stays disengaged
	// (default 8).
	ScoreWarmup int
	// BudgetRatio is the retry/hedge tokens earned per admitted
	// invocation; BudgetBurst caps the bucket (defaults 0.1 and 32), so
	// extra attempts are bounded to ~BudgetRatio of traffic plus the
	// burst.
	BudgetRatio float64
	BudgetBurst int
	// EjectFactor is the outlier threshold: a member whose score
	// exceeds EjectFactor × the healthy median is soft-ejected (default
	// 4).
	EjectFactor float64
	// MaxEjectFraction bounds the ejected share of the Up fleet
	// (default 1/3); outliers past the bound are deferred, not ejected.
	MaxEjectFraction float64
	// MinEjectSamples is the per-machine sample floor before ejection
	// eligibility (default 8).
	MinEjectSamples int
	// EjectProbeInterval is the recovery-probe cadence for ejected
	// members (default: the membership probe cadence).
	EjectProbeInterval simtime.Duration
	// GraySlowPenalty is the virtual latency charged when the
	// machine-gray-slow site fires (default 20ms).
	GraySlowPenalty simtime.Duration

	// Seed seeds the fleet's fault injector, which is also installed on
	// every member machine so one seed drives the whole schedule.
	Seed int64
}

// withDefaults fills zero fields; Validate has already rejected
// nonsense.
func (c Config) withDefaults() Config {
	if c.Replication == 0 {
		c.Replication = 2
	}
	if c.Replication > c.Machines {
		c.Replication = c.Machines
	}
	if c.Zones <= 0 {
		c.Zones = 1
	}
	if c.Zones > c.Machines {
		c.Zones = c.Machines
	}
	if c.RepairBudget <= 0 {
		c.RepairBudget = 4
	}
	if c.LoadFactor <= 1 {
		c.LoadFactor = 1.25
	}
	if c.FailoverBackoff <= 0 {
		c.FailoverBackoff = 200 * simtime.Microsecond
	}
	if c.MinAttemptTimeout <= 0 {
		c.MinAttemptTimeout = simtime.Millisecond
	}
	if c.ScoreWarmup <= 0 {
		c.ScoreWarmup = 8
	}
	if c.BudgetRatio <= 0 {
		c.BudgetRatio = 0.1
	}
	if c.BudgetBurst <= 0 {
		c.BudgetBurst = 32
	}
	if c.EjectFactor <= 0 {
		c.EjectFactor = 4
	}
	if c.MaxEjectFraction <= 0 {
		c.MaxEjectFraction = 1.0 / 3
	}
	if c.MinEjectSamples <= 0 {
		c.MinEjectSamples = 8
	}
	// EjectProbeInterval ≤ 0 falls through to the supervisor's default
	// cadence via RegisterEvery.
	if c.GraySlowPenalty <= 0 {
		c.GraySlowPenalty = 20 * simtime.Millisecond
	}
	return c
}

// attemptCeiling caps the adaptive timeout, the hedge delay and the
// cold-start backoff: maxAttemptTimeout, raised to MinAttemptTimeout
// when that is larger.
func (c Config) attemptCeiling() simtime.Duration {
	return max(maxAttemptTimeout, c.MinAttemptTimeout)
}

// Validate rejects nonsensical tunings.
func (c Config) Validate() error {
	if c.Machines <= 0 {
		return fmt.Errorf("%w: fleet needs at least one machine, got %d", ErrBadConfig, c.Machines)
	}
	if c.Replication < 0 {
		return fmt.Errorf("%w: negative replication factor %d", ErrBadConfig, c.Replication)
	}
	if c.Zones < 0 {
		return fmt.Errorf("%w: negative zone count %d", ErrBadConfig, c.Zones)
	}
	if c.RepairBudget < 0 {
		return fmt.Errorf("%w: negative repair budget %d", ErrBadConfig, c.RepairBudget)
	}
	if c.FailoverBackoff < 0 || c.MinAttemptTimeout < 0 ||
		c.EjectProbeInterval < 0 || c.GraySlowPenalty < 0 {
		return fmt.Errorf("%w: negative duration", ErrBadConfig)
	}
	if c.BudgetRatio < 0 || c.EjectFactor < 0 {
		return fmt.Errorf("%w: negative gray-defense factor", ErrBadConfig)
	}
	if c.MaxEjectFraction < 0 || c.MaxEjectFraction > 1 {
		return fmt.Errorf("%w: MaxEjectFraction %v outside [0, 1]", ErrBadConfig, c.MaxEjectFraction)
	}
	if c.BudgetBurst < 0 || c.MinEjectSamples < 0 || c.ScoreWarmup < 0 {
		return fmt.Errorf("%w: negative gray-defense count", ErrBadConfig)
	}
	return nil
}

// Stats is the fleet's accounting, re-exported as catalyzer.FleetStats.
// The daemon encodes it as the "fleet" section of /metrics; the json
// tags are the wire names.
type Stats struct {
	// Machines / Up / Down / Deployed are gauges: fleet size, current
	// membership split, and deployed function count.
	Machines int `json:"machines"`
	Up       int `json:"up"`
	Down     int `json:"down"`
	Deployed int `json:"deployed"`
	// Crashes counts down-transitions caused by machine-crash faults or
	// explicit kills (state lost); Partitions counts down-transitions
	// from consecutive partition misses (state intact).
	Crashes    int `json:"crashes"`
	Partitions int `json:"partitions"`
	// UnreachableDispatches counts dispatches that failed on a
	// partition draw; SlowDispatches counts machine-slow draws served
	// with a latency penalty.
	UnreachableDispatches int `json:"unreachable_dispatches"`
	SlowDispatches        int `json:"slow_dispatches"`
	// Rejoins counts re-admissions: healed partitions and restarted
	// crashed members.
	Rejoins int `json:"rejoins"`
	// MembershipProbes counts membership probe-group executions.
	MembershipProbes int `json:"membership_probes"`
	// Failovers counts machine-level dispatch failures that re-placed an
	// invocation; Replays counts invocations that completed after at
	// least one failover.
	Failovers int `json:"failovers"`
	Replays   int `json:"replays"`
	// ImagePulls counts remote forks served by pulling a func-image from
	// a replica peer; TemplateForks counts the cheaper remote forks from
	// a peer's live template; LocalBuilds counts the degraded local cold
	// builds when no peer had the artifacts.
	ImagePulls    int `json:"image_pulls"`
	TemplateForks int `json:"template_forks"`
	LocalBuilds   int `json:"local_builds"`
	// Rereplications counts replica placements restored after a member
	// went down; RepairFailures counts restore attempts that failed;
	// ReplicasLost counts functions that at some repair had no surviving
	// replica (k ≥ R machines lost).
	Rereplications int `json:"rereplications"`
	RepairFailures int `json:"repair_failures"`
	ReplicasLost   int `json:"replicas_lost"`
	// Spills counts bounded-load placements diverted off the preferred
	// ring machine.
	Spills int `json:"spills"`
	// GrayDispatches counts machine-gray-slow draws that fired (served
	// with a large latency penalty); FlakyDispatches counts machine-flaky
	// draws that dropped a request.
	GrayDispatches  int `json:"gray_dispatches"`
	FlakyDispatches int `json:"flaky_dispatches"`
	// Hedges counts hedged invocations raced; HedgeWins counts hedges
	// whose second attempt finished first; HedgeLosersLingered counts
	// hedge losers that kept burning cycles (hedge-loser-lingers site).
	Hedges              int `json:"hedges"`
	HedgeWins           int `json:"hedge_wins"`
	HedgeLosersLingered int `json:"hedge_losers_lingered"`
	// Retries counts replayed attempts that spent a budget token;
	// BudgetSpent counts all tokens spent (retries + hedges);
	// BudgetDenials counts retries/hedges refused on a dry bucket.
	Retries       int `json:"retries"`
	BudgetSpent   int `json:"budget_spent"`
	BudgetDenials int `json:"budget_denials"`
	// Ejections counts soft-ejections of outlier machines;
	// EjectionsDeferred counts outlier verdicts suppressed by the
	// max-ejection fraction; Readmissions counts ejected members probed
	// back into the ring; EjectionProbes counts individual recovery
	// probes of ejected members.
	Ejections         int `json:"ejections"`
	EjectionsDeferred int `json:"ejections_deferred"`
	Readmissions      int `json:"readmissions"`
	EjectionProbes    int `json:"ejection_probes"`
	// BrownoutServes counts invocations served by an ejected machine
	// because no healthy one remained; EjectedMachines is the current
	// soft-ejected gauge.
	BrownoutServes  int `json:"brownout_serves"`
	EjectedMachines int `json:"ejected_machines"`
	// Zones is the configured failure-domain count; ZonesDown is the
	// gauge of zones currently downed or split by a scenario.
	Zones     int `json:"zones"`
	ZonesDown int `json:"zones_down"`
	// ZoneSpreadViolations counts replica placements forced to double
	// up inside a covered zone while a configured zone sat uncovered
	// (survivor pressure, not R > Zones structure).
	ZoneSpreadViolations int `json:"zone_spread_violations"`
	// ZoneDownDispatches counts dispatches refused by a zone-down draw;
	// SplitDispatches counts dispatches lost to a partition-split draw.
	ZoneDownDispatches int `json:"zone_down_dispatches"`
	SplitDispatches    int `json:"split_dispatches"`
	// RollingCrashes counts machines crashed by rolling-crash sweep
	// steps; ScenarioSteps counts timeline steps applied.
	RollingCrashes int `json:"rolling_crashes"`
	ScenarioSteps  int `json:"scenario_steps"`
	// ZoneDegradedErrors counts invocations that failed with the
	// retryable ErrZoneDegraded while the fleet was healing.
	ZoneDegradedErrors int `json:"zone_degraded_errors"`
	// RepairsDeferred counts re-replications held past a pump round by
	// the repair budget (or pushed back by the repair-deferred site);
	// RepairPeakInFlight is the largest concurrent repair batch
	// observed; RepairQueueDepth is the current queue gauge.
	RepairsDeferred    int `json:"repairs_deferred"`
	RepairPeakInFlight int `json:"repair_peak_in_flight"`
	RepairQueueDepth   int `json:"repair_queue_depth"`
	// Fleet cold-restart recovery accounting (Recover). StoresRecovered
	// counts machine stores that reopened at restart with stored
	// functions intact; TornStores counts stores treated as torn at
	// restart (the restart-torn-store site or an unreadable manifest):
	// their contents are ignored and every replica they held re-pulls.
	StoresRecovered int `json:"stores_recovered"`
	TornStores      int `json:"torn_stores"`
	// FunctionsRecovered counts functions restored to service by the
	// reconciliation pass; StaleRepulls counts replica copies re-pulled
	// up to the winning generation; DivergentQuarantined counts
	// same-generation copies whose bytes diverged from the winner,
	// quarantined as evidence and repaired; RecoverFailures counts
	// replica restorations that failed (left for the post-recovery
	// top-up).
	FunctionsRecovered   int `json:"functions_recovered"`
	StaleRepulls         int `json:"stale_repulls"`
	DivergentQuarantined int `json:"divergent_quarantined"`
	RecoverFailures      int `json:"recover_failures"`
	// InvokeP50/InvokeP99/InvokeMax digest the effective per-invocation
	// latency (hedge-adjusted: a winning hedge caps the invocation at
	// delay + hedge latency) across everything served. The wire carries
	// them as invoke_p50_ms, invoke_p99_ms and invoke_max_ms. InvokeMax is
	// exact; the percentiles come from a fixed-size histogram
	// (obs.Histogram), never below the exact nearest-rank value and above
	// it by less than 1/128 of it. Exact percentiles are for batch code,
	// which keeps its own samples in platform.Metrics.
	InvokeP50 simtime.Duration `json:"-"`
	InvokeP99 simtime.Duration `json:"-"`
	InvokeMax simtime.Duration `json:"-"`
	// Served is the per-machine count of completed invocations; Live the
	// per-machine live-instance gauge.
	Served []int `json:"served_per_machine"`
	Live   []int `json:"live_per_machine"`
}

// member is one machine's membership record.
type member struct {
	idx     int
	key     string // machineKey(idx), formatted once for keyed fault draws
	zone    int    // failure domain (idx % cfg.Zones); survives Restart
	node    platform.Node
	state   State
	crashed bool // down due to crash: state lost, needs Restart
	misses  int  // consecutive partition misses while Up
	epoch   int  // increments per Restart after a crash

	// Gray-failure defense state (guarded by Fleet.mu like the rest).
	ejected     bool    // soft-ejected: out of the ring, still Up
	score       float64 // EWMA dispatch latency in virtual nanoseconds
	samples     int     // scored dispatches folded into score
	cleanProbes int     // consecutive clean recovery probes while ejected
}

// repair is one planned replica restoration: ship fn's image from one
// of srcs (surviving replicas, in placement order) to dst.
type repair struct {
	fn   string
	srcs []int
	dst  int
}

// Fleet is the control plane over N platform machines.
type Fleet struct {
	cfg   Config
	build func(idx int) (platform.Node, error)
	inj   *faults.Injector
	sup   *supervise.Supervisor

	// mu guards membership, the ring, deployments and stats. Lock
	// ordering: sup's internal mutex may be held when the supervisor
	// reads the fleet clock (which takes mu), so never call into sup
	// while holding mu; machine work (boots, image ships) always runs
	// outside mu.
	mu          sync.Mutex
	members     []*member
	ring        *ring
	deployments map[string][]int
	stats       Stats

	// Gray-failure defense state (guarded by mu): the fleet-wide scored
	// sample count, the retry/hedge token bucket, and the effective
	// per-invocation latency histogram.
	samplesTotal int
	tokens       float64
	lat          obs.Histogram
	// scoreBuf is healthyMedianLocked's reusable score buffer.
	scoreBuf []float64

	// Scenario state (guarded by mu): the compiled timeline, its anchor
	// on the fleet clock, the next-step cursor, and the zones currently
	// downed/split (see zones.go).
	scenario   []faults.Step
	scenBase   simtime.Duration
	scenCursor int
	downZones  map[string]bool
	splitZones map[string]bool

	// Repair storm control (guarded by mu): the deterministic repair
	// queue, the active pump's batch occupancy, and the single-pump
	// latch (see zones.go).
	repairQ        []repair
	repairInFlight int
	repairPumping  bool
}

// New builds a fleet of cfg.Machines nodes from the build factory
// (called with the machine index once per machine, and again for each
// Restart after a crash — a factory backed by per-machine stores
// reopens machine idx's store on every call, so crashed machines come
// back with their durable state). The fleet's seeded injector is
// installed on every node so a single seed determines the whole fault
// schedule.
func New(cfg Config, build func(idx int) (platform.Node, error)) (*Fleet, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if build == nil {
		return nil, fmt.Errorf("%w: nil machine factory", ErrBadConfig)
	}
	cfg = cfg.withDefaults()
	f := &Fleet{
		cfg:         cfg,
		build:       build,
		inj:         faults.New(cfg.Seed),
		deployments: make(map[string][]int),
		downZones:   make(map[string]bool),
		splitZones:  make(map[string]bool),
	}
	for i := 0; i < cfg.Machines; i++ {
		n, err := build(i)
		if err != nil {
			for _, m := range f.members {
				m.node.Close()
			}
			return nil, fmt.Errorf("fleet: build machine %d: %w", i, err)
		}
		if n == nil {
			return nil, fmt.Errorf("%w: machine factory returned nil", ErrBadConfig)
		}
		n.InstallFaults(f.inj)
		f.members = append(f.members, &member{idx: i, key: machineKey(i), zone: i % cfg.Zones, node: n, state: StateUp})
	}
	f.rebuildRingLocked()
	f.stats.Served = make([]int, cfg.Machines)
	f.tokens = float64(cfg.BudgetBurst)
	f.sup = supervise.New(f.now, supervise.Config{})
	f.sup.Register("membership", f.probeMembership)
	f.sup.RegisterEvery("ejection", cfg.EjectProbeInterval, f.probeEjected)
	return f, nil
}

// now is the fleet clock: the max of the member clocks, so probe
// cadence follows whatever machine the traffic advanced furthest.
func (f *Fleet) now() simtime.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.nowLocked()
}

func (f *Fleet) nowLocked() simtime.Duration {
	var max simtime.Duration
	for _, m := range f.members {
		if t := m.node.Now(); t > max {
			max = t
		}
	}
	return max
}

// Now returns the fleet clock reading.
func (f *Fleet) Now() simtime.Duration { return f.now() }

// Size returns the fleet size N.
func (f *Fleet) Size() int { return len(f.members) }

// rebuildRingLocked rebuilds the placement ring over the healthy (Up,
// non-ejected) members: a soft-ejected member keeps its replicas and
// its Up state but receives no ring placements until re-admitted
// (mu held).
func (f *Fleet) rebuildRingLocked() {
	var up []int
	for _, m := range f.members {
		if m.state == StateUp && !m.ejected {
			up = append(up, m.idx)
		}
	}
	f.ring = buildRing(up, virtualNodes)
}

func (f *Fleet) upCountLocked() int {
	n := 0
	for _, m := range f.members {
		if m.state == StateUp {
			n++
		}
	}
	return n
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// Deploy registers name fleet-wide: full artifacts (image + template)
// are built on the function's ring-primary machine, and the func-image
// is shipped to R−1 further ring machines. Idempotent: a re-deploy
// re-establishes the replica set.
func (f *Fleet) Deploy(ctx context.Context, name string) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if cerr := admission.CtxErr(ctx); cerr != nil {
		return cerr
	}
	defer f.sup.Poll()
	f.tickScenario()
	f.mu.Lock()
	targets := f.fillReplicasLocked(name, nil, nil)
	f.mu.Unlock()
	if len(targets) == 0 {
		if f.zoneDegraded(name) {
			f.mu.Lock()
			f.stats.ZoneDegradedErrors++
			f.mu.Unlock()
			return fmt.Errorf("%w: deploy %s", ErrZoneDegraded, name)
		}
		if f.anyEjected() {
			return fmt.Errorf("%w: deploy %s", ErrBrownout, name)
		}
		return ErrNoSurvivors
	}
	primary := f.memberAt(targets[0])
	if _, err := primary.node.PrepareTemplate(name); err != nil {
		return err
	}
	img, err := primary.node.ExportImage(name)
	if err != nil {
		return err
	}
	for _, idx := range targets[1:] {
		rep := f.memberAt(idx)
		rep.node.Charge(simtime.Duration(img.Mem.Pages) * pullPageCost)
		if err := rep.node.ImportImage(img); err != nil {
			return err
		}
	}
	f.mu.Lock()
	f.deployments[name] = append([]int(nil), targets...)
	f.mu.Unlock()
	return nil
}

// Functions lists the deployed functions, sorted.
func (f *Fleet) Functions() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.functionsLocked()
}

func (f *Fleet) functionsLocked() []string {
	out := make([]string, 0, len(f.deployments))
	for name := range f.deployments {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Replicas returns the machine indices currently holding name's
// replicas (placement order), or nil if not deployed.
func (f *Fleet) Replicas(name string) []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	reps, ok := f.deployments[name]
	if !ok {
		return nil
	}
	return append([]int(nil), reps...)
}

func (f *Fleet) memberAt(idx int) *member {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.members[idx]
}

// placeLocked picks the machine for one request: the first Up ring
// machine (excluding already-tried ones) whose live-instance count is
// under the bounded-load cap, spilling clockwise past overloaded
// machines; when every candidate is at the cap it degrades to
// deterministic least-loaded with the lowest index winning ties. It
// reads the function's cached ring order in two passes — eligible
// count and live total for the cap, then the pick — so a placement
// allocates nothing (mu held).
func (f *Fleet) placeLocked(name string, exclude []int) (int, bool) {
	order := f.ring.walk(name)
	eligible, total := 0, 0
	for _, idx := range order {
		if f.placeableLocked(idx, exclude) {
			eligible++
			total += f.members[idx].node.LiveInstances()
		}
	}
	if eligible == 0 {
		return -1, false
	}
	capacity := int(math.Ceil(f.cfg.LoadFactor * float64(total+1) / float64(eligible)))
	i := 0
	for _, idx := range order {
		if !f.placeableLocked(idx, exclude) {
			continue
		}
		if f.members[idx].node.LiveInstances() < capacity {
			if i > 0 {
				f.stats.Spills++
			}
			return idx, true
		}
		i++
	}
	// Defensive: every candidate is at the cap. Degrade to deterministic
	// least-loaded.
	f.stats.Spills++
	return f.leastLoadedLocked(order, exclude), true
}

// placeableLocked reports whether machine idx may take a placement: Up
// and not in exclude (mu held).
func (f *Fleet) placeableLocked(idx int, exclude []int) bool {
	return f.members[idx].state == StateUp && !contains(exclude, idx)
}

// leastLoadedLocked picks the placeable candidate (see placeableLocked)
// with the fewest live instances, or -1 when none is; equal-load
// machines tie-break to the lowest index so same-seed fleet runs are
// byte-identical (mu held).
func (f *Fleet) leastLoadedLocked(cands, exclude []int) int {
	best, bestLive := -1, 0
	for _, idx := range cands {
		if !f.placeableLocked(idx, exclude) {
			continue
		}
		if l := f.members[idx].node.LiveInstances(); best < 0 || l < bestLive || (l == bestLive && idx < best) {
			best, bestLive = idx, l
		}
	}
	return best
}

// Place reports which machine would serve name's next request (tests
// and placement introspection; no fault draws, no machine work).
func (f *Fleet) Place(name string) (int, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.placeLocked(name, nil)
}

// Prepare places name's next request like Place and makes sure the
// placed machine can boot it with sys (remote fork, first template
// build), returning the machine's index. It draws no machine faults and
// never fails over: the caller runs the machine work itself (kept
// instances, burst simulations).
func (f *Fleet) Prepare(name string, sys platform.System) (int, error) {
	f.mu.Lock()
	if _, deployed := f.deployments[name]; !deployed {
		f.mu.Unlock()
		return -1, fmt.Errorf("%w: %q", ErrNotDeployed, name)
	}
	idx, ok := f.placeLocked(name, nil)
	f.mu.Unlock()
	if !ok {
		return -1, fmt.Errorf("%w for %s", ErrNoSurvivors, name)
	}
	if err := f.ensureArtifacts(f.memberAt(idx), name, sys); err != nil {
		return -1, err
	}
	return idx, nil
}

// Invoke serves one request on the fleet: place on the ring, draw the
// machine fault sites at dispatch, remote-fork any missing artifacts
// onto the chosen machine, and run the invocation through the member's
// recovery chain. Machine-level failures (crash, partition, flaky)
// replay the invocation on the next survivor behind the adaptive
// per-attempt timeout, spending from the retry/hedge budget; a slow
// primary races a hedged second attempt (see gray.go); and when every
// healthy machine is exhausted the fleet serves browned-out from
// soft-ejected members before giving up. Function-level failures
// surface as the platform's typed errors. It returns the result and
// the index of the machine that served.
func (f *Fleet) Invoke(ctx context.Context, name string, sys platform.System) (*platform.Result, int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	f.mu.Lock()
	_, deployed := f.deployments[name]
	f.earnBudgetLocked()
	f.mu.Unlock()
	if !deployed {
		return nil, -1, fmt.Errorf("%w: %q", ErrNotDeployed, name)
	}
	defer f.sup.Poll()
	f.tickScenario()
	// tried holds the machines that failed this invocation; a few
	// failovers fit the stack array.
	var triedBuf [4]int
	tried := triedBuf[:0]
	var lastErr error
	for failovers := 0; ; failovers++ {
		if cerr := admission.CtxErr(ctx); cerr != nil {
			return nil, -1, cerr
		}
		f.mu.Lock()
		idx, brownout, ok := f.placeForInvokeLocked(name, tried)
		f.mu.Unlock()
		if !ok {
			base := ErrNoSurvivors
			switch {
			case f.zoneDegraded(name):
				base = ErrZoneDegraded
				f.mu.Lock()
				f.stats.ZoneDegradedErrors++
				f.mu.Unlock()
			case f.anyEjected():
				base = ErrBrownout
			}
			if lastErr != nil {
				return nil, -1, fmt.Errorf("%w for %s after %d failovers: %w", base, name, failovers, lastErr)
			}
			return nil, -1, fmt.Errorf("%w for %s", base, name)
		}
		m := f.memberAt(idx)
		if failovers > 0 {
			// A replay spends a budget token; a dry bucket surfaces the
			// typed exhaustion rather than silently retrying forever.
			if !f.takeBudget() {
				return nil, -1, fmt.Errorf("%w: %s after %d failovers: %w", ErrBudgetExhausted, name, failovers, lastErr)
			}
			f.mu.Lock()
			f.stats.Retries++
			f.mu.Unlock()
			// The adaptive per-attempt timeout is what the dispatcher
			// waited before abandoning the previous machine; charge it to
			// the one about to serve.
			m.node.Charge(f.attemptTimeout(failovers))
		}
		res, lat, err, machineLevel := f.runAttempt(ctx, m, name, sys)
		if err != nil {
			if !machineLevel {
				// Function-level failure on a healthy machine: the
				// member's own recovery chain already degraded/retried,
				// so surface its typed error rather than hammering the
				// other replicas.
				return nil, idx, err
			}
			lastErr = err
			tried = append(tried, idx)
			f.mu.Lock()
			f.stats.Failovers++
			f.mu.Unlock()
			continue
		}
		winner, effective := idx, lat
		if !brownout {
			winner, res, effective = f.maybeHedge(ctx, name, sys, m, res, lat, tried)
		}
		f.mu.Lock()
		f.stats.Served[winner]++
		if failovers > 0 {
			f.stats.Replays++
		}
		if brownout {
			f.stats.BrownoutServes++
		}
		f.lat.Observe(effective)
		f.mu.Unlock()
		return res, winner, nil
	}
}

// dispatchFaults draws the machine fault sites for one dispatch to m.
func (f *Fleet) dispatchFaults(m *member) error {
	f.mu.Lock()
	down := m.state == StateDown
	f.mu.Unlock()
	if down {
		return fmt.Errorf("%w: machine %d", ErrMachineDown, m.idx)
	}
	// The scenario sites are keyed per machine and armed at rate 1 by
	// timeline steps (no RNG consumed), so a dispatch racing the step
	// application sees the outage too.
	if ferr := f.inj.CheckKeyed(faults.SiteZoneDown, m.key); ferr != nil {
		f.mu.Lock()
		f.stats.ZoneDownDispatches++
		f.mu.Unlock()
		f.markDown(m, false)
		return fmt.Errorf("%w: machine %d: %w", ErrMachineDown, m.idx, ferr)
	}
	if ferr := f.inj.CheckKeyed(faults.SitePartitionSplit, m.key); ferr != nil {
		f.mu.Lock()
		f.stats.SplitDispatches++
		f.mu.Unlock()
		f.noteMiss(m)
		return fmt.Errorf("%w: machine %d: %w", ErrUnreachable, m.idx, ferr)
	}
	if ferr := f.inj.Check(faults.SiteMachineCrash); ferr != nil {
		f.markDown(m, true)
		return fmt.Errorf("%w: machine %d: %w", ErrMachineDown, m.idx, ferr)
	}
	if ferr := f.inj.Check(faults.SiteMachinePartition); ferr != nil {
		f.mu.Lock()
		f.stats.UnreachableDispatches++
		f.mu.Unlock()
		f.noteMiss(m)
		return fmt.Errorf("%w: machine %d: %w", ErrUnreachable, m.idx, ferr)
	}
	if ferr := f.inj.Check(faults.SiteMachineSlow); ferr != nil {
		m.node.Charge(slowPenalty)
		f.mu.Lock()
		f.stats.SlowDispatches++
		f.mu.Unlock()
	}
	// The gray sites are drawn with the machine's key so a single sick
	// member can be armed without perturbing the others' schedules.
	if ferr := f.inj.CheckKeyed(faults.SiteMachineGraySlow, m.key); ferr != nil {
		m.node.Charge(f.cfg.GraySlowPenalty)
		f.mu.Lock()
		f.stats.GrayDispatches++
		f.mu.Unlock()
	}
	if ferr := f.inj.CheckKeyed(faults.SiteMachineFlaky, m.key); ferr != nil {
		f.mu.Lock()
		f.stats.FlakyDispatches++
		f.mu.Unlock()
		return fmt.Errorf("%w: machine %d: %w", ErrFlaky, m.idx, ferr)
	}
	return nil
}

// noteMiss records one partition miss against m; probeMisses
// consecutive misses mark it down (state intact).
func (f *Fleet) noteMiss(m *member) {
	f.mu.Lock()
	if m.state != StateUp {
		f.mu.Unlock()
		return
	}
	m.misses++
	trip := m.misses >= probeMisses
	f.mu.Unlock()
	if trip {
		f.markDown(m, false)
	}
}

// markDown transitions m to StateDown, rebuilds the ring, and restores
// the replication factor of every function that held a replica on m.
// A crash while already partitioned upgrades to crashed (state lost).
func (f *Fleet) markDown(m *member, crashed bool) {
	f.markDownBatch([]*member{m}, crashed)
}

// markDownBatch downs several members in one transition — a zone
// outage kills its machines together — producing a single merged
// repair plan so replica slots are never double-assigned across the
// individual losses. Already-down members are skipped (a crash while
// already partitioned still upgrades to crashed, state lost).
func (f *Fleet) markDownBatch(ms []*member, crashed bool) {
	f.mu.Lock()
	var downed []int
	for _, m := range ms {
		if m.state == StateDown {
			if crashed && !m.crashed {
				m.crashed = true
			}
			continue
		}
		m.state = StateDown
		m.crashed = crashed
		m.misses = 0
		// A hard down-transition supersedes a soft ejection: the member
		// is out of the ring either way, and rejoin re-evaluates from
		// scratch.
		m.ejected = false
		m.cleanProbes = 0
		if crashed {
			f.stats.Crashes++
		} else {
			f.stats.Partitions++
		}
		downed = append(downed, m.idx)
	}
	if len(downed) == 0 {
		f.mu.Unlock()
		return
	}
	f.rebuildRingLocked()
	f.enqueueRepairsLocked(f.planRepairsLocked(downed))
	f.mu.Unlock()
	f.pumpRepairs()
}

// planRepairsLocked removes every machine in downIdxs from every
// replica set and plans the image ships that restore each function's
// replication factor — one merged plan per batch, so two machines lost
// in the same transition never race for the same replica slot
// (mu held). Deployments are visited in sorted order and replacements
// picked zone-aware (see pickReplicaLocked), so same-seed runs repair
// identically.
func (f *Fleet) planRepairsLocked(downIdxs []int) []repair {
	var plan []repair
	for _, name := range f.functionsLocked() {
		reps := f.deployments[name]
		keep := make([]int, 0, len(reps))
		for _, r := range reps {
			if !contains(downIdxs, r) {
				keep = append(keep, r)
			}
		}
		if len(keep) == len(reps) {
			continue
		}
		if len(keep) == 0 {
			f.stats.ReplicasLost++
		}
		f.deployments[name] = f.fillReplicasLocked(name, keep, &plan)
	}
	return plan
}

// ensureArtifacts makes sure m can boot name with sys: a machine
// missing the func-image performs a remote fork, and fork boot builds
// the local template when none was ever built on m (off the request's
// measured boot latency, like any artifact preparation). A template the
// machine dropped is left to its own recovery: the boot degrades
// through the fallback chain until the machine's queued regen rebuilds
// it.
func (f *Fleet) ensureArtifacts(m *member, name string, sys platform.System) error {
	switch sys {
	case platform.CatalyzerRestore, platform.CatalyzerZygote, platform.CatalyzerSfork,
		platform.GVisorRestore, platform.Replayable:
		if !m.node.HasImage(name) {
			if err := f.remoteFork(m, name); err != nil {
				return err
			}
		}
	default:
		// Baselines boot from scratch; they only need registration.
		if _, err := m.node.Register(name); err != nil {
			return err
		}
	}
	if sys == platform.CatalyzerSfork && m.node.NeedsTemplate(name) {
		if _, err := m.node.PrepareTemplate(name); err != nil {
			return err
		}
	}
	return nil
}

// remoteFork materializes name's func-image on m from a peer: fork
// from a peer's live template when one exists (cheapest), else pull
// the image from a peer that has it (replicas first), degrading to a
// local cold build when no peer can serve.
func (f *Fleet) remoteFork(m *member, name string) error {
	f.mu.Lock()
	order := make([]int, 0, len(f.members))
	for _, idx := range f.deployments[name] {
		if idx != m.idx && f.members[idx].state == StateUp {
			order = append(order, idx)
		}
	}
	for _, p := range f.members {
		if p.idx != m.idx && p.state == StateUp && !contains(order, p.idx) {
			order = append(order, p.idx)
		}
	}
	f.mu.Unlock()
	var src *member
	fromTemplate := false
	for _, idx := range order {
		if p := f.memberAt(idx); p.node.HasTemplate(name) {
			src, fromTemplate = p, true
			break
		}
	}
	if src == nil {
		for _, idx := range order {
			if p := f.memberAt(idx); p.node.HasImage(name) {
				src = p
				break
			}
		}
	}
	if src == nil {
		if _, err := m.node.PrepareImage(name); err != nil {
			return err
		}
		f.mu.Lock()
		f.stats.LocalBuilds++
		f.mu.Unlock()
		return nil
	}
	img, err := src.node.ExportImage(name)
	if err != nil {
		return err
	}
	cost := pullPageCost
	if fromTemplate {
		cost = templateForkPageCost
	}
	m.node.Charge(simtime.Duration(img.Mem.Pages) * cost)
	if err := m.node.ImportImage(img); err != nil {
		return err
	}
	f.mu.Lock()
	if fromTemplate {
		f.stats.TemplateForks++
	} else {
		f.stats.ImagePulls++
	}
	f.mu.Unlock()
	return nil
}

// probeMembership is the fleet's supervise probe group: each round it
// draws the crash/partition sites against every Up member (a firing
// crash downs the member immediately; consecutive partition misses
// down it with state intact) and probes partitioned Down members for
// healing, re-admitting them on the first clean probe. Crashed members
// are not probed — they stay down until Restart.
func (f *Fleet) probeMembership() (checked, evicted int) {
	f.tickScenario()
	f.mu.Lock()
	f.stats.MembershipProbes++
	members := append([]*member(nil), f.members...)
	f.mu.Unlock()
	for _, m := range members {
		f.mu.Lock()
		state, crashed := m.state, m.crashed
		f.mu.Unlock()
		switch {
		case state == StateUp:
			checked++
			// Scenario outages first: a downed zone takes the member out
			// immediately (state intact); a split accrues misses like a
			// transient partition. Both keyed, rate 1, no RNG drawn.
			if ferr := f.inj.CheckKeyed(faults.SiteZoneDown, m.key); ferr != nil {
				f.markDown(m, false)
				evicted++
				continue
			}
			if ferr := f.inj.CheckKeyed(faults.SitePartitionSplit, m.key); ferr != nil {
				f.noteMiss(m)
				f.mu.Lock()
				down := m.state == StateDown
				f.mu.Unlock()
				if down {
					evicted++
				}
				continue
			}
			if ferr := f.inj.Check(faults.SiteMachineCrash); ferr != nil {
				f.markDown(m, true)
				evicted++
				continue
			}
			if ferr := f.inj.Check(faults.SiteMachinePartition); ferr != nil {
				f.noteMiss(m)
				f.mu.Lock()
				down := m.state == StateDown
				f.mu.Unlock()
				if down {
					evicted++
				}
			} else {
				f.mu.Lock()
				m.misses = 0
				f.mu.Unlock()
			}
		case !crashed:
			checked++
			// A member inside a still-downed zone or active split must
			// not rejoin on a clean transient-partition draw: its outage
			// site stays armed until the scenario heals.
			if f.inj.CheckKeyed(faults.SiteZoneDown, m.key) != nil ||
				f.inj.CheckKeyed(faults.SitePartitionSplit, m.key) != nil {
				continue
			}
			if f.inj.Check(faults.SiteMachinePartition) == nil {
				f.rejoin(m)
			}
		}
	}
	f.pumpRepairs()
	return checked, evicted
}

// rejoin re-admits a Down member: Up state, ring rebuild, placements
// flow back via consistent hashing, and replica sets that ran degraded
// while the fleet was below R machines are topped back up toward R
// (anti-entropy: a healed partition re-enters its old sets for free, a
// restarted crash gets images re-shipped, and remote forks cover any
// placement outside a replica set).
func (f *Fleet) rejoin(m *member) {
	f.mu.Lock()
	if m.state == StateUp {
		f.mu.Unlock()
		return
	}
	m.state = StateUp
	m.crashed = false
	m.misses = 0
	f.stats.Rejoins++
	f.rebuildRingLocked()
	f.enqueueRepairsLocked(f.planTopUpLocked())
	f.mu.Unlock()
	f.pumpRepairs()
}

// planTopUpLocked refills under-replicated deployments after a member
// rejoins: while the fleet ran below R machines, repairs could only
// restore min(R, up) replicas, so every re-admission tops replica sets
// back up toward R — and, with zones configured, migrates replicas
// that were forced to double up inside a surviving zone back onto
// distinct zones (mu held; sorted names so same-seed runs repair
// identically).
func (f *Fleet) planTopUpLocked() []repair {
	var plan []repair
	for _, name := range f.functionsLocked() {
		keep := f.fillReplicasLocked(name, append([]int(nil), f.deployments[name]...), &plan)
		if f.cfg.Zones > 1 {
			keep = f.rebalanceZonesLocked(name, keep, &plan)
		}
		f.deployments[name] = keep
	}
	return plan
}

// Kill forcibly crashes machine idx (chaos hook): the member goes down
// with state lost, its functions re-place and re-replicate, and only
// Restart brings it back.
func (f *Fleet) Kill(idx int) error {
	m, err := f.checkedMember(idx)
	if err != nil {
		return err
	}
	f.markDown(m, true)
	return nil
}

// Restart re-admits machine idx: a crashed member gets a fresh empty
// machine from the factory (epoch bumped); a partitioned member rejoins
// with its state intact. No-op if already Up.
func (f *Fleet) Restart(idx int) error {
	m, err := f.checkedMember(idx)
	if err != nil {
		return err
	}
	f.mu.Lock()
	down, crashed := m.state == StateDown, m.crashed
	f.mu.Unlock()
	if !down {
		return nil
	}
	if crashed {
		n, err := f.build(m.idx)
		if err != nil {
			return fmt.Errorf("fleet: rebuild machine %d: %w", m.idx, err)
		}
		if n == nil {
			return fmt.Errorf("%w: machine factory returned nil", ErrBadConfig)
		}
		n.InstallFaults(f.inj)
		f.mu.Lock()
		m.node.Close()
		m.node = n
		m.epoch++
		// A fresh machine starts with a fresh score: the crashed
		// predecessor's latency history says nothing about it.
		m.score = 0
		m.samples = 0
		m.cleanProbes = 0
		f.mu.Unlock()
	}
	f.rejoin(m)
	return nil
}

func (f *Fleet) checkedMember(idx int) (*member, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if idx < 0 || idx >= len(f.members) {
		return nil, fmt.Errorf("%w: no machine %d in a fleet of %d", ErrBadConfig, idx, len(f.members))
	}
	return f.members[idx], nil
}

// MemberInfo is one machine's membership snapshot.
type MemberInfo struct {
	Index   int
	Zone    string
	State   State
	Crashed bool
	Epoch   int
	Live    int
	Clock   simtime.Duration
	// Ejected reports a soft-ejected (Up but drained) member; Score is
	// its EWMA dispatch latency over Samples scored dispatches.
	Ejected bool
	Score   simtime.Duration
	Samples int
}

// Members snapshots the membership view.
func (f *Fleet) Members() []MemberInfo {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]MemberInfo, len(f.members))
	for i, m := range f.members {
		out[i] = MemberInfo{
			Index:   m.idx,
			Zone:    zoneName(m.zone),
			State:   m.state,
			Crashed: m.crashed,
			Epoch:   m.epoch,
			Live:    m.node.LiveInstances(),
			Clock:   m.node.Now(),
			Ejected: m.ejected,
			Score:   simtime.Duration(m.score),
			Samples: m.samples,
		}
	}
	return out
}

// ArmFault arms a fault site on the fleet's shared injector (machine
// sites are drawn by the fleet; every other site by the member
// platforms, which share the injector).
func (f *Fleet) ArmFault(site faults.Site, rate float64) {
	f.inj.Arm(site, rate)
}

// DisarmFaults disarms every site; counts are retained.
func (f *Fleet) DisarmFaults() { f.inj.DisarmAll() }

// FaultCounts reports per-site injection totals.
func (f *Fleet) FaultCounts() map[faults.Site]faults.SiteCount { return f.inj.Counts() }

// PollSupervise runs due membership probes (tests; Invoke and Deploy
// poll on the way out already).
func (f *Fleet) PollSupervise() { f.sup.Poll() }

// Stats returns a snapshot of the fleet's accounting.
func (f *Fleet) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := f.stats
	out.Served = append([]int(nil), f.stats.Served...)
	out.Machines = len(f.members)
	out.Deployed = len(f.deployments)
	out.Zones = f.cfg.Zones
	outage := make(map[string]bool, len(f.downZones)+len(f.splitZones))
	for z := range f.downZones {
		outage[z] = true
	}
	for z := range f.splitZones {
		outage[z] = true
	}
	out.ZonesDown = len(outage)
	out.RepairQueueDepth = len(f.repairQ)
	out.Live = make([]int, len(f.members))
	for i, m := range f.members {
		out.Live[i] = m.node.LiveInstances()
		if m.state == StateUp {
			out.Up++
			if m.ejected {
				out.EjectedMachines++
			}
		} else {
			out.Down++
		}
	}
	out.InvokeP50 = f.lat.Percentile(50)
	out.InvokeP99 = f.lat.Percentile(99)
	out.InvokeMax = f.lat.Max()
	return out
}

// Close shuts the fleet down: membership probes stop, then every member
// machine closes (templates retired, mappings closed, supervision
// drained).
func (f *Fleet) Close() {
	f.sup.Close()
	f.mu.Lock()
	members := append([]*member(nil), f.members...)
	f.mu.Unlock()
	for _, m := range members {
		m.node.Close()
	}
}
