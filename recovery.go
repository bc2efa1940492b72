package catalyzer

import (
	"errors"

	"catalyzer/internal/admission"
	"catalyzer/internal/faults"
	"catalyzer/internal/image"
	"catalyzer/internal/platform"
	"catalyzer/internal/sandbox"
	"catalyzer/internal/supervise"
	"catalyzer/internal/workload"
)

// Typed errors, re-exported so callers branch with errors.Is/As instead
// of matching message text.
var (
	// ErrNotRegistered: the function is unknown (never deployed).
	ErrNotRegistered = platform.ErrNotRegistered
	// ErrNoImage: the boot strategy needs a func-image that has not been
	// prepared.
	ErrNoImage = platform.ErrNoImage
	// ErrNoTemplate: fork boot needs a template sandbox that has not been
	// prepared.
	ErrNoTemplate = platform.ErrNoTemplate
	// ErrUnknownSystem: the requested boot strategy does not exist.
	ErrUnknownSystem = platform.ErrUnknownSystem
	// ErrAlreadyRegistered: DeployCustom hit a name collision.
	ErrAlreadyRegistered = workload.ErrAlreadyRegistered
	// ErrCorruptImage: a stored func-image failed verification (it is
	// quarantined and rebuilt automatically; the sentinel surfaces in
	// wrapped causes).
	ErrCorruptImage = image.ErrCorrupt

	// ErrOverloaded: the request was shed — the admission concurrency
	// caps and queue (WithAdmission) are full, or the drain deadline
	// expired with the request still queued.
	ErrOverloaded = admission.ErrOverloaded
	// ErrDraining: the fleet is draining and admits nothing new.
	ErrDraining = admission.ErrDraining
	// ErrDeadlineExceeded: the request's context deadline expired —
	// before admission, while queued, or mid-boot between fallback
	// stages. errors.Is also matches context.DeadlineExceeded.
	ErrDeadlineExceeded = admission.ErrDeadlineExceeded
	// ErrCanceled: the request's context was canceled.
	ErrCanceled = admission.ErrCanceled
	// ErrOutOfMemory: a boot did not fit the memory budget even after
	// reclaim (keep-warm eviction, idle-template retirement).
	ErrOutOfMemory = sandbox.ErrOutOfMemory

	// ErrWedged: the instance stopped responding after boot (a liveness
	// probe or an execution found it wedged); the supervisor reaped it.
	ErrWedged = sandbox.ErrWedged
	// ErrPoisoned: the instance inherited latently bad state from its
	// sfork template. Every child of a poisoned template surfaces it
	// until correlated failures across the template's children raise
	// the poisoning verdict: the template is quarantined, fork boots
	// degrade through the fallback chain, and the rebuild runs at the
	// machine's next supervision Poll.
	ErrPoisoned = sandbox.ErrPoisoned
	// ErrInvocationHung: the execution never returned and the watchdog
	// killed the instance after its kill budget (WatchdogMultiple × the
	// expected execution cost) of virtual time. The admission slot is
	// released.
	ErrInvocationHung = platform.ErrInvocationHung
	// ErrCrashLooping: the function failed too often inside the sliding
	// crash-loop window and is parked with exponential backoff; boots are
	// refused until the park expires.
	ErrCrashLooping = supervise.ErrCrashLooping

	// ErrUnknownFaultSite: ArmFault was given a site name not in
	// FaultSites.
	ErrUnknownFaultSite = errors.New("catalyzer: unknown fault site")
)

// BootError is the typed error Invoke returns when a whole fallback
// chain is exhausted; errors.As(err, &be) recovers the per-stage
// attempts.
type BootError = platform.BootError

// RecoveryConfig tunes each machine's failure-recovery machinery; see
// DefaultRecoveryConfig for the defaults.
type RecoveryConfig = platform.RecoveryConfig

// DefaultRecoveryConfig returns the recovery defaults: one retry with
// 200µs base backoff, breakers opening after 3 consecutive failures with
// a 50ms virtual-time cooldown, template quarantine after 3 consecutive
// sfork failures.
func DefaultRecoveryConfig() RecoveryConfig { return platform.DefaultRecoveryConfig() }

// FaultSites lists the fault-injection site names accepted by ArmFault:
// the boot-pipeline sites (image-load, image-decode, base-ept-map,
// metadata-fixup, io-reconnect, sfork, zygote-take), the post-boot
// runtime sites (sandbox-wedge, invoke-hang, template-poison,
// probe-false-negative), and the image store's durability crash points
// (store-write, store-rename, journal-append, manifest-compact), which
// simulate a kill at each point a Save could be interrupted, and the
// machine-granularity fleet sites (machine-crash, machine-partition,
// machine-slow, machine-gray-slow, machine-flaky, hedge-loser-lingers),
// drawn by the fleet's control plane at every dispatch, whatever the
// fleet's size. The gray sites are usually armed on a single member via
// Fleet.ArmMachineFault. The fleet-durability sites
// (restart-torn-store, recover-stale-replica, import-write) cover the
// whole-fleet cold-restart path and durable replica pulls:
// restart-torn-store discards one machine's store at Fleet.Recover,
// recover-stale-replica fails one replica's restoration, and
// import-write kills a replica pull before its store save — all three
// are usually armed per machine via ArmMachineFault.
func FaultSites() []string {
	sites := faults.Sites()
	out := make([]string, len(sites))
	for i, s := range sites {
		out[i] = string(s)
	}
	return out
}

// WithFaultSeed seeds the fleet's fault injector, the single schedule
// that drives machine sites and every machine's boot sites alike. The
// seed fully determines the fault schedule: two fleets with the same
// seed, the same armings, and the same call sequence see identical
// failures. Without this option the injector is seeded with 0.
func WithFaultSeed(seed int64) Option {
	return func(c *config) {
		s := seed
		c.faultSeed = &s
	}
}

// FaultCount reports one injection site's draw/injection totals.
type FaultCount = faults.SiteCount

// FailureStats is everything the failure machinery did on behalf of
// traffic: raw stage failures, fallbacks, retries and their virtual-time
// backoff, circuit-breaker activity, quarantines, and injected-fault
// accounting. BootFailures and Fallbacks are keyed by system name,
// Breakers by "function/system", Faults by site name.
type FailureStats = platform.FailureStats

// SuperviseConfig tunes each machine's runtime supervision layer: the
// virtual-time liveness-probe cadence over keep-warm instances,
// template sandboxes and pooled Zygotes; the hung-invocation watchdog
// multiple; the sfork lineage poisoning verdict threshold; and
// crash-loop parking. See DefaultSuperviseConfig for the defaults.
type SuperviseConfig = supervise.Config

// DefaultSuperviseConfig returns the supervision defaults: 100ms probe
// cadence, watchdog kill at 8× the expected execution cost, poisoning
// verdict at 3 distinct failed children, crash-loop parking at 5
// failures inside a 1s window with 100ms..10s exponential backoff.
func DefaultSuperviseConfig() SuperviseConfig { return supervise.DefaultConfig() }

// SuperviseStats is a snapshot of runtime supervision accounting.
type SuperviseStats = supervise.Stats
