package platform

import (
	"context"
	"fmt"
	"sync"

	"catalyzer/internal/admission"
	"catalyzer/internal/faults"
	"catalyzer/internal/simtime"
)

// RecoveryConfig tunes the platform's failure-recovery machinery: the
// per-stage retry budget with virtual-time backoff, the per-function ×
// per-stage circuit breakers, and template quarantine.
type RecoveryConfig struct {
	// MaxRetries is how many times a failed stage is retried (after its
	// first attempt) before falling to the next stage.
	MaxRetries int
	// BackoffBase is the virtual-time backoff charged before the first
	// retry; each further retry doubles it.
	BackoffBase simtime.Duration
	// BreakerThreshold is the consecutive-failure count that opens a
	// stage's circuit breaker.
	BreakerThreshold int
	// BreakerCooldown is the virtual time an open breaker waits before
	// half-opening to admit a probe.
	BreakerCooldown simtime.Duration
	// QuarantineThreshold is the consecutive sfork-failure count after
	// which a function's template is quarantined and rebuilt.
	QuarantineThreshold int
}

// DefaultRecoveryConfig returns the platform defaults: one retry with a
// 200µs base backoff, breakers opening after 3 consecutive failures and
// cooling down for 50ms of virtual time, and template quarantine after 3
// consecutive sfork failures.
func DefaultRecoveryConfig() RecoveryConfig {
	return RecoveryConfig{
		MaxRetries:          1,
		BackoffBase:         200 * simtime.Microsecond,
		BreakerThreshold:    3,
		BreakerCooldown:     50 * simtime.Millisecond,
		QuarantineThreshold: 3,
	}
}

// FailureStats is the recovery section of the platform's accounting:
// everything the failure machinery did on behalf of traffic. It is
// re-exported as catalyzer.FailureStats, and the daemon encodes it as
// the "failures" section of /metrics; the json tags are the wire names.
type FailureStats struct {
	// BootFailures counts raw stage failures, by stage.
	BootFailures map[System]int `json:"boot_failures"`
	// Fallbacks counts boots served by a stage other than the one
	// requested, keyed by the stage that served.
	Fallbacks map[System]int `json:"fallbacks"`
	// Retries counts same-stage retry attempts.
	Retries int `json:"retries"`
	// BackoffTotal is the virtual time spent backing off before retries
	// (reported on the wire as backoff_total_ms).
	BackoffTotal simtime.Duration `json:"-"`
	// BreakerTrips counts breaker open transitions; BreakerSkips counts
	// chain stages skipped because their breaker was open.
	BreakerTrips int `json:"breaker_trips"`
	BreakerSkips int `json:"breaker_skips"`
	// TemplatesQuarantined counts template quarantine-and-rebuild
	// events; TemplateRebuildFailures counts rebuilds that themselves
	// failed (leaving the function without a template).
	TemplatesQuarantined    int `json:"templates_quarantined"`
	TemplateRebuildFailures int `json:"template_rebuild_failures"`
	// WatchdogKills counts hung invocations the supervisor's watchdog
	// killed and reaped.
	WatchdogKills int `json:"watchdog_kills"`
	// TemplatesPoisoned counts poisoning verdicts: templates convicted by
	// correlated failures of their sforked children (each also counts in
	// TemplatesQuarantined). TemplateRegens / TemplateRegenFailures count
	// the template rebuilds the supervisor's Poll runs after a poisoning
	// verdict or a wedged-template eviction.
	TemplatesPoisoned     int `json:"templates_poisoned"`
	TemplateRegens        int `json:"template_regens"`
	TemplateRegenFailures int `json:"template_regen_failures"`
	// ImagesQuarantined counts corrupt stored func-images moved aside;
	// ImageLoadFaults counts store fetches that failed without evidence
	// of corruption (rebuilt, not quarantined).
	ImagesQuarantined int `json:"images_quarantined"`
	ImageLoadFaults   int `json:"image_load_faults"`
	// Rollbacks counts corrupt active generations served from the
	// last-known-good generation instead (rebuild off the critical
	// path). ImageRebuilds / ImageRebuildFailures count those
	// off-critical-path rebuilds; ImageSaveFailures counts store
	// persists that failed (the in-memory image kept serving).
	Rollbacks            int `json:"rollbacks"`
	ImageRebuilds        int `json:"image_rebuilds"`
	ImageRebuildFailures int `json:"image_rebuild_failures"`
	ImageSaveFailures    int `json:"image_save_failures"`
	// Durability counters merged from the image store's startup scrub:
	// temp/stale files swept, divergences healed without data loss, and
	// artifacts quarantined as corrupt. Zero without a store.
	OrphansSwept     int `json:"orphans_swept"`
	ScrubRepaired    int `json:"scrub_repaired"`
	ScrubQuarantined int `json:"scrub_quarantined"`
	// Exhausted counts invocations whose whole fallback chain failed.
	Exhausted int `json:"exhausted"`
	// Aborted counts invocations whose fallback chain was cut short by
	// the caller's context (deadline or cancellation) mid-chain.
	Aborted int `json:"aborted"`
	// MemoryReclaims counts boots that relieved memory pressure by
	// reclaiming instead of failing; KeepWarmEvictions and
	// TemplatesRetired break down what was freed (keep-warm instances
	// evicted, idle templates retired LRU-first).
	MemoryReclaims    int `json:"memory_reclaims"`
	KeepWarmEvictions int `json:"keep_warm_evictions"`
	TemplatesRetired  int `json:"templates_retired"`
	// Breakers reports every instantiated circuit breaker's state
	// ("closed", "open", "half-open"), keyed "function/system".
	Breakers map[string]string `json:"breakers"`
	// Faults reports per-site injection totals.
	Faults map[faults.Site]faults.SiteCount `json:"injected_faults,omitempty"`
}

func newFailureStats() FailureStats {
	return FailureStats{
		BootFailures: make(map[System]int),
		Fallbacks:    make(map[System]int),
	}
}

// clone deep-copies the stats for surfacing.
func (s FailureStats) clone() FailureStats {
	out := s
	out.BootFailures = make(map[System]int, len(s.BootFailures))
	for k, v := range s.BootFailures {
		out.BootFailures[k] = v
	}
	out.Fallbacks = make(map[System]int, len(s.Fallbacks))
	for k, v := range s.Fallbacks {
		out.Fallbacks[k] = v
	}
	return out
}

// brKey identifies one circuit breaker: a function × boot-stage pair.
type brKey struct {
	fn  string
	sys System
}

// recovery is the platform's failure-recovery state, guarded by its own
// mutex so breaker checks and failure accounting never contend with (or
// deadlock against) the machine lock. Lock ordering: the machine lock
// may be taken before mu (stats from boot paths), but mu must NEVER be
// held while acquiring the machine lock — breakers read virtual time
// through the atomic clock, so they never need it.
type recovery struct {
	mu         sync.Mutex
	cfg        RecoveryConfig
	breakers   map[brKey]*faults.Breaker
	sforkFails map[string]int // consecutive sfork failures per function
	stats      FailureStats
}

func newRecovery() *recovery {
	return &recovery{
		cfg:        DefaultRecoveryConfig(),
		breakers:   make(map[brKey]*faults.Breaker),
		sforkFails: make(map[string]int),
		stats:      newFailureStats(),
	}
}

// addStats applies a mutation to the failure accounting under mu.
func (r *recovery) addStats(f func(*FailureStats)) {
	r.mu.Lock()
	f(&r.stats)
	r.mu.Unlock()
}

// breaker returns (lazily creating) the breaker guarding fn × sys
// (r.mu held).
func (r *recovery) breaker(m interface{ Now() simtime.Duration }, fn string, sys System) *faults.Breaker {
	k := brKey{fn, sys}
	b, ok := r.breakers[k]
	if !ok {
		b = faults.NewBreaker(r.cfg.BreakerThreshold, r.cfg.BreakerCooldown, m.Now)
		r.breakers[k] = b
	}
	return b
}

// SetRecoveryConfig replaces the recovery tuning. Existing breakers are
// dropped (they would carry stale thresholds).
func (p *Platform) SetRecoveryConfig(cfg RecoveryConfig) {
	if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	}
	if cfg.BreakerThreshold < 1 {
		cfg.BreakerThreshold = 1
	}
	if cfg.QuarantineThreshold < 1 {
		cfg.QuarantineThreshold = 1
	}
	p.rec.mu.Lock()
	defer p.rec.mu.Unlock()
	p.rec.cfg = cfg
	p.rec.breakers = make(map[brKey]*faults.Breaker)
}

// RecoveryConfig returns the active recovery tuning.
func (p *Platform) RecoveryConfig() RecoveryConfig {
	p.rec.mu.Lock()
	defer p.rec.mu.Unlock()
	return p.rec.cfg
}

// FailureStats returns a copy of the recovery accounting, with the
// breaker states, the injector's per-site counts and the image store's
// durability counters folded in.
func (p *Platform) FailureStats() FailureStats {
	p.rec.mu.Lock()
	out := p.rec.stats.clone()
	p.rec.mu.Unlock()
	out.Breakers = p.BreakerStates()
	out.Faults = p.FaultCounts()
	if p.store != nil {
		st := p.store.Stats()
		out.OrphansSwept = st.OrphansSwept
		out.ScrubRepaired = st.ScrubRepaired
		out.ScrubQuarantined = st.ScrubQuarantined
	}
	return out
}

// BreakerStates reports every instantiated breaker's state, keyed
// "function/system".
func (p *Platform) BreakerStates() map[string]string {
	p.rec.mu.Lock()
	defer p.rec.mu.Unlock()
	out := make(map[string]string, len(p.rec.breakers))
	for k, b := range p.rec.breakers {
		out[k.fn+"/"+string(k.sys)] = b.State().String()
	}
	return out
}

// fallbackChain orders the stages a requested strategy degrades through:
// sfork → Zygote → Catalyzer-restore → gVisor cold. Baselines have no
// fallback — they are themselves the last resort.
func fallbackChain(sys System) []System {
	switch sys {
	case CatalyzerSfork:
		return []System{CatalyzerSfork, CatalyzerZygote, CatalyzerRestore, GVisor}
	case CatalyzerZygote:
		return []System{CatalyzerZygote, CatalyzerRestore, GVisor}
	case CatalyzerRestore:
		return []System{CatalyzerRestore, GVisor}
	default:
		return []System{sys}
	}
}

// chargeBackoff charges retry backoff as virtual time under the machine
// lock (virtual time only advances while machine work is serialized).
func (p *Platform) chargeBackoff(d simtime.Duration) {
	p.mu.Lock()
	p.M.Env.Charge(d)
	p.mu.Unlock()
}

// abortChain wraps the caller's context error into a typed mid-chain
// abort: errors.Is still sees ErrDeadlineExceeded / ErrCanceled (and the
// underlying context error) through the wrap.
func (p *Platform) abortChain(name string, sys System, attempts int, cerr error) error {
	p.rec.addStats(func(s *FailureStats) { s.Aborted++ })
	return fmt.Errorf("platform: boot %s via %s aborted mid-chain after %d attempts: %w",
		name, sys, attempts, cerr)
}

// BootRecover boots an instance through the failure-recovery machinery:
// the requested stage is tried first (with per-stage retries and
// virtual-time backoff), each failing stage degrades to the next stage
// of the fallback chain, stages whose circuit breaker is open are
// skipped, and repeated sfork failures quarantine and rebuild the
// template. With nothing failing it performs exactly the work of Boot —
// the happy path charges no extra virtual time.
//
// ctx bounds the whole chain: it is consulted before each stage and
// before each retry, and an expired or canceled context aborts the chain
// with a typed error (admission.ErrDeadlineExceeded / ErrCanceled). A
// boot already in flight is never interrupted mid-stage — the abort
// points sit between stages, where no instance is half-built.
func (p *Platform) BootRecover(ctx context.Context, name string, sys System) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if _, err := p.Lookup(name); err != nil {
		return nil, err
	}
	// Crash-loop gate: a parked function is refused before any machine
	// work, so a crash-looping function cannot occupy boot capacity.
	if err := p.sup.Allow(name); err != nil {
		return nil, fmt.Errorf("platform: boot %s: %w", name, err)
	}
	// Run due supervision probes on the way out — after this invocation's
	// latency has been measured, never inside it.
	defer p.sup.Poll()
	r := p.rec
	be := &BootError{Function: name, Requested: sys}
	attempts := 0
	for _, stage := range fallbackChain(sys) {
		if cerr := admission.CtxErr(ctx); cerr != nil {
			return nil, p.abortChain(name, sys, attempts, cerr)
		}
		r.mu.Lock()
		br := r.breaker(p.M, name, stage)
		if !br.Allow() {
			r.stats.BreakerSkips++
			r.mu.Unlock()
			be.Skipped = append(be.Skipped, stage)
			continue
		}
		r.mu.Unlock()
		for attempt := 0; ; attempt++ {
			res, err := p.Boot(name, stage)
			attempts++
			if err == nil {
				r.mu.Lock()
				br.Success()
				if stage == CatalyzerSfork {
					delete(r.sforkFails, name)
				}
				// res.System may differ from stage already (Zygote pool
				// miss degrades to restore inside Boot).
				if res.System != sys {
					r.stats.Fallbacks[res.System]++
				}
				r.mu.Unlock()
				return res, nil
			}
			if isPrecondition(err) {
				// Artifact missing: the stage cannot work until prepared.
				// Skip it without charging its breaker.
				be.Attempts = append(be.Attempts, Attempt{System: stage, Err: err})
				break
			}
			r.mu.Lock()
			trips := br.Trips()
			br.Failure()
			r.stats.BootFailures[stage]++
			r.stats.BreakerTrips += br.Trips() - trips
			mayRetry := attempt < r.cfg.MaxRetries && br.State() == faults.BreakerClosed
			backoff := r.cfg.BackoffBase << attempt
			r.mu.Unlock()
			if stage == CatalyzerSfork {
				p.noteSforkFailure(name)
			}
			a := Attempt{System: stage, Err: err}
			if mayRetry {
				if cerr := admission.CtxErr(ctx); cerr != nil {
					be.Attempts = append(be.Attempts, a)
					return nil, p.abortChain(name, sys, attempts, cerr)
				}
				a.Backoff = backoff
				p.chargeBackoff(backoff)
				r.addStats(func(s *FailureStats) {
					s.Retries++
					s.BackoffTotal += backoff
				})
				be.Attempts = append(be.Attempts, a)
				continue
			}
			be.Attempts = append(be.Attempts, a)
			break
		}
	}
	r.addStats(func(s *FailureStats) { s.Exhausted++ })
	return nil, be
}

// noteSforkFailure counts a consecutive sfork failure for the function;
// at the quarantine threshold the template is presumed wedged, retired,
// and rebuilt offline. A rebuild failure leaves the function without a
// template (subsequent fork boots degrade via ErrNoTemplate until a
// PrepareTemplate succeeds).
func (p *Platform) noteSforkFailure(name string) {
	f, err := p.Lookup(name)
	if err != nil {
		return
	}
	r := p.rec
	r.mu.Lock()
	r.sforkFails[name]++
	if r.sforkFails[name] < r.cfg.QuarantineThreshold {
		r.mu.Unlock()
		return
	}
	r.sforkFails[name] = 0
	r.mu.Unlock()
	// Quarantine and rebuild under the machine lock (template work is
	// machine work); stats afterwards under the recovery mutex.
	p.mu.Lock()
	if f.Tmpl == nil {
		p.mu.Unlock()
		return
	}
	rebuildFailed := false
	if err := f.Tmpl.Refresh(); err != nil {
		f.Tmpl.Retire()
		f.Tmpl = nil
		rebuildFailed = true
	} else {
		f.tmplUse = p.M.Now()
	}
	p.mu.Unlock()
	r.addStats(func(s *FailureStats) {
		s.TemplatesQuarantined++
		if rebuildFailed {
			s.TemplateRebuildFailures++
		}
	})
}

// InvokeRecover is Invoke through the recovery machinery: boot with
// fallback (bounded by ctx), execute one request, release the instance.
func (p *Platform) InvokeRecover(ctx context.Context, name string, sys System) (*Result, error) {
	r, err := p.InvokeKeepRecover(ctx, name, sys)
	if err != nil {
		return nil, err
	}
	p.ReleaseSandbox(r.Sandbox)
	return r, nil
}

// InvokeKeepRecover boots with fallback (bounded by ctx) and executes
// but keeps the instance running, returning it in the result.
func (p *Platform) InvokeKeepRecover(ctx context.Context, name string, sys System) (*Result, error) {
	r, err := p.BootRecover(ctx, name, sys)
	if err != nil {
		return nil, err
	}
	if cerr := admission.CtxErr(ctx); cerr != nil {
		p.ReleaseSandbox(r.Sandbox)
		return nil, p.abortChain(name, sys, 1, cerr)
	}
	d, err := p.executeWatched(name, r.Sandbox)
	if err != nil {
		p.ReleaseSandbox(r.Sandbox)
		p.noteExecFailure(name, r.Sandbox)
		return nil, fmt.Errorf("platform: execute %s: %w", name, err)
	}
	p.sup.NoteSuccess(name)
	r.ExecLatency = d
	return r, nil
}

// Close releases the platform's long-lived per-function artifacts: every
// template sandbox is retired and every base memory mapping closed.
// Deployed functions stay registered; re-preparing them rebuilds the
// artifacts. After Close (and the release of any kept instances) the
// machine reports zero live sandboxes.
func (p *Platform) Close() {
	// Stop the supervisor first: it runs the template regens and image
	// rebuilds still queued and waits out any in-flight Poll, and after
	// it no probe fires and no task runs. Tasks and probes take the
	// machine lock, so this must happen before we do.
	p.sup.Close()
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, f := range p.registeredFunctions() {
		if f.Tmpl != nil {
			f.Tmpl.Retire()
			f.Tmpl = nil
		}
		if f.Mapping != nil {
			f.Mapping.Close()
			f.Mapping = nil
		}
	}
}
