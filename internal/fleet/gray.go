// Gray-failure defense: a machine that crashes or partitions is easy —
// membership probes catch it and the ring routes around it. A *gray*
// machine is alive enough to pass every probe while serving 10–100×
// slow, which destroys tail latency for everything hashed to it. This
// file is the dispatch layer's answer, in three parts:
//
//   - Scoring: every dispatch (and every recovery probe) feeds the
//     serving machine's EWMA latency score. The fleet median over
//     healthy members is the baseline everything else is judged
//     against, and a quantile-derived multiple of it becomes the
//     adaptive per-attempt timeout charged before each replay,
//     replacing the fixed doubling backoff once scores are warm.
//
//   - Hedging: when the primary attempt ran longer than the adaptive
//     hedge delay, a second attempt races on the next healthy replica
//     as if it had been dispatched delay after the first; the earlier
//     virtual finisher wins, the loser is charged for its wasted work
//     (and may linger, via the hedge-loser-lingers site). Hedges and
//     replays spend from a shared token-bucket budget that accrues per
//     admitted invocation, so a sick fleet is bounded to roughly
//     BudgetRatio extra traffic instead of melting itself with retries.
//
//   - Ejection: a member whose score exceeds EjectFactor × the healthy
//     median is soft-ejected — dropped from the placement ring but
//     still Up, still holding its replicas, and probed by a dedicated
//     recovery probe group that re-admits it after consecutive clean
//     probes (or once its score decays back under readmitFactor ×
//     median). MaxEjectFraction bounds how much of the fleet can drain;
//     past it the fleet serves browned-out from ejected members rather
//     than collapsing, surfacing ErrBrownout only when nothing answers.
//
// Everything runs in deterministic virtual time: scores, hedge
// decisions and ejections depend only on member clocks and the seeded
// injector, so two same-seed runs make identical decisions.
package fleet

import (
	"context"
	"fmt"
	"sort"

	"catalyzer/internal/faults"
	"catalyzer/internal/platform"
	"catalyzer/internal/simtime"
)

// maxBackoffShift caps the doubling exponent of the legacy failover
// backoff so replay storms saturate instead of overflowing.
const maxBackoffShift = 6

// machineKey is the injector key for per-machine (keyed) fault arming.
func machineKey(idx int) string { return fmt.Sprintf("machine-%d", idx) }

// clampDur clamps d into [lo, hi].
func clampDur(d, lo, hi simtime.Duration) simtime.Duration {
	if d < lo {
		return lo
	}
	if d > hi {
		return hi
	}
	return d
}

// feedScore folds one dispatch latency into m's EWMA score and
// re-evaluates outlier ejection against the fresh score.
func (f *Fleet) feedScore(m *member, lat simtime.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.feedScoreLocked(m, lat)
	f.maybeEjectLocked(m)
}

func (f *Fleet) feedScoreLocked(m *member, lat simtime.Duration) {
	if m.samples == 0 {
		m.score = float64(lat)
	} else {
		a := scoreAlpha
		m.score = (1-a)*m.score + a*float64(lat)
	}
	m.samples++
	f.samplesTotal++
}

// healthyMedianLocked is the median EWMA score over Up, non-ejected
// members with at least one sample, excluding excludeIdx (pass -1 to
// exclude nobody). Excluding the member under judgment keeps one gross
// outlier from dragging its own baseline up (mu held).
func (f *Fleet) healthyMedianLocked(excludeIdx int) float64 {
	var scores []float64
	for _, m := range f.members {
		if m.idx != excludeIdx && m.state == StateUp && !m.ejected && m.samples > 0 {
			scores = append(scores, m.score)
		}
	}
	if len(scores) == 0 {
		return 0
	}
	sort.Float64s(scores)
	mid := len(scores) / 2
	if len(scores)%2 == 1 {
		return scores[mid]
	}
	return (scores[mid-1] + scores[mid]) / 2
}

// scoresWarmLocked reports whether enough dispatches have been scored
// fleet-wide for the adaptive machinery (timeouts, hedging) to engage.
func (f *Fleet) scoresWarmLocked() bool {
	return f.samplesTotal >= f.cfg.ScoreWarmup
}

// attemptTimeout is the adaptive per-attempt timeout: the virtual time
// the dispatcher waits on a machine before abandoning the attempt,
// charged to the replaying machine. Once scores are warm it is a
// quantile-derived multiple of the healthy median score (clamped);
// before that it falls back to the legacy doubling failover backoff.
func (f *Fleet) attemptTimeout(attempt int) simtime.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.attemptTimeoutLocked(attempt)
}

func (f *Fleet) attemptTimeoutLocked(attempt int) simtime.Duration {
	if f.scoresWarmLocked() {
		if med := f.healthyMedianLocked(-1); med > 0 {
			return clampDur(simtime.Duration(timeoutFactor*med),
				f.cfg.MinAttemptTimeout, f.cfg.attemptCeiling())
		}
	}
	return f.backoffFor(attempt)
}

// backoffFor is the cold-start fallback when no scores exist yet: the
// fixed failover backoff doubling per consecutive attempt, with the
// shift capped and the product saturated at the attempt ceiling so an
// arbitrary replay count can never overflow into a negative or absurd
// virtual-time charge.
func (f *Fleet) backoffFor(attempt int) simtime.Duration {
	shift := attempt - 1
	if shift < 0 {
		shift = 0
	}
	if shift > maxBackoffShift {
		shift = maxBackoffShift
	}
	if f.cfg.FailoverBackoff > f.cfg.attemptCeiling()>>shift {
		return f.cfg.attemptCeiling()
	}
	return f.cfg.FailoverBackoff << shift
}

// hedgeDelayLocked is the adaptive hedge trigger: a primary attempt
// that ran longer than this races a second attempt. Zero-false until
// scores warm up, so cold fleets (and the first invocations of every
// test) never hedge.
func (f *Fleet) hedgeDelayLocked() (simtime.Duration, bool) {
	if !f.scoresWarmLocked() {
		return 0, false
	}
	med := f.healthyMedianLocked(-1)
	if med <= 0 {
		return 0, false
	}
	return clampDur(simtime.Duration(hedgeFactor*med),
		minHedgeDelay, f.cfg.attemptCeiling()), true
}

// earnBudgetLocked accrues the retry/hedge allowance: each admitted
// invocation earns BudgetRatio tokens, capped at BudgetBurst, so extra
// attempts are bounded to roughly BudgetRatio of traffic plus the
// burst (mu held).
func (f *Fleet) earnBudgetLocked() {
	f.tokens += f.cfg.BudgetRatio
	if cap := float64(f.cfg.BudgetBurst); f.tokens > cap {
		f.tokens = cap
	}
}

// takeBudget spends one retry/hedge token, reporting false (and
// counting the denial) when the bucket is dry.
func (f *Fleet) takeBudget() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.tokens < 1 {
		f.stats.BudgetDenials++
		return false
	}
	f.tokens--
	f.stats.BudgetSpent++
	return true
}

// maybeEjectLocked soft-ejects m when its score is an outlier against
// the healthy median: still Up, still a replica holder, but out of the
// placement ring and handed to the ejection recovery probes. The
// max-ejection fraction bounds how much of the Up fleet can drain at
// once — beyond it the outlier stays in rotation (deferred) and the
// fleet degrades to brownout rather than collapsing onto too few
// machines (mu held).
func (f *Fleet) maybeEjectLocked(m *member) {
	if m.ejected || m.state != StateUp || m.samples < f.cfg.MinEjectSamples {
		return
	}
	med := f.healthyMedianLocked(m.idx)
	if med <= 0 || m.score <= f.cfg.EjectFactor*med {
		return
	}
	up, ejected := 0, 0
	for _, o := range f.members {
		if o.state == StateUp {
			up++
			if o.ejected {
				ejected++
			}
		}
	}
	if ejected+1 > int(f.cfg.MaxEjectFraction*float64(up)) {
		f.stats.EjectionsDeferred++
		return
	}
	m.ejected = true
	m.cleanProbes = 0
	f.stats.Ejections++
	f.rebuildRingLocked()
}

// anyEjected reports whether any Up member is currently soft-ejected.
func (f *Fleet) anyEjected() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.anyEjectedLocked()
}

func (f *Fleet) anyEjectedLocked() bool {
	for _, m := range f.members {
		if m.state == StateUp && m.ejected {
			return true
		}
	}
	return false
}

// placeForInvokeLocked picks the machine for one attempt: healthy ring
// placement first; when every healthy machine has been tried (or the
// ring is empty), brownout fallback to the least-loaded untried
// ejected member, so a heavily-ejected fleet serves slow instead of
// failing (mu held).
func (f *Fleet) placeForInvokeLocked(name string, tried map[int]bool) (idx int, brownout, ok bool) {
	if idx, ok := f.placeLocked(name, tried); ok {
		return idx, false, true
	}
	var ejected []int
	for _, m := range f.members {
		if m.state == StateUp && m.ejected && !tried[m.idx] {
			ejected = append(ejected, m.idx)
		}
	}
	if len(ejected) == 0 {
		return -1, false, false
	}
	return f.leastLoadedLocked(ejected), true, true
}

// runAttempt performs one dispatch on m: fault draws, artifact
// materialization, then the member's recovery chain. The attempt's
// scored latency is the dispatch window (fault penalties) plus the
// invocation itself — one-time artifact materialization (image pulls,
// template forks) is charged to the machine's clock but excluded from
// the score, so a cold first touch never reads as machine sickness and
// never inflates the healthy median that sick members are judged
// against. Failed dispatches are charged the current adaptive timeout
// as their latency, which is what the caller waited before giving up
// on the machine. machineLevel distinguishes failures worth replaying
// elsewhere from function-level errors the member's own recovery chain
// already handled.
func (f *Fleet) runAttempt(ctx context.Context, m *member, name string, sys platform.System) (res *platform.Result, lat simtime.Duration, err error, machineLevel bool) {
	start := m.node.Now()
	if derr := f.dispatchFaults(m); derr != nil {
		f.feedScore(m, f.attemptTimeout(1))
		return nil, 0, derr, true
	}
	dispatchCost := m.node.Now() - start
	if aerr := f.ensureArtifacts(m, name, sys); aerr != nil {
		f.feedScore(m, f.attemptTimeout(1))
		return nil, 0, aerr, true
	}
	invokeStart := m.node.Now()
	res, ierr := m.node.InvokeRecover(ctx, name, sys)
	lat = dispatchCost + (m.node.Now() - invokeStart)
	f.feedScore(m, lat)
	if ierr != nil {
		return nil, lat, ierr, false
	}
	return res, lat, nil, false
}

// maybeHedge races a hedge attempt when the primary ran past the
// adaptive hedge delay: the hedge is modelled as dispatched to the
// next healthy replica delay after the primary, the earlier virtual
// finisher wins, and the loser is charged for its discarded work (plus
// the hedge-loser-lingers site, which models an abandoned attempt that
// keeps burning the loser's cycles). Each hedge spends one budget
// token; a dry bucket or no distinct healthy candidate means no hedge.
// Returns the winning machine, result, and the invocation's effective
// latency.
func (f *Fleet) maybeHedge(ctx context.Context, name string, sys platform.System, prim *member, res *platform.Result, lat simtime.Duration, tried map[int]bool) (int, *platform.Result, simtime.Duration) {
	f.mu.Lock()
	delay, ok := f.hedgeDelayLocked()
	if !ok || lat <= delay {
		f.mu.Unlock()
		return prim.idx, res, lat
	}
	exclude := map[int]bool{prim.idx: true}
	for k := range tried {
		exclude[k] = true
	}
	hidx, ok := f.placeLocked(name, exclude)
	f.mu.Unlock()
	if !ok {
		return prim.idx, res, lat
	}
	if !f.takeBudget() {
		return prim.idx, res, lat
	}
	f.mu.Lock()
	f.stats.Hedges++
	f.mu.Unlock()
	h := f.memberAt(hidx)
	hres, hlat, herr, _ := f.runAttempt(ctx, h, name, sys)
	if herr != nil {
		// The hedge lost by failing; the primary result stands. Any
		// state transition (crash, partition miss) already happened
		// inside the attempt.
		return prim.idx, res, lat
	}
	winner, wres, weff, loser := prim, res, lat, h
	if delay+hlat < lat {
		winner, wres, weff, loser = h, hres, delay+hlat, prim
		f.mu.Lock()
		f.stats.HedgeWins++
		f.mu.Unlock()
	}
	if f.inj.CheckKeyed(faults.SiteHedgeLoserLingers, machineKey(loser.idx)) != nil {
		loser.node.Charge(lingerPenalty)
		f.mu.Lock()
		f.stats.HedgeLosersLingered++
		f.mu.Unlock()
	}
	return winner.idx, wres, weff
}

// probeEjected is the ejected-machine recovery probe group: each round
// it sends a synthetic probe to every soft-ejected member, charging
// the probe cost, drawing the member's keyed gray sites (a still-sick
// machine keeps failing its probes), and feeding the measured latency
// into the member's score. A member is re-admitted — ring rebuilt,
// traffic flowing back — after readmitProbes consecutive clean probes,
// or as soon as its decayed score drops under readmitFactor × the
// healthy median; its score is then reset to that median so a fresh
// outlier verdict needs fresh evidence.
func (f *Fleet) probeEjected() (checked, evicted int) {
	f.mu.Lock()
	var targets []*member
	for _, m := range f.members {
		if m.state == StateUp && m.ejected {
			targets = append(targets, m)
		}
	}
	f.mu.Unlock()
	for _, m := range targets {
		checked++
		start := m.node.Now()
		m.node.Charge(probeCost)
		if f.inj.CheckKeyed(faults.SiteMachineGraySlow, machineKey(m.idx)) != nil {
			m.node.Charge(f.cfg.GraySlowPenalty)
			f.mu.Lock()
			f.stats.GrayDispatches++
			f.mu.Unlock()
		}
		flaky := f.inj.CheckKeyed(faults.SiteMachineFlaky, machineKey(m.idx)) != nil
		lat := m.node.Now() - start
		f.mu.Lock()
		if flaky {
			f.stats.FlakyDispatches++
			lat = f.attemptTimeoutLocked(1)
		}
		f.stats.EjectionProbes++
		f.feedScoreLocked(m, lat)
		if !flaky && lat <= probeCost {
			m.cleanProbes++
		} else {
			m.cleanProbes = 0
		}
		med := f.healthyMedianLocked(m.idx)
		if m.cleanProbes >= readmitProbes || (med > 0 && m.score <= readmitFactor*med) {
			m.ejected = false
			m.cleanProbes = 0
			if med > 0 {
				m.score = med
			}
			f.stats.Readmissions++
			f.rebuildRingLocked()
		}
		f.mu.Unlock()
	}
	return checked, 0
}

// ArmFaultOn arms a fault site on one machine only (keyed arming on
// the shared injector): the canonical way to make a single member
// gray-slow or flaky without touching the rest of the fleet's seeded
// schedule.
func (f *Fleet) ArmFaultOn(idx int, site faults.Site, rate float64) error {
	if _, err := f.checkedMember(idx); err != nil {
		return err
	}
	f.inj.ArmKeyed(site, machineKey(idx), rate)
	return nil
}
