// Failure domains and correlated fault scenarios: machine crashes in
// the wild are not i.i.d. — a zone loses power, a rolling restart
// sweeps the fleet, a partition splits it in half. This file is the
// fleet's answer, in three parts:
//
//   - Zones: every machine carries a zone label (striped idx % Zones by
//     default). Replica selection — Deploy, repair, top-up — spreads a
//     function's R replicas across distinct zones when survivors allow,
//     keeping ring order (and therefore bounded-load spill behavior) as
//     the tie-break within a zone, and doubling up in a covered zone
//     only when no uncovered-zone survivor exists. Forced double-ups
//     while a configured zone sits uncovered count ZoneSpreadViolations.
//     With Zones == 1 (the default) selection degenerates to plain ring
//     order, byte-identical to the pre-zone fleet.
//
//   - Scenarios: a faults.Scenario is a virtual-time outage script.
//     InstallScenario anchors it at the current fleet clock; the fleet
//     ticks the timeline on every dispatch and membership probe, and an
//     arriving step arms the keyed scenario sites (rate 1, which draws
//     no RNG) on the affected machines — so *when* a zone dies is a
//     deterministic function of the clock, and same-seed runs replay
//     the identical outage window. Heal disarms everything, cancels any
//     remaining rolling-crash steps, and rejoins state-intact members.
//
//   - Repair storm control: a mass outage plans many re-replications at
//     once. Instead of stampeding the survivors, repairs flow through a
//     deterministic queue drained in batches of at most RepairBudget
//     (the fleet-wide concurrency token budget); excess waits in sorted
//     order and is counted in RepairsDeferred, and peak batch occupancy
//     is recorded so tests can assert the cap held. While a function's
//     replicas are all inside a downed-but-healing blast radius,
//     invocations fail with the retryable ErrZoneDegraded instead of
//     the terminal-sounding ErrNoSurvivors.
package fleet

import (
	"errors"
	"fmt"
	"sort"

	"catalyzer/internal/faults"
	"catalyzer/internal/simtime"
)

// ErrZoneDegraded: every machine that could serve the request is inside
// a downed-but-healing failure domain (scenario outage in effect or
// repairs still queued). Retryable — healing rejoins the zone and the
// repair queue drains.
var ErrZoneDegraded = errors.New("fleet: zone degraded, replicas healing")

// zoneName renders zone z's label: machines stripe across "z0".."zN-1".
func zoneName(z int) string { return fmt.Sprintf("z%d", z) }

// zoneIndex resolves a zone label to its index, or -1 if the label
// names no configured zone.
func (f *Fleet) zoneIndex(label string) int {
	for z := 0; z < f.cfg.Zones; z++ {
		if zoneName(z) == label {
			return z
		}
	}
	return -1
}

// ZoneNames lists the configured zone labels in index order.
func (f *Fleet) ZoneNames() []string {
	out := make([]string, f.cfg.Zones)
	for z := range out {
		out[z] = zoneName(z)
	}
	return out
}

// pickReplicaLocked picks the next replica holder for name given the
// already-chosen keep set: healthy ring machines in ring order,
// preferring the first whose zone the set does not yet cover; when no
// uncovered-zone survivor exists it falls back to plain ring order,
// counting a ZoneSpreadViolation if the double-up was forced (a
// configured zone sits uncovered) rather than structural (R exceeds
// the zone count) (mu held).
func (f *Fleet) pickReplicaLocked(name string, keep []int) (int, bool) {
	covered := make(map[int]bool, len(keep))
	for _, idx := range keep {
		covered[f.members[idx].zone] = true
	}
	first := -1
	for _, c := range f.ring.order(name) {
		if contains(keep, c) {
			continue
		}
		if !covered[f.members[c].zone] {
			return c, true
		}
		if first < 0 {
			first = c
		}
	}
	if first < 0 {
		return -1, false
	}
	if len(covered) < f.cfg.Zones {
		f.stats.ZoneSpreadViolations++
	}
	return first, true
}

// fillReplicasLocked tops keep up toward min(R, up) machines for name,
// each pick zone-spread per pickReplicaLocked, and appends one image
// ship per added machine to plan when plan is non-nil (mu held).
func (f *Fleet) fillReplicasLocked(name string, keep []int, plan *[]repair) []int {
	want := min(f.cfg.Replication, f.upCountLocked())
	for len(keep) < want {
		c, ok := f.pickReplicaLocked(name, keep)
		if !ok {
			break
		}
		if plan != nil {
			*plan = append(*plan, repair{fn: name, srcs: append([]int(nil), keep...), dst: c})
		}
		keep = append(keep, c)
	}
	return keep
}

// rebalanceZonesLocked migrates in-zone duplicate replicas of name onto
// uncovered-zone survivors after a heal: repairs planned during an
// outage could only double up inside the surviving zones, and top-up
// alone never fixes a set that is full but clumped. The last duplicate
// in placement order moves first; the loop stops when the set covers
// distinct zones or no uncovered-zone candidate exists (mu held).
func (f *Fleet) rebalanceZonesLocked(name string, keep []int, plan *[]repair) []int {
	for {
		covered := make(map[int]bool, len(keep))
		dup := -1
		for i, idx := range keep {
			z := f.members[idx].zone
			if covered[z] {
				dup = i
			} else {
				covered[z] = true
			}
		}
		if dup < 0 {
			return keep
		}
		cand := -1
		for _, c := range f.ring.order(name) {
			if !contains(keep, c) && !covered[f.members[c].zone] {
				cand = c
				break
			}
		}
		if cand < 0 {
			return keep
		}
		others := make([]int, 0, len(keep)-1)
		for i, idx := range keep {
			if i != dup {
				others = append(others, idx)
			}
		}
		*plan = append(*plan, repair{fn: name, srcs: append([]int(nil), others...), dst: cand})
		keep = append(others, cand)
	}
}

// InstallScenario anchors a fault timeline at the current fleet clock:
// each step fires once the clock passes its offset, checked on every
// dispatch and membership probe. Installing replaces any prior
// scenario. The scenario must compile (see faults.Scenario.Steps) and
// may only name configured zones.
func (f *Fleet) InstallScenario(sc *faults.Scenario) error {
	steps, err := sc.Steps()
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	for _, st := range steps {
		for _, z := range st.Zones {
			if f.zoneIndex(z) < 0 {
				return fmt.Errorf("%w: scenario names unknown zone %q (fleet has %d zones)",
					ErrBadConfig, z, f.cfg.Zones)
			}
		}
	}
	base := f.now()
	f.mu.Lock()
	f.scenario = steps
	f.scenBase = base
	f.scenCursor = 0
	f.mu.Unlock()
	return nil
}

// tickScenario applies every scenario step whose time has arrived, in
// timeline order. Steps are applied one at a time because a Heal may
// cancel later steps; applying does machine work, so no locks are held
// across a step.
func (f *Fleet) tickScenario() {
	for {
		f.mu.Lock()
		if f.scenCursor >= len(f.scenario) {
			f.mu.Unlock()
			return
		}
		st := f.scenario[f.scenCursor]
		if f.scenBase+st.At > f.nowLocked() {
			f.mu.Unlock()
			return
		}
		f.scenCursor++
		f.stats.ScenarioSteps++
		f.mu.Unlock()
		f.applyStep(st)
	}
}

// applyStep executes one timeline step against the fleet.
func (f *Fleet) applyStep(st faults.Step) {
	switch st.Kind {
	case faults.StepZoneDown:
		f.applyZoneOutage(st.Zones, faults.SiteZoneDown)
	case faults.StepSplitPartition:
		f.applyZoneOutage(st.Zones, faults.SitePartitionSplit)
	case faults.StepRollingCrash:
		f.applyRollingCrash()
	case faults.StepHeal:
		f.applyHeal()
	}
}

// applyZoneOutage arms the keyed outage site on every machine of the
// named zones. A zone-down additionally downs the Up members right
// away (the zone lost power — state intact, rejoin on heal); a
// partition split leaves them Up and lets misses accrue through the
// armed dispatch/probe draws.
func (f *Fleet) applyZoneOutage(zones []string, site faults.Site) {
	want := make(map[int]bool, len(zones))
	for _, z := range zones {
		want[f.zoneIndex(z)] = true
	}
	f.mu.Lock()
	for _, z := range zones {
		if site == faults.SiteZoneDown {
			f.downZones[z] = true
		} else {
			f.splitZones[z] = true
		}
	}
	var hit []*member
	for _, m := range f.members {
		if want[m.zone] {
			hit = append(hit, m)
		}
	}
	f.mu.Unlock()
	for _, m := range hit {
		f.inj.ArmKeyed(site, m.key, 1)
	}
	if site != faults.SiteZoneDown {
		return
	}
	var down []*member
	for _, m := range hit {
		f.mu.Lock()
		up := m.state == StateUp
		f.mu.Unlock()
		if up && f.inj.CheckKeyed(faults.SiteZoneDown, m.key) != nil {
			down = append(down, m)
		}
	}
	f.markDownBatch(down, false)
}

// applyRollingCrash crashes the next sweep victim: the lowest-index Up
// member (deterministic — successive steps walk the fleet as machines
// fall). The keyed arming is consumed after the one-shot draw.
func (f *Fleet) applyRollingCrash() {
	f.mu.Lock()
	var victim *member
	for _, m := range f.members {
		if m.state == StateUp {
			victim = m
			break
		}
	}
	f.mu.Unlock()
	if victim == nil {
		return
	}
	key := victim.key
	f.inj.ArmKeyed(faults.SiteRollingCrash, key, 1)
	if f.inj.CheckKeyed(faults.SiteRollingCrash, key) != nil {
		f.inj.DisarmKeyed(faults.SiteRollingCrash, key)
		f.mu.Lock()
		f.stats.RollingCrashes++
		f.mu.Unlock()
		f.markDown(victim, true)
	}
}

// applyHeal ends every outage in effect: outage sites are disarmed on
// the affected machines, remaining rolling-crash steps are cancelled,
// and downed-but-state-intact members rejoin immediately (anti-entropy
// tops their replica sets back up and rebalances zone spread). Crashed
// members stay down — lost state needs an explicit Restart.
func (f *Fleet) applyHeal() {
	f.mu.Lock()
	healed := make(map[int]bool)
	for _, zs := range []map[string]bool{f.downZones, f.splitZones} {
		labels := make([]string, 0, len(zs))
		for z := range zs {
			labels = append(labels, z)
		}
		sort.Strings(labels)
		for _, z := range labels {
			healed[f.zoneIndex(z)] = true
		}
	}
	f.downZones = make(map[string]bool)
	f.splitZones = make(map[string]bool)
	kept := f.scenario[:f.scenCursor:f.scenCursor]
	for _, s := range f.scenario[f.scenCursor:] {
		if s.Kind != faults.StepRollingCrash {
			kept = append(kept, s)
		}
	}
	f.scenario = kept
	var hit []*member
	for _, m := range f.members {
		if healed[m.zone] {
			hit = append(hit, m)
		}
	}
	f.mu.Unlock()
	for _, m := range hit {
		f.inj.DisarmKeyed(faults.SiteZoneDown, m.key)
		f.inj.DisarmKeyed(faults.SitePartitionSplit, m.key)
	}
	for _, m := range hit {
		f.mu.Lock()
		rejoinable := m.state == StateDown && !m.crashed
		f.mu.Unlock()
		if rejoinable {
			f.rejoin(m)
		}
	}
}

// zoneDegraded reports whether a placement failure for name should
// surface as the retryable ErrZoneDegraded: a scenario outage is in
// effect, or the function still has a queued repair — either way the
// fleet is healing, not dead.
func (f *Fleet) zoneDegraded(name string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.downZones) > 0 || len(f.splitZones) > 0 {
		return true
	}
	for _, r := range f.repairQ {
		if r.fn == name {
			return true
		}
	}
	return false
}

// enqueueRepairsLocked appends plan to the repair queue and restores
// the queue's canonical order: sorted by function name, per-function
// insertion order (placement order) preserved (mu held).
func (f *Fleet) enqueueRepairsLocked(plan []repair) {
	f.repairQ = append(f.repairQ, plan...)
	sort.SliceStable(f.repairQ, func(i, j int) bool {
		return f.repairQ[i].fn < f.repairQ[j].fn
	})
}

// pumpRepairs drains the repair queue in batches of at most
// RepairBudget concurrent re-replications. Queue occupancy beyond the
// budget counts RepairsDeferred per round; the largest batch in flight
// is recorded so tests can assert the cap. A repair the repair-deferred
// site pushes back is held out of this pump entirely and re-queued for
// the next one. Only one pump runs at a time — concurrent callers
// return and let the active pump drain. No fleet locks are held while
// a batch ships images (machine work).
func (f *Fleet) pumpRepairs() {
	f.mu.Lock()
	if f.repairPumping {
		f.mu.Unlock()
		return
	}
	f.repairPumping = true
	f.mu.Unlock()
	var held []repair
	for {
		f.mu.Lock()
		if len(f.repairQ) == 0 {
			f.enqueueRepairsLocked(held)
			f.repairPumping = false
			f.mu.Unlock()
			return
		}
		b := f.cfg.RepairBudget
		if b > len(f.repairQ) {
			b = len(f.repairQ)
		}
		batch := append([]repair(nil), f.repairQ[:b]...)
		f.repairQ = append([]repair(nil), f.repairQ[b:]...)
		if deferred := len(f.repairQ); deferred > 0 {
			f.stats.RepairsDeferred += deferred
		}
		f.repairInFlight = b
		if b > f.stats.RepairPeakInFlight {
			f.stats.RepairPeakInFlight = b
		}
		f.mu.Unlock()
		held = append(held, f.executeBatch(batch)...)
		f.mu.Lock()
		f.repairInFlight = 0
		f.mu.Unlock()
	}
}

// executeBatch ships one batch of repairs, returning the repairs the
// repair-deferred site pushed back for a later pump. A stale repair —
// its destination no longer Up or no longer in the function's replica
// set (a later down-transition already re-planned it) — is dropped.
func (f *Fleet) executeBatch(batch []repair) (held []repair) {
	for _, r := range batch {
		if ferr := f.inj.Check(faults.SiteRepairDeferred); ferr != nil {
			f.mu.Lock()
			f.stats.RepairsDeferred++
			f.mu.Unlock()
			held = append(held, r)
			continue
		}
		f.mu.Lock()
		live := contains(f.deployments[r.fn], r.dst) && f.members[r.dst].state == StateUp
		f.mu.Unlock()
		if !live {
			continue
		}
		dst := f.memberAt(r.dst)
		if dst.node.HasImage(r.fn) {
			// A healed partition kept its state: re-admitting it to the
			// replica set needs no shipping.
			continue
		}
		shipped := false
		for _, srcIdx := range r.srcs {
			src := f.memberAt(srcIdx)
			img, err := src.node.ExportImage(r.fn)
			if err != nil {
				continue
			}
			dst.node.Charge(simtime.Duration(img.Mem.Pages) * pullPageCost)
			if err := dst.node.ImportImage(img); err != nil {
				continue
			}
			shipped = true
			break
		}
		if !shipped {
			// No surviving replica could ship: rebuild locally from
			// scratch (degraded, but the function stays available).
			if _, err := dst.node.PrepareImage(r.fn); err != nil {
				f.mu.Lock()
				f.stats.RepairFailures++
				f.mu.Unlock()
				continue
			}
			f.mu.Lock()
			f.stats.LocalBuilds++
			f.mu.Unlock()
		}
		f.mu.Lock()
		f.stats.Rereplications++
		f.mu.Unlock()
	}
	return held
}
