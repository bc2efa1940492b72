package fleet

// Fleet cold-restart recovery. With every machine owning its own
// crash-consistent image store (the build factory reopens machine idx's
// store — scrub included — on every call), a whole-fleet power loss is
// survivable from disk: Recover surveys what each store brought back,
// reconciles the copies of every function across its replicas, rebuilds
// ring placement, and tops replica sets back toward R through the
// repair budget.
//
// Reconciliation rules, applied per function in sorted name order so
// same-seed runs converge identically:
//
//   - The highest generation among the surviving copies wins; ties
//     break to the lowest machine index. The winner rehydrates in place
//     from its own store.
//   - A copy whose content checksum already matches the winner's is
//     up to date regardless of its local generation number (generation
//     counters are per-store, so a repaired replica can run ahead of an
//     untouched one holding identical bytes): it rehydrates in place.
//   - A copy with differing bytes at a *lower* generation is stale: it
//     re-pulls the winner's image through the durable import path.
//   - A copy with differing bytes at the *same* generation has diverged
//     at the byte level: its stored generation is quarantined as
//     evidence, then it re-pulls like a stale copy.
//
// Every re-pull draws the recover-stale-replica site (keyed per
// machine) and then the durable import path's own sites; a failed
// restoration degrades the replica set and is left for the top-up pass,
// which repairs it under the repair budget like any other loss.

import (
	"context"
	"sort"

	"catalyzer/internal/admission"
	"catalyzer/internal/faults"
	"catalyzer/internal/simtime"
)

// replicaCopy is one machine's stored copy of a function as observed by
// the restart survey.
type replicaCopy struct {
	idx int
	gen uint64
	sum uint64
}

// RecoverReport summarizes one whole-fleet cold restart: the functions
// reconciliation restored to service (sorted) and, per function that
// could not be restored, why.
type RecoverReport struct {
	Recovered []string
	Failed    map[string]string
}

// Recover rebuilds the fleet's serving state from the machines' on-disk
// stores after a whole-fleet restart. Call it once, on a freshly built
// idle fleet whose factory reopened per-machine stores. Each machine's
// store scrubbed itself at reopen; Recover draws the restart-torn-store site
// per machine (a firing draw discards that store's contents), runs the
// deterministic reconciliation pass documented above, re-derives ring
// placement, and queues top-up repairs for every degraded replica set.
func (f *Fleet) Recover(ctx context.Context) (*RecoverReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cerr := admission.CtxErr(ctx); cerr != nil {
		return nil, cerr
	}
	f.mu.Lock()
	members := append([]*member(nil), f.members...)
	f.mu.Unlock()

	// Survey pass, in machine index order: what did each store bring
	// back? A torn store (the fault site, or a survey that errors) is
	// ignored wholesale — every replica it held re-pulls or repairs.
	copies := make(map[string][]replicaCopy)
	var names []string
	for _, m := range members {
		if ferr := f.inj.CheckKeyed(faults.SiteRestartTornStore, machineKey(m.idx)); ferr != nil {
			f.mu.Lock()
			f.stats.TornStores++
			f.mu.Unlock()
			continue
		}
		fns, err := m.node.StoredFunctions()
		if err != nil {
			f.mu.Lock()
			f.stats.TornStores++
			f.mu.Unlock()
			continue
		}
		if len(fns) == 0 {
			continue
		}
		f.mu.Lock()
		f.stats.StoresRecovered++
		f.mu.Unlock()
		for _, fn := range fns {
			gen, sum := m.node.ImageVersion(fn)
			if gen == 0 {
				continue
			}
			if _, seen := copies[fn]; !seen {
				names = append(names, fn)
			}
			copies[fn] = append(copies[fn], replicaCopy{idx: m.idx, gen: gen, sum: sum})
		}
	}
	sort.Strings(names)

	rep := &RecoverReport{Failed: make(map[string]string)}
	for _, fn := range names {
		if cerr := admission.CtxErr(ctx); cerr != nil {
			return rep, cerr
		}
		set := copies[fn]
		// Winner candidates in (generation desc, index asc) order: the
		// highest verified generation wins; a candidate whose rehydration
		// fails passes the crown to the next.
		sort.Slice(set, func(i, j int) bool {
			if set[i].gen != set[j].gen {
				return set[i].gen > set[j].gen
			}
			return set[i].idx < set[j].idx
		})
		wi := -1
		for i, c := range set {
			if _, err := members[c.idx].node.PrepareImage(fn); err != nil {
				f.mu.Lock()
				f.stats.RecoverFailures++
				f.mu.Unlock()
				continue
			}
			wi = i
			break
		}
		if wi < 0 {
			rep.Failed[fn] = "no usable replica copy survived restart"
			continue
		}
		winner := members[set[wi].idx]
		img, err := winner.node.ExportImage(fn)
		if err != nil {
			rep.Failed[fn] = err.Error()
			continue
		}
		placement := []int{winner.idx}
		for i, c := range set {
			if i == wi {
				continue
			}
			m := members[c.idx]
			if c.sum == set[wi].sum {
				// Bytes already match the winner: rehydrate in place.
				if _, err := m.node.PrepareImage(fn); err != nil {
					f.mu.Lock()
					f.stats.RecoverFailures++
					f.mu.Unlock()
					continue
				}
				placement = append(placement, c.idx)
				continue
			}
			divergent := c.gen == set[wi].gen
			if ferr := f.inj.CheckKeyed(faults.SiteRecoverStaleReplica, machineKey(c.idx)); ferr != nil {
				f.mu.Lock()
				f.stats.RecoverFailures++
				f.mu.Unlock()
				continue
			}
			m.node.Charge(simtime.Duration(img.Mem.Pages) * pullPageCost)
			if err := m.node.ReplaceImage(img, divergent); err != nil {
				f.mu.Lock()
				f.stats.RecoverFailures++
				f.mu.Unlock()
				continue
			}
			f.mu.Lock()
			if divergent {
				f.stats.DivergentQuarantined++
			} else {
				f.stats.StaleRepulls++
			}
			f.mu.Unlock()
			placement = append(placement, c.idx)
		}
		// Winner first (the most complete copy serves as primary for
		// future exports), the rest in index order.
		sort.Ints(placement[1:])
		f.mu.Lock()
		f.deployments[fn] = placement
		f.stats.FunctionsRecovered++
		f.mu.Unlock()
		rep.Recovered = append(rep.Recovered, fn)
	}

	// Re-derive ring placement and top every degraded replica set back
	// toward R through the repair budget, exactly like a rejoin.
	f.mu.Lock()
	f.rebuildRingLocked()
	f.enqueueRepairsLocked(f.planTopUpLocked())
	f.mu.Unlock()
	f.pumpRepairs()
	return rep, nil
}

// ImageVersion is one stored replica copy's version: the active
// generation number and content checksum in the machine's store.
type ImageVersion struct {
	Gen uint64
	Sum uint64
}

// ImageVersions reports name's stored image version on every machine in
// its current replica set, keyed by machine index — the byte-level
// divergence oracle the chaos-restart suite asserts with (matching sums
// mean every replica holds identical bytes).
func (f *Fleet) ImageVersions(name string) map[int]ImageVersion {
	f.mu.Lock()
	reps := append([]int(nil), f.deployments[name]...)
	members := append([]*member(nil), f.members...)
	f.mu.Unlock()
	out := make(map[int]ImageVersion, len(reps))
	for _, idx := range reps {
		gen, sum := members[idx].node.ImageVersion(name)
		out[idx] = ImageVersion{Gen: gen, Sum: sum}
	}
	return out
}
