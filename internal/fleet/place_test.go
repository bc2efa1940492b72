package fleet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"catalyzer/internal/platform"
)

// loadNode is a machine stub for placement tests: placement reads only
// LiveInstances, which reports live plus step for every earlier read,
// so a positive step models load that rises while a placement runs
// (the only way to reach the at-cap fallback).
type loadNode struct {
	platform.Node
	live, step, reads int
}

func (n *loadNode) LiveInstances() int {
	v := n.live + n.step*n.reads
	n.reads++
	return v
}

// stubFleet builds a fleet of loadNode machines by hand, with no
// platform behind them; only placement may run on it.
func stubFleet(machines int, loadFactor float64) (*Fleet, []*loadNode) {
	f := &Fleet{cfg: Config{Machines: machines, LoadFactor: loadFactor}.withDefaults()}
	nodes := make([]*loadNode, machines)
	for i := range nodes {
		nodes[i] = &loadNode{}
		f.members = append(f.members, &member{idx: i, key: machineKey(i), node: nodes[i], state: StateUp})
	}
	f.rebuildRingLocked()
	return f, nodes
}

// refWalk, refPlaceLocked and refLeastLoadedLocked are the map-based
// placement this package used before ring orders were cached, kept as
// the reference the cached, slice-based placement must match.
// refFallbacks counts the reference's at-cap fallbacks.
var refFallbacks int

func refWalk(r *ring, key string) []int {
	if len(r.vnodes) == 0 {
		return nil
	}
	h := hash64(key)
	start := sort.Search(len(r.vnodes), func(i int) bool { return r.vnodes[i].hash >= h })
	seen := make(map[int]bool)
	var out []int
	for n := 0; n < len(r.vnodes); n++ {
		v := r.vnodes[(start+n)%len(r.vnodes)]
		if !seen[v.machine] {
			seen[v.machine] = true
			out = append(out, v.machine)
		}
	}
	return out
}

func refPlaceLocked(f *Fleet, name string, exclude map[int]bool) (int, bool) {
	var cands []int
	for _, idx := range refWalk(f.ring, name) {
		if !exclude[idx] && f.members[idx].state == StateUp {
			cands = append(cands, idx)
		}
	}
	if len(cands) == 0 {
		return -1, false
	}
	total := 0
	for _, idx := range cands {
		total += f.members[idx].node.LiveInstances()
	}
	capacity := int(math.Ceil(f.cfg.LoadFactor * float64(total+1) / float64(len(cands))))
	for i, idx := range cands {
		if f.members[idx].node.LiveInstances() < capacity {
			if i > 0 {
				f.stats.Spills++
			}
			return idx, true
		}
	}
	f.stats.Spills++
	refFallbacks++
	return refLeastLoadedLocked(f, cands), true
}

func refLeastLoadedLocked(f *Fleet, cands []int) int {
	sorted := append([]int(nil), cands...)
	sort.Ints(sorted)
	best, bestLive := -1, 0
	for _, idx := range sorted {
		if l := f.members[idx].node.LiveInstances(); best < 0 || l < bestLive {
			best, bestLive = idx, l
		}
	}
	return best
}

func refPlaceForInvokeLocked(f *Fleet, name string, tried map[int]bool) (int, bool, bool) {
	if idx, ok := refPlaceLocked(f, name, tried); ok {
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
	return refLeastLoadedLocked(f, ejected), true, true
}

// TestPlaceMatchesReference drives the cached placement and the
// map-based reference through the same random fleets — 1 to 100
// machines, random Up/Down/ejected states, rings that predate a member
// going down, live loads, rising loads and exclude sets — and requires
// the same machine, the same ok and brownout verdicts, and the same
// Spills change from both.
func TestPlaceMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	fns := []string{"c-hello", "java-hello", "nodejs-hello", "python-hello", "ruby-hello"}
	factors := []float64{1.01, 1.25, 1.5, 2, 3}
	refFallbacks = 0
	for c := 0; c < 1000; c++ {
		machines := 1 + rng.Intn(100)
		f, nodes := stubFleet(machines, factors[rng.Intn(len(factors))])
		surge := rng.Intn(5) == 0
		for i, m := range f.members {
			switch rng.Intn(6) {
			case 0:
				m.state = StateDown
			case 1:
				m.ejected = true
			}
			nodes[i].live = rng.Intn(20)
			if rng.Intn(4) == 0 {
				nodes[i].live = 0
			}
			if surge {
				nodes[i].step = 1 + rng.Intn(50)
			}
		}
		f.rebuildRingLocked()
		// Members that go down after the ring was built (placement still
		// checks state), some of them still flagged ejected.
		for _, m := range f.members {
			if rng.Intn(15) == 0 {
				m.state = StateDown
			}
		}
		var exclude []int
		excludeSet := make(map[int]bool)
		for n := rng.Intn(4); n > 0; n-- {
			idx := rng.Intn(machines)
			if rng.Intn(2) == 0 {
				// Mostly exclude ring machines, as failovers do.
				if o := f.ring.walk(fns[0]); len(o) > 0 {
					idx = o[rng.Intn(len(o))]
				}
			}
			exclude = append(exclude, idx)
			excludeSet[idx] = true
		}
		name := fns[rng.Intn(len(fns))]
		desc := fmt.Sprintf("case %d: %d machines, fn %s, exclude %v", c, machines, name, exclude)

		if got, want := f.ring.walk(name), refWalk(f.ring, name); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: walk %v, reference %v", desc, got, want)
		}
		reset := func() {
			for _, n := range nodes {
				n.reads = 0
			}
		}

		f.stats.Spills = 0
		wantIdx, wantOK := refPlaceLocked(f, name, excludeSet)
		wantSpills := f.stats.Spills
		reset()
		f.stats.Spills = 0
		gotIdx, gotOK := f.placeLocked(name, exclude)
		if gotIdx != wantIdx || gotOK != wantOK || f.stats.Spills != wantSpills {
			t.Fatalf("%s: placeLocked = (%d, %v) spills %d, reference (%d, %v) spills %d",
				desc, gotIdx, gotOK, f.stats.Spills, wantIdx, wantOK, wantSpills)
		}

		reset()
		f.stats.Spills = 0
		wantIdx, wantBrown, wantOK := refPlaceForInvokeLocked(f, name, excludeSet)
		wantSpills = f.stats.Spills
		reset()
		f.stats.Spills = 0
		gotIdx, gotBrown, gotOK := f.placeForInvokeLocked(name, exclude)
		if gotIdx != wantIdx || gotBrown != wantBrown || gotOK != wantOK || f.stats.Spills != wantSpills {
			t.Fatalf("%s: placeForInvokeLocked = (%d, %v, %v) spills %d, reference (%d, %v, %v) spills %d",
				desc, gotIdx, gotBrown, gotOK, f.stats.Spills, wantIdx, wantBrown, wantOK, wantSpills)
		}

		var cands []int
		for n := rng.Intn(machines + 1); n > 0; n-- {
			cands = append(cands, rng.Intn(machines))
		}
		for _, m := range f.members {
			m.state = StateUp
		}
		reset()
		want := -1
		if len(cands) > 0 {
			want = refLeastLoadedLocked(f, cands)
		}
		reset()
		if got := f.leastLoadedLocked(cands, nil); got != want {
			t.Fatalf("%s: leastLoadedLocked(%v) = %d, reference %d", desc, cands, got, want)
		}
	}
	if refFallbacks == 0 {
		t.Fatal("no case reached the at-cap fallback")
	}
	t.Logf("%d cases took the at-cap fallback", refFallbacks)
}

func TestWalkCachedPerRing(t *testing.T) {
	f, _ := stubFleet(10, 0)
	first := f.ring.walk("c-hello")
	again := f.ring.walk("c-hello")
	if len(first) != 10 || &first[0] != &again[0] {
		t.Fatal("second walk did not return the cached order")
	}
	if fmt.Sprint(first) != fmt.Sprint(f.ring.order("c-hello")) {
		t.Fatalf("cached order %v differs from a fresh one", first)
	}
	if len(f.ring.orders) != 1 {
		t.Fatalf("cache holds %d orders after walking one key", len(f.ring.orders))
	}
	f.members[first[0]].state = StateDown
	f.rebuildRingLocked()
	if len(f.ring.orders) != 0 {
		t.Fatalf("rebuilt ring starts with %d cached orders", len(f.ring.orders))
	}
	if got := f.ring.walk("c-hello"); fmt.Sprint(got) != fmt.Sprint(first[1:]) {
		t.Fatalf("walk after rebuild %v, want %v", got, first[1:])
	}
}

// TestDispatchPathAllocsNothing guards the per-dispatch placement work
// on a warm fleet: placement on a stable ring, the healthy median and
// a failover placement allocate nothing, and a request for an
// undeployed function leaves no cached order behind.
func TestDispatchPathAllocsNothing(t *testing.T) {
	f := newTestFleet(t, Config{Machines: 4, Replication: 2})
	ctx := context.Background()
	if err := f.Deploy(ctx, "c-hello"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, _, err := f.Invoke(ctx, "c-hello", platform.CatalyzerRestore); err != nil {
			t.Fatal(err)
		}
	}
	f.mu.Lock()
	cached := len(f.ring.orders)
	f.mu.Unlock()
	if _, _, err := f.Invoke(ctx, "java-hello", platform.CatalyzerRestore); !errors.Is(err, ErrNotDeployed) {
		t.Fatalf("undeployed invoke: %v", err)
	}

	f.mu.Lock()
	defer f.mu.Unlock()
	if n := len(f.ring.orders); n != cached {
		t.Fatalf("undeployed invoke grew the order cache from %d to %d", cached, n)
	}
	if f.healthyMedianLocked(-1) <= 0 {
		t.Fatal("no scored samples after warm-up")
	}
	primary, _ := f.placeLocked("c-hello", nil)
	tried := []int{primary}
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"placeLocked", func() { f.placeLocked("c-hello", nil) }},
		{"healthyMedianLocked", func() { f.healthyMedianLocked(-1) }},
		{"placeForInvokeLocked", func() { f.placeForInvokeLocked("c-hello", tried) }},
	} {
		if n := testing.AllocsPerRun(100, c.fn); n != 0 {
			t.Errorf("%s allocates %v per call, want 0", c.name, n)
		}
	}
}

// placeSink keeps BenchmarkPlace's result live.
var placeSink int

// BenchmarkPlace times one placement on a stable ring of 10 and 100
// machines with a deployed function's order cached.
func BenchmarkPlace(b *testing.B) {
	for _, machines := range []int{10, 100} {
		b.Run(fmt.Sprintf("machines=%d", machines), func(b *testing.B) {
			f, nodes := stubFleet(machines, 0)
			for i, n := range nodes {
				n.live = i % 3
			}
			f.placeLocked("c-hello", nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				placeSink, _ = f.placeLocked("c-hello", nil)
			}
		})
	}
}
