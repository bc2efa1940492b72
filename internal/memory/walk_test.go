package memory

import (
	"math/rand"
	"slices"
	"testing"

	"catalyzer/internal/simenv"
)

// touchWorld is a frame table with a few address spaces, built by a
// seeded sequence of operations: a space with a backed image VMA and a
// heap, CoW children, released children, pages read, written and
// populated, extra VMAs and rebases. The same seed builds the same world,
// frame IDs included.
type touchWorld struct {
	env    *simenv.Env
	ft     *FrameTable
	spaces []*AddressSpace
}

func buildTouchWorld(t *testing.T, seed int64) *touchWorld {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	ft := NewFrameTable()
	contents := make([]uint64, modelBackedPages)
	for i := range contents {
		contents[i] = 1<<32 | uint64(i)
	}
	back := newFakeBacking(ft, contents)
	w := &touchWorld{env: newEnv(), ft: ft}
	root := NewAddressSpace(w.env, ft)
	for _, v := range []VMA{
		{Name: "img", Start: 0, End: modelImageEnd, Backing: back},
		{Name: "heap", Start: modelHeapStart, End: modelHeapEnd},
	} {
		if err := root.Map(v); err != nil {
			t.Fatal(err)
		}
	}
	w.spaces = append(w.spaces, root)
	// Errors are part of the world: both builds of a seed see the same.
	for step := 0; step < 60; step++ {
		i := r.Intn(len(w.spaces))
		s := w.spaces[i]
		p := pickPage(r, s)
		switch r.Intn(8) {
		case 0, 1:
			_, _ = s.Read(p)
		case 2, 3:
			_ = s.Write(p, r.Uint64())
		case 4:
			_ = s.PopulateRange(p, p+uint64(r.Intn(700)), func(q uint64) uint64 { return q ^ 0x5a }, 3)
		case 5:
			if len(w.spaces) < 5 {
				w.spaces = append(w.spaces, s.CloneCoW())
			}
		case 6:
			if i > 0 {
				s.Release()
				w.spaces = slices.Delete(w.spaces, i, i+1)
			}
		case 7:
			if r.Intn(2) == 0 {
				s.Rebase(uint64(r.Intn(600)))
			} else {
				start := uint64(modelHeapEnd + r.Intn(3000))
				_ = s.Map(VMA{Name: "extra", Start: start, End: start + uint64(1+r.Intn(700))})
			}
		}
	}
	return w
}

// pickPage chooses a page in one of s's VMAs, or one just before it, which
// may lie outside every VMA.
func pickPage(r *rand.Rand, s *AddressSpace) uint64 {
	vs := s.VMAs()
	v := vs[r.Intn(len(vs))]
	if r.Intn(6) == 0 && v.Start > 0 {
		return v.Start - 1
	}
	return v.Start + uint64(r.Int63n(int64(v.Pages())))
}

// touchLoop is Touch as a loop of Read and Write calls.
func touchLoop(as *AddressSpace, env *simenv.Env, start uint64, n, every int) error {
	for i := 0; i < n; i++ {
		p := start + uint64(i)
		if _, err := as.Read(p); err != nil {
			return err
		}
		if every > 0 && i%every == 0 {
			if err := as.Write(p, uint64(env.Now())|1); err != nil {
				return err
			}
		}
	}
	return nil
}

// mappedFrames lists Translate over every page of every VMA of as.
func mappedFrames(as *AddressSpace) []FrameID {
	var out []FrameID
	for _, v := range as.VMAs() {
		for p := v.Start; p < v.End; p++ {
			f, _ := as.Translate(p)
			out = append(out, f)
		}
	}
	return out
}

// Property: Touch has exactly the effects of the per-page loop of Read
// and Write calls: the same frames mapped, contents, refcounts, free
// list, Stats, clock, Live and error.
func TestTouchMatchesReadWriteLoop(t *testing.T) {
	for seed := int64(1); seed <= 80; seed++ {
		a, b := buildTouchWorld(t, seed), buildTouchWorld(t, seed)
		r := rand.New(rand.NewSource(-seed))
		i := r.Intn(len(a.spaces))
		start := pickPage(r, a.spaces[i])
		n, every := r.Intn(1300), r.Intn(6)
		errA := a.spaces[i].Touch(start, n, every)
		errB := touchLoop(b.spaces[i], b.env, start, n, every)
		if (errA == nil) != (errB == nil) || errA != nil && errA.Error() != errB.Error() {
			t.Fatalf("seed %d: Touch(%d, %d, %d) error %v, loop error %v", seed, start, n, every, errA, errB)
		}
		if a.env.Now() != b.env.Now() || a.ft.Live() != b.ft.Live() {
			t.Fatalf("seed %d: clock %v, Live %d after Touch; %v, %d after the loop", seed, a.env.Now(), a.ft.Live(), b.env.Now(), b.ft.Live())
		}
		if !slices.Equal(a.ft.refs, b.ft.refs) || !slices.Equal(a.ft.content, b.ft.content) || !slices.Equal(a.ft.free, b.ft.free) {
			t.Fatalf("seed %d: frame refcounts, contents or free list differ", seed)
		}
		for j := range a.spaces {
			if a.spaces[j].Stats() != b.spaces[j].Stats() {
				t.Fatalf("seed %d space %d: Stats %+v after Touch, %+v after the loop", seed, j, a.spaces[j].Stats(), b.spaces[j].Stats())
			}
			if !slices.Equal(mappedFrames(a.spaces[j]), mappedFrames(b.spaces[j])) {
				t.Fatalf("seed %d space %d: mapped frames differ", seed, j)
			}
		}
	}
}

// A leaf whose last share is dropped is reused by the next newLeaf,
// zeroed, with one share and a slot of its own in the registry.
func TestRecycledLeafComesBackFresh(t *testing.T) {
	tmpl := templateSpace(t, 4*leafPages)
	tmpl.CloneCoW().Release() // settle: the template's pages join its Base-EPT
	ft := tmpl.ft
	c := tmpl.CloneCoW()
	if err := c.Write(leafPages+3, 9); err != nil {
		t.Fatal(err)
	}
	dirty := c.private.leaves[0]
	if dirty.frames[3] == 0 || dirty.n != 1 {
		t.Fatal("the child's write did not land in a private leaf")
	}
	c.Release() // the private leaf is dropped last, so it is reused first
	l := ft.newLeaf()
	defer ft.unshare(l)
	if l != dirty {
		t.Fatal("newLeaf did not reuse the last leaf released")
	}
	if l.shares != 1 || l.n != 0 || l.frames != [leafPages]FrameID{} {
		t.Fatalf("recycled leaf: shares %d, %d entries, frames zero %v; want 1, 0, true", l.shares, l.n, l.frames == [leafPages]FrameID{})
	}
	if int(l.slot) != len(ft.leaves)-1 || ft.leaves[l.slot] != l {
		t.Fatalf("recycled leaf has slot %d of %d registered leaves", l.slot, len(ft.leaves))
	}
}

// tableSink keeps the reference page table of the allocation guard on
// the heap, as an address space's tables are.
var tableSink pageTable

// On a warmed frame table, a fork that copies and creates leaves, touches
// its working set and is released allocates no leaf. What it allocates is
// the clone's own and its Private-EPT's two slices growing to hold the
// new leaves, both measured here on their own. The fork needs two leaves
// per leaf it writes, within the spare list's cap of the template's 16.
func TestForkTouchReleaseAllocatesNoLeaf(t *testing.T) {
	const leaves = 4
	tmpl := templateSpace(t, 16*leafPages)
	tmpl.CloneCoW().Release()
	clone := testing.AllocsPerRun(20, func() { tmpl.CloneCoW().Release() })
	grow := testing.AllocsPerRun(20, func() {
		var pt pageTable
		for k := 0; k < leaves; k++ {
			pt.keys = slices.Insert(pt.keys, k, uint64(k))
			pt.leaves = slices.Insert(pt.leaves, k, (*leaf)(nil))
		}
		tableSink = pt
	})
	var cows int
	touch := testing.AllocsPerRun(20, func() {
		c := tmpl.CloneCoW()
		if err := c.Touch(0, leaves*leafPages, 4); err != nil {
			t.Fatal(err)
		}
		cows = c.Stats().CoWFaults
		c.Release()
	})
	if cows != leaves*leafPages/4 {
		t.Fatalf("%d CoW faults per fork, want %d", cows, leaves*leafPages/4)
	}
	if touch != clone+grow {
		t.Fatalf("fork+touch+release allocates %v times, want %v (clone) + %v (Private-EPT slices): leaves are not reused", touch, clone, grow)
	}
}

// The spare list never outgrows the registry of live leaves: it fills up
// as forks are released, stays capped by the template's own leaves, and
// empties with the template.
func TestSpareLeavesBoundedByLiveLeaves(t *testing.T) {
	const leaves = 8
	tmpl := templateSpace(t, leaves*leafPages)
	ft := tmpl.ft
	var kids []*AddressSpace
	for i := 0; i < 6; i++ {
		c := tmpl.CloneCoW()
		if err := c.Touch(uint64(i)*leafPages/2, 3*leafPages, 4); err != nil {
			t.Fatal(err)
		}
		kids = append(kids, c)
	}
	for i, c := range kids {
		c.Release()
		if len(ft.spare) > len(ft.leaves) {
			t.Fatalf("after releasing fork %d: %d spare leaves, %d live", i, len(ft.spare), len(ft.leaves))
		}
	}
	if len(ft.leaves) != leaves || len(ft.spare) != leaves {
		t.Fatalf("with only the template left: %d live leaves, %d spare; want %d and %d", len(ft.leaves), len(ft.spare), leaves, leaves)
	}
	tmpl.Release()
	if len(ft.leaves) != 0 || len(ft.spare) != 0 {
		t.Fatalf("after releasing the template: %d live leaves, %d spare; want none", len(ft.leaves), len(ft.spare))
	}
}

// BenchmarkForkTouchRelease is a fork boot and one execution of a
// SPECjbb-sized function: clone a template of 51,200 heap pages, touch
// 5,000 of them with every 4th written, and release the clone.
func BenchmarkForkTouchRelease(b *testing.B) {
	const pages, touched = 51200, 5000
	tmpl := NewAddressSpace(newEnv(), NewFrameTable())
	if err := tmpl.Map(VMA{Name: "heap", Start: 0, End: pages}); err != nil {
		b.Fatal(err)
	}
	if err := tmpl.PopulateRange(0, pages, func(p uint64) uint64 { return p }, 0); err != nil {
		b.Fatal(err)
	}
	tmpl.CloneCoW().Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := tmpl.CloneCoW()
		if err := c.Touch(0, touched, 4); err != nil {
			b.Fatal(err)
		}
		c.Release()
	}
}
