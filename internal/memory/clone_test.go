package memory

import (
	"slices"
	"testing"
)

// templateSpace returns an sfork-template-like space mapping pages pages:
// the first half faulted from a func-image backing into the Base-EPT,
// the second half a privately written heap.
func templateSpace(tb testing.TB, pages uint64) *AddressSpace {
	tb.Helper()
	ft := NewFrameTable()
	half := pages / 2
	contents := make([]uint64, half)
	for i := range contents {
		contents[i] = uint64(i)
	}
	as := NewAddressSpace(newEnv(), ft)
	if err := as.Map(VMA{Name: "img", Start: 0, End: half, Backing: newFakeBacking(ft, contents)}); err != nil {
		tb.Fatal(err)
	}
	if err := as.Map(VMA{Name: "heap", Start: half, End: pages}); err != nil {
		tb.Fatal(err)
	}
	for p := uint64(0); p < half; p++ {
		if _, err := as.Read(p); err != nil {
			tb.Fatal(err)
		}
	}
	if err := as.PopulateRange(half, pages, nil, 0); err != nil {
		tb.Fatal(err)
	}
	return as
}

// CloneCoW shares page-table leaves instead of copying entries, so its
// allocations are a constant independent of the space's size, and a
// Release that frees no frame allocates nothing.
func TestCloneCoWAllocsConstant(t *testing.T) {
	var got []float64
	for _, pages := range []uint64{4 << 10, 40 << 10} {
		as := templateSpace(t, pages)
		// AllocsPerRun's warm-up clone demotes the template's private
		// pages; every measured clone then finds a settled Base-EPT.
		got = append(got, testing.AllocsPerRun(10, func() { as.CloneCoW().Release() }))
		if as.MappedPages() != int(pages) {
			t.Fatalf("template maps %d pages after clones, want %d", as.MappedPages(), pages)
		}
	}
	if got[0] != got[1] || got[0] > 4 {
		t.Fatalf("allocs per CloneCoW+Release: %v at 4k pages, %v at 40k pages; want one constant of at most 4", got[0], got[1])
	}
}

func BenchmarkCloneCoW(b *testing.B) {
	as := templateSpace(b, 40<<10)
	as.CloneCoW().Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := as.CloneCoW()
		b.StopTimer()
		c.Release()
		b.StartTimer()
	}
}

func BenchmarkRelease(b *testing.B) {
	as := templateSpace(b, 40<<10)
	as.CloneCoW().Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := as.CloneCoW()
		b.StartTimer()
		c.Release()
	}
}

// Frame references belong to page-table leaves, so a clone and its release
// touch no frame's stored count, and a child's first write through a
// shared leaf touches only that leaf's frames.
func TestCloneCoWTouchesLeavesNotFrames(t *testing.T) {
	as := templateSpace(t, 40<<10)
	ft := as.ft
	as.CloneCoW().Release() // settle: the template's private pages join its Base-EPT
	refs, free := slices.Clone(ft.refs), slices.Clone(ft.free)
	unchanged := func(when string) {
		t.Helper()
		if !slices.Equal(ft.refs, refs) || !slices.Equal(ft.free, free) {
			t.Fatalf("%s changed the stored frame counts or the free list", when)
		}
	}

	child := as.CloneCoW()
	unchanged("CloneCoW")
	child.Release()
	unchanged("CloneCoW then Release")

	child = as.CloneCoW()
	defer child.Release()
	const page = 30000 // a heap page, inside leaf 58
	written, _ := child.Translate(page)
	if err := child.Write(page, 7); err != nil {
		t.Fatal(err)
	}
	fresh, _ := child.Translate(page)
	inLeaf := map[FrameID]bool{fresh: true}
	for p := uint64(page &^ leafMask); p < page&^leafMask+leafPages; p++ {
		f, _ := as.Translate(p)
		inLeaf[f] = true
	}
	changed := 0
	for f := range refs {
		if ft.refs[f] == refs[f] {
			continue
		}
		if !inLeaf[FrameID(f)] || FrameID(f) == written {
			t.Fatalf("frame %d outside the written page's leaf: stored count %d, was %d", f, ft.refs[f], refs[f])
		}
		changed++
	}
	if changed != leafPages-1 {
		t.Fatalf("write changed the stored counts of %d frames, want the %d other frames of its leaf", changed, leafPages-1)
	}
}
