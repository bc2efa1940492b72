package memory

import "testing"

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
	if err := as.PopulateRange(half, pages, nil, nil); err != nil {
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
