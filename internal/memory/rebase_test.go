package memory

import (
	"testing"
	"testing/quick"
)

func TestRebaseMovesMappingsAndVMAs(t *testing.T) {
	env := newEnv()
	ft := NewFrameTable()
	as := NewAddressSpace(env, ft)
	if err := as.Map(VMA{Name: "heap", Start: 100, End: 110}); err != nil {
		t.Fatal(err)
	}
	for p := uint64(100); p < 110; p++ {
		if err := as.Write(p, p*7); err != nil {
			t.Fatal(err)
		}
	}
	as.Rebase(1000)
	// Old addresses fault outside any VMA.
	if _, err := as.Read(105); err == nil {
		t.Fatal("old address still mapped after rebase")
	}
	// New addresses carry the same contents.
	for p := uint64(100); p < 110; p++ {
		got, err := as.Read(p + 1000)
		if err != nil {
			t.Fatal(err)
		}
		if got != p*7 {
			t.Fatalf("page %d content = %d, want %d", p+1000, got, p*7)
		}
	}
	vmas := as.VMAs()
	if vmas[0].Start != 1100 || vmas[0].End != 1110 {
		t.Fatalf("VMA not shifted: %+v", vmas[0])
	}
	// No frames gained or lost.
	if ft.Live() != 10 {
		t.Fatalf("frames = %d after rebase, want 10", ft.Live())
	}
	as.Rebase(0) // no-op
	if _, err := as.Read(1105); err != nil {
		t.Fatal("zero rebase broke mappings")
	}
}

func TestRebaseKeepsBackingOffsets(t *testing.T) {
	env := newEnv()
	ft := NewFrameTable()
	back := newFakeBacking(ft, []uint64{11, 22, 33})
	as := NewAddressSpace(env, ft)
	if err := as.Map(VMA{Name: "img", Start: 50, End: 53, Backing: back}); err != nil {
		t.Fatal(err)
	}
	if _, err := as.Read(51); err != nil { // fault one page pre-rebase
		t.Fatal(err)
	}
	as.Rebase(500)
	got, err := as.Read(552) // demand fault post-rebase
	if err != nil {
		t.Fatal(err)
	}
	if got != 33 {
		t.Fatalf("backed page content = %d, want 33 (offset preserved)", got)
	}
	got, err = as.Read(551) // pre-rebase fault moved with the space
	if err != nil || got != 22 {
		t.Fatalf("moved page = %d,%v want 22", got, err)
	}
}

// Property: for any delta and any write pattern, rebase is a pure
// renaming — contents, RSS, PSS and fault behaviour are preserved.
func TestRebaseIsPureRenamingProperty(t *testing.T) {
	f := func(writes []uint8, delta16 uint16) bool {
		env := newEnv()
		ft := NewFrameTable()
		as := NewAddressSpace(env, ft)
		if err := as.Map(VMA{Name: "h", Start: 0, End: 256}); err != nil {
			return false
		}
		contents := map[uint64]uint64{}
		for i, w := range writes {
			p := uint64(w)
			v := uint64(i) + 1
			if err := as.Write(p, v); err != nil {
				return false
			}
			contents[p] = v
		}
		rssBefore, pssBefore := as.RSS(), as.PSS()
		delta := uint64(delta16)
		as.Rebase(delta)
		if as.RSS() != rssBefore || as.PSS() != pssBefore {
			return false
		}
		for p, v := range contents {
			got, err := as.Read(p + delta)
			if err != nil || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPopulateRangeReplacesBaseAndUnrefs(t *testing.T) {
	env := newEnv()
	ft := NewFrameTable()
	back := newFakeBacking(ft, []uint64{1, 2})
	as := NewAddressSpace(env, ft)
	if err := as.Map(VMA{Name: "img", Start: 7, End: 9, Backing: back}); err != nil {
		t.Fatal(err)
	}
	if _, err := as.Read(7); err != nil {
		t.Fatal(err)
	}
	if got, ok := as.Translate(7); !ok || got != back.frames[0] {
		t.Fatal("demand fault did not map the backing frame")
	}
	if ft.Refs(back.frames[0]) != 2 {
		t.Fatalf("refs = %d, want 2", ft.Refs(back.frames[0]))
	}
	if err := as.PopulateRange(7, 9, func(uint64) uint64 { return 5 }, 0); err != nil {
		t.Fatal(err)
	}
	// Replaced: the space's reference on the backing frame is gone, and
	// the page is counted once.
	f, ok := as.Translate(7)
	if !ok || f == back.frames[0] || ft.Content(f) != 5 {
		t.Fatalf("page 7 -> frame %d (ok=%v), want a private frame holding 5", f, ok)
	}
	if ft.Refs(back.frames[0]) != 1 || ft.Content(back.frames[0]) != 1 {
		t.Fatalf("backing frame refs=%d content=%d, want 1,1", ft.Refs(back.frames[0]), ft.Content(back.frames[0]))
	}
	if as.MappedPages() != 2 || ft.Live() != 4 {
		t.Fatalf("MappedPages=%d Live=%d, want 2 and 4", as.MappedPages(), ft.Live())
	}
}

func TestPopulateRangeRejectsOutsideVMA(t *testing.T) {
	env := newEnv()
	ft := NewFrameTable()
	as := NewAddressSpace(env, ft)
	if err := as.Map(VMA{Name: "anon", Start: 0, End: 4}); err != nil {
		t.Fatal(err)
	}
	if err := as.PopulateRange(100, 104, nil, 0); err == nil {
		t.Fatal("PopulateRange outside VMA succeeded")
	}
	if err := as.PopulateRange(2, 6, nil, 0); err == nil {
		t.Fatal("PopulateRange running off the end of a VMA succeeded")
	}
}
