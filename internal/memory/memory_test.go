package memory

import (
	"testing"
	"testing/quick"

	"catalyzer/internal/costmodel"
	"catalyzer/internal/simenv"
	"catalyzer/internal/simtime"
)

func newEnv() *simenv.Env { return simenv.New(costmodel.Default()) }

// fakeBacking backs pages [0,n) with stable shared frames, like a mapped
// func-image.
type fakeBacking struct {
	ft     *FrameTable
	frames []FrameID
}

func newFakeBacking(ft *FrameTable, contents []uint64) *fakeBacking {
	b := &fakeBacking{ft: ft}
	for _, c := range contents {
		b.frames = append(b.frames, ft.Allocate(c))
	}
	return b
}

func (b *fakeBacking) Frame(page uint64) (FrameID, bool) {
	if page < uint64(len(b.frames)) {
		return b.frames[page], true
	}
	return 0, false
}

func TestFrameTableRefcounting(t *testing.T) {
	ft := NewFrameTable()
	f := ft.Allocate(42)
	if ft.Refs(f) != 1 || ft.Content(f) != 42 {
		t.Fatalf("fresh frame refs=%d content=%d", ft.Refs(f), ft.Content(f))
	}
	ft.Ref(f)
	if ft.Refs(f) != 2 {
		t.Fatalf("refs = %d, want 2", ft.Refs(f))
	}
	ft.Unref(f)
	ft.Unref(f)
	if ft.Live() != 0 {
		t.Fatalf("Live = %d after final unref, want 0", ft.Live())
	}
}

func TestMapRejectsOverlapAndEmpty(t *testing.T) {
	env := newEnv()
	ft := NewFrameTable()
	as := NewAddressSpace(env, ft)
	if err := as.Map(VMA{Name: "a", Start: 0, End: 10}); err != nil {
		t.Fatal(err)
	}
	if err := as.Map(VMA{Name: "b", Start: 5, End: 15}); err == nil {
		t.Fatal("overlapping Map succeeded")
	}
	if err := as.Map(VMA{Name: "c", Start: 20, End: 20}); err == nil {
		t.Fatal("empty Map succeeded")
	}
}

func TestDemandFaultFromBacking(t *testing.T) {
	env := newEnv()
	ft := NewFrameTable()
	back := newFakeBacking(ft, []uint64{10, 11, 12})
	as := NewAddressSpace(env, ft)
	if err := as.Map(VMA{Name: "img", Start: 100, End: 103, Backing: back}); err != nil {
		t.Fatal(err)
	}
	got, err := as.Read(101)
	if err != nil || got != 11 {
		t.Fatalf("Read(101) = %d,%v; want 11,nil", got, err)
	}
	if as.Stats().DemandFaults != 1 {
		t.Fatalf("DemandFaults = %d, want 1", as.Stats().DemandFaults)
	}
	// Second read: already mapped, no new fault.
	if _, err := as.Read(101); err != nil {
		t.Fatal(err)
	}
	if as.Stats().DemandFaults != 1 {
		t.Fatalf("DemandFaults = %d after re-read, want 1", as.Stats().DemandFaults)
	}
	// The backing frame is shared: backing holds one ref, we hold another.
	f, _ := as.Translate(101)
	if ft.Refs(f) != 2 {
		t.Fatalf("shared frame refs = %d, want 2", ft.Refs(f))
	}
}

func TestCoWDoesNotMutateBase(t *testing.T) {
	env := newEnv()
	ft := NewFrameTable()
	back := newFakeBacking(ft, []uint64{7})
	a := NewAddressSpace(env, ft)
	b := NewAddressSpace(env, ft)
	for _, as := range []*AddressSpace{a, b} {
		if err := as.Map(VMA{Name: "img", Start: 0, End: 1, Backing: back}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Read(0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Read(0); err != nil {
		t.Fatal(err)
	}
	if err := a.Write(0, 99); err != nil {
		t.Fatal(err)
	}
	if a.Stats().CoWFaults != 1 {
		t.Fatalf("a CoWFaults = %d, want 1", a.Stats().CoWFaults)
	}
	got, _ := a.Read(0)
	if got != 99 {
		t.Fatalf("a sees %d, want 99", got)
	}
	got, _ = b.Read(0)
	if got != 7 {
		t.Fatalf("b sees %d after a's write, want 7 (CoW leaked)", got)
	}
	if ft.Content(back.frames[0]) != 7 {
		t.Fatal("backing frame mutated by CoW write")
	}
}

func TestAnonymousFirstTouch(t *testing.T) {
	env := newEnv()
	ft := NewFrameTable()
	as := NewAddressSpace(env, ft)
	if err := as.Map(VMA{Name: "heap", Start: 0, End: 4}); err != nil {
		t.Fatal(err)
	}
	if err := as.Write(2, 5); err != nil {
		t.Fatal(err)
	}
	got, _ := as.Read(2)
	if got != 5 {
		t.Fatalf("read-back = %d, want 5", got)
	}
	if got, _ := as.Read(3); got != 0 {
		t.Fatalf("untouched anon page = %d, want 0", got)
	}
}

func TestFaultOutsideVMA(t *testing.T) {
	env := newEnv()
	as := NewAddressSpace(env, NewFrameTable())
	if _, err := as.Read(1000); err == nil {
		t.Fatal("Read outside VMA succeeded")
	}
	if err := as.Write(1000, 1); err == nil {
		t.Fatal("Write outside VMA succeeded")
	}
}

func TestPopulateChargesPerPage(t *testing.T) {
	env := newEnv()
	ft := NewFrameTable()
	back := newFakeBacking(ft, []uint64{1, 2, 3, 4})
	as := NewAddressSpace(env, ft)
	if err := as.Map(VMA{Name: "img", Start: 0, End: 4, Backing: back}); err != nil {
		t.Fatal(err)
	}
	before := env.Now()
	if err := as.PopulateRange(0, 4, func(p uint64) uint64 { return 10 + p }, 3*simtime.Microsecond); err != nil {
		t.Fatal(err)
	}
	if got := env.Now() - before; got != 12*simtime.Microsecond {
		t.Fatalf("PopulateRange charged %v, want 4 pages × 3µs", got)
	}
	for p := uint64(0); p < 4; p++ {
		if got, err := as.Read(p); err != nil || got != 10+p {
			t.Fatalf("Read(%d) = %d,%v; want %d", p, got, err, 10+p)
		}
	}
	// Populated pages are private: a write must not CoW, and nothing
	// went through the fault path.
	if err := as.Write(0, 9); err != nil {
		t.Fatal(err)
	}
	if st := as.Stats(); st.CoWFaults != 0 || st.DemandFaults != 0 {
		t.Fatalf("stats = %+v after populating and writing, want no faults", st)
	}
}

func TestCloneCoWIsolation(t *testing.T) {
	env := newEnv()
	ft := NewFrameTable()
	parent := NewAddressSpace(env, ft)
	if err := parent.Map(VMA{Name: "heap", Start: 0, End: 8}); err != nil {
		t.Fatal(err)
	}
	for p := uint64(0); p < 8; p++ {
		if err := parent.Write(p, 100+p); err != nil {
			t.Fatal(err)
		}
	}
	child := parent.CloneCoW()

	// Child sees parent's state.
	for p := uint64(0); p < 8; p++ {
		got, err := child.Read(p)
		if err != nil || got != 100+p {
			t.Fatalf("child Read(%d) = %d,%v; want %d", p, got, err, 100+p)
		}
	}
	// Child write does not affect parent.
	if err := child.Write(3, 999); err != nil {
		t.Fatal(err)
	}
	if got, _ := parent.Read(3); got != 103 {
		t.Fatalf("parent sees %d after child write, want 103", got)
	}
	// Parent write after fork does not affect child.
	if err := parent.Write(4, 555); err != nil {
		t.Fatal(err)
	}
	if got, _ := child.Read(4); got != 104 {
		t.Fatalf("child sees %d after parent write, want 104", got)
	}
}

func TestCloneCoWSharesPSS(t *testing.T) {
	env := newEnv()
	ft := NewFrameTable()
	parent := NewAddressSpace(env, ft)
	if err := parent.Map(VMA{Name: "heap", Start: 0, End: 100}); err != nil {
		t.Fatal(err)
	}
	for p := uint64(0); p < 100; p++ {
		if err := parent.Write(p, p); err != nil {
			t.Fatal(err)
		}
	}
	if got := parent.PSS(); got != 100*PageSize {
		t.Fatalf("pre-fork PSS = %v, want %d", got, 100*PageSize)
	}
	children := []*AddressSpace{parent.CloneCoW(), parent.CloneCoW(), parent.CloneCoW()}
	// Four spaces share every frame: PSS per space = RSS/4.
	if got, want := parent.PSS(), float64(100*PageSize)/4; got != want {
		t.Fatalf("post-fork parent PSS = %v, want %v", got, want)
	}
	for i, c := range children {
		if got := c.RSS(); got != 100*PageSize {
			t.Fatalf("child %d RSS = %d, want %d", i, got, 100*PageSize)
		}
		if got, want := c.PSS(), float64(100*PageSize)/4; got != want {
			t.Fatalf("child %d PSS = %v, want %v", i, got, want)
		}
	}
}

func TestReleaseFreesFrames(t *testing.T) {
	env := newEnv()
	ft := NewFrameTable()
	as := NewAddressSpace(env, ft)
	if err := as.Map(VMA{Name: "heap", Start: 0, End: 16}); err != nil {
		t.Fatal(err)
	}
	for p := uint64(0); p < 16; p++ {
		if err := as.Write(p, p); err != nil {
			t.Fatal(err)
		}
	}
	if ft.Live() != 16 {
		t.Fatalf("Live = %d, want 16", ft.Live())
	}
	as.Release()
	if ft.Live() != 0 {
		t.Fatalf("Live = %d after Release, want 0", ft.Live())
	}
	as.Release() // idempotent
}

// Property: after CloneCoW, for any interleaving of parent/child writes,
// reads never observe the other side's values (isolation), and base frames
// are never mutated.
func TestCloneCoWIsolationProperty(t *testing.T) {
	f := func(writes []struct {
		Page    uint8
		Val     uint16
		ToChild bool
	}) bool {
		env := newEnv()
		ft := NewFrameTable()
		parent := NewAddressSpace(env, ft)
		if err := parent.Map(VMA{Start: 0, End: 256, Name: "h"}); err != nil {
			return false
		}
		expectParent := map[uint64]uint64{}
		expectChild := map[uint64]uint64{}
		for p := uint64(0); p < 256; p++ {
			parent.Write(p, p)
			expectParent[p] = p
			expectChild[p] = p
		}
		child := parent.CloneCoW()
		for _, w := range writes {
			page, val := uint64(w.Page), uint64(w.Val)+1000
			if w.ToChild {
				child.Write(page, val)
				expectChild[page] = val
			} else {
				parent.Write(page, val)
				expectParent[page] = val
			}
		}
		for p := uint64(0); p < 256; p++ {
			pv, err1 := parent.Read(p)
			cv, err2 := child.Read(p)
			if err1 != nil || err2 != nil {
				return false
			}
			if pv != expectParent[p] || cv != expectChild[p] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the private EPT always overrides the base EPT in Translate,
// and PSS never exceeds RSS.
func TestTranslateMergeProperty(t *testing.T) {
	f := func(reads, writes []uint8) bool {
		env := newEnv()
		ft := NewFrameTable()
		contents := make([]uint64, 256)
		for i := range contents {
			contents[i] = uint64(i) + 7
		}
		back := newFakeBacking(ft, contents)
		as := NewAddressSpace(env, ft)
		if err := as.Map(VMA{Start: 0, End: 256, Backing: back, Name: "img"}); err != nil {
			return false
		}
		for _, r := range reads {
			if _, err := as.Read(uint64(r)); err != nil {
				return false
			}
		}
		written := map[uint64]bool{}
		for _, w := range writes {
			if err := as.Write(uint64(w), 5000+uint64(w)); err != nil {
				return false
			}
			written[uint64(w)] = true
		}
		for p := uint64(0); p < 256; p++ {
			got, err := as.Read(p)
			if err != nil {
				return false
			}
			if written[p] && got != 5000+p {
				return false
			}
			if !written[p] && got != p+7 {
				return false
			}
		}
		return as.PSS() <= float64(as.RSS())+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
