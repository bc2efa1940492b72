package memory

import "testing"

func (pt *pageTable) get(page uint64) (FrameID, bool) {
	_, l := pt.at(page >> leafBits)
	if l == nil {
		return 0, false
	}
	f := l.frames[page&leafMask]
	return f, f != 0
}

// del unmaps page, reporting the frame it mapped. The caller receives one
// reference on that frame.
func (pt *pageTable) del(ft *FrameTable, page uint64) (FrameID, bool) {
	i, l := pt.at(page >> leafBits)
	if l == nil || l.frames[page&leafMask] == 0 {
		return 0, false
	}
	f, _ := pt.take(ft, i, page&leafMask)
	return f, true
}

// checkedTable is a pageTable beside a map of what it should hold.
type checkedTable struct {
	t    *testing.T
	ft   *FrameTable
	pt   pageTable
	want map[uint64]FrameID
}

func (h *checkedTable) set(page uint64) {
	h.t.Helper()
	f := h.ft.Allocate(page)
	h.pt.set(h.ft, page, f)
	h.want[page] = f
	h.check()
}

func (h *checkedTable) del(page uint64) {
	h.t.Helper()
	f, ok := h.pt.del(h.ft, page)
	if want, mapped := h.want[page]; ok != mapped || f != want {
		h.t.Fatalf("del(%d) = %d, %v; want %d, %v", page, f, ok, want, mapped)
	}
	if ok {
		h.ft.Unref(f)
		delete(h.want, page)
	}
	h.check()
}

// check looks up every page near the leaves' edges.
func (h *checkedTable) check() {
	h.t.Helper()
	if h.pt.n != len(h.want) {
		h.t.Fatalf("table holds %d entries, want %d", h.pt.n, len(h.want))
	}
	for page := uint64(0); page < 8*leafPages; page += leafPages / 4 {
		for _, p := range []uint64{page, page + 1} {
			f, ok := h.pt.get(p)
			if want, mapped := h.want[p]; ok != mapped || f != want {
				h.t.Fatalf("get(%d) = %d, %v; want %d, %v (keys %v)", p, f, ok, want, mapped, h.pt.keys)
			}
		}
	}
}

// Lookups stay right after inserts and deletes shift the leaves' indices.
func TestPageTableLookupsSurviveShifts(t *testing.T) {
	h := &checkedTable{t: t, ft: NewFrameTable(), want: map[uint64]FrameID{}}
	for _, leafNo := range []uint64{2, 4, 6} {
		h.set(leafNo * leafPages)
		h.set(leafNo*leafPages + 1)
	}
	leaf4 := uint64(4 * leafPages)

	// Insert a leaf before leaf 4: it moves from index 1 to 2.
	h.set(3 * leafPages)
	h.set(leaf4 + 2)
	h.del(leaf4 + 2)

	// Delete the leaf at index 0 (leaf 2) through its entries.
	h.del(2*leafPages + 1)
	h.del(2 * leafPages)
	if h.pt.keys[0] != 3 {
		t.Fatalf("keys %v, want leaf 2 gone", h.pt.keys)
	}
	h.del(2 * leafPages) // absent now

	// Empty a leaf through del.
	h.del(leaf4)
	h.del(leaf4 + 1)
	h.del(leaf4)
	h.set(leaf4 + 3) // and bring it back
	if h.ft.Live() != len(h.want) {
		t.Fatalf("Live = %d, want %d", h.ft.Live(), len(h.want))
	}
}
