package memory

import "testing"

// hintTable is a pageTable beside a map of what it should hold.
type hintTable struct {
	t    *testing.T
	ft   *FrameTable
	pt   pageTable
	want map[uint64]FrameID
}

func (h *hintTable) set(page uint64) {
	h.t.Helper()
	f := h.ft.Allocate(page)
	h.pt.set(h.ft, page, f)
	h.want[page] = f
	h.check()
}

func (h *hintTable) del(page uint64) {
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

// check looks every page up from every possible hint, including hints
// that point past the end or at a leaf that has since moved.
func (h *hintTable) check() {
	h.t.Helper()
	if h.pt.n != len(h.want) {
		h.t.Fatalf("table holds %d entries, want %d", h.pt.n, len(h.want))
	}
	saved := h.pt.hint
	for hint := 0; hint <= len(h.pt.keys)+1; hint++ {
		for page := uint64(0); page < 8*leafPages; page += leafPages / 4 {
			for _, p := range []uint64{page, page + 1} {
				h.pt.hint = hint
				f, ok := h.pt.get(p)
				if want, mapped := h.want[p]; ok != mapped || f != want {
					h.t.Fatalf("hint %d: get(%d) = %d, %v; want %d, %v (keys %v)", hint, p, f, ok, want, mapped, h.pt.keys)
				}
			}
		}
	}
	h.pt.hint = saved
}

// The leaf hint is checked against the key, so lookups stay right after
// inserts and deletes shift the leaf it pointed at.
func TestPageTableHintSurvivesShifts(t *testing.T) {
	h := &hintTable{t: t, ft: NewFrameTable(), want: map[uint64]FrameID{}}
	for _, leafNo := range []uint64{2, 4, 6} {
		h.set(leafNo * leafPages)
		h.set(leafNo*leafPages + 1)
	}
	leaf4 := uint64(4 * leafPages)
	if _, ok := h.pt.get(leaf4); !ok || h.pt.keys[h.pt.hint] != 4 {
		t.Fatalf("lookup in leaf 4 left the hint at %d (keys %v)", h.pt.hint, h.pt.keys)
	}

	// Insert a leaf before the hinted one: leaf 4 moves from index 1 to 2.
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

	// Empty a leaf through del while the hint points at it.
	h.pt.get(leaf4)
	h.del(leaf4)
	h.del(leaf4 + 1)
	h.del(leaf4)
	h.set(leaf4 + 3) // and bring it back
	if h.ft.Live() != len(h.want) {
		t.Fatalf("Live = %d, want %d", h.ft.Live(), len(h.want))
	}
}
