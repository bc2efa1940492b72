package memory

import "slices"

// The page tables are radix tables with one level of 512-entry leaves,
// the fan-out of an x86-64 page-table page.
const (
	leafBits  = 9
	leafPages = 1 << leafBits
	leafMask  = leafPages - 1
)

// leaf maps leafPages consecutive pages; a zero entry is not present.
// shares counts the page tables holding the leaf. A leaf with more than
// one share is read-only: the first table to change it copies it.
//
// A leaf holds one frame reference per present entry, however many
// tables share it. slot is its index in the FrameTable's leaf registry.
type leaf struct {
	shares int32
	n      int32 // present entries
	slot   int32
	frames [leafPages]FrameID
}

// pageTable maps page numbers to frames. Leaves are kept sorted by leaf
// number, and every leaf holds at least one present entry.
//
// Methods that change a table take the FrameTable its frames live in, and
// hand frame references in and out: set and put take one from the
// caller, take gives one back. Lookups go through at, a binary search;
// runs of pages look each leaf up once through a walker.
type pageTable struct {
	keys   []uint64 // leaf numbers (page >> leafBits), ascending
	leaves []*leaf
	n      int // present entries over all leaves
}

// at returns the index of leaf key and the leaf, or the index to insert it
// at and nil.
func (pt *pageTable) at(key uint64) (int, *leaf) {
	i, ok := slices.BinarySearch(pt.keys, key)
	if !ok {
		return i, nil
	}
	return i, pt.leaves[i]
}

// own makes leaf i exclusive to this table, copying it if it is shared.
// The copy takes its own reference on every frame it maps.
func (pt *pageTable) own(ft *FrameTable, i int) *leaf {
	l := pt.leaves[i]
	if l.shares == 1 {
		return l
	}
	ft.unshare(l)
	c := ft.newLeaf()
	c.n, c.frames = l.n, l.frames
	ft.refAll(c)
	pt.leaves[i] = c
	return c
}

// set maps page, which must not be present, to f, taking over the
// caller's reference on f.
func (pt *pageTable) set(ft *FrameTable, page uint64, f FrameID) {
	key := page >> leafBits
	i, l := pt.at(key)
	pt.put(ft, i, l, key, page&leafMask, f)
}

// put is set for a caller that already holds at(key)'s result i, l. It
// returns the leaf now at i, which this table owns.
func (pt *pageTable) put(ft *FrameTable, i int, l *leaf, key, off uint64, f FrameID) *leaf {
	if l == nil {
		pt.keys = slices.Insert(pt.keys, i, key)
		pt.leaves = slices.Insert(pt.leaves, i, ft.newLeaf())
	}
	l = pt.own(ft, i)
	l.frames[off] = f
	l.n++
	pt.n++
	return l
}

// take unmaps entry off, which must be present, of leaf i and gives the
// caller one reference on the frame it mapped. It returns the leaf now at
// i, or nil if the entry was its last.
func (pt *pageTable) take(ft *FrameTable, i int, off uint64) (FrameID, *leaf) {
	l := pt.leaves[i]
	f := l.frames[off]
	pt.n--
	if l.n == 1 {
		// The last entry goes with its leaf; a shared leaf need not be
		// copied just to be emptied. It keeps its reference on f for the
		// tables still sharing it, so the caller gets a fresh one.
		if !ft.unshare(l) {
			ft.Ref(f)
		}
		pt.keys = slices.Delete(pt.keys, i, i+1)
		pt.leaves = slices.Delete(pt.leaves, i, i+1)
		return f, nil
	}
	l = pt.own(ft, i)
	l.frames[off] = 0
	l.n--
	return f, l
}

// share returns a table holding the same leaves, each with one more share.
// No frame reference changes: the leaves already hold them.
func (pt *pageTable) share(ft *FrameTable) pageTable {
	for _, l := range pt.leaves {
		l.shares++
	}
	ft.sharersOK = false
	return pageTable{keys: slices.Clone(pt.keys), leaves: slices.Clone(pt.leaves), n: pt.n}
}

// absorb moves every entry of src into pt, with its frame references, and
// empties src. The two tables must map disjoint pages, and src's leaves
// must be exclusive, as a Private-EPT's are.
func (pt *pageTable) absorb(ft *FrameTable, src *pageTable) {
	for j, s := range src.leaves {
		i, l := pt.at(src.keys[j])
		if l == nil {
			pt.keys = slices.Insert(pt.keys, i, src.keys[j])
			pt.leaves = slices.Insert(pt.leaves, i, s)
			continue
		}
		l = pt.own(ft, i)
		for off, f := range &s.frames {
			if f != 0 {
				l.frames[off] = f
			}
		}
		l.n += s.n
		ft.unshare(s) // its last share: s's references move to l
	}
	pt.n += src.n
	*src = pageTable{}
}

// shift renames every page p to p+delta by rebuilding the table. An old
// leaf's references move to the new leaves if this table held its last
// share; otherwise the new leaves take references of their own.
func (pt *pageTable) shift(ft *FrameTable, delta uint64) {
	old := *pt
	*pt = pageTable{}
	for i, l := range old.leaves {
		first := old.keys[i] << leafBits
		for off, f := range &l.frames {
			if f != 0 {
				pt.set(ft, first+uint64(off)+delta, f)
			}
		}
		if !ft.unshare(l) {
			ft.refAll(l)
		}
	}
}

// drop empties pt, dropping its share of every leaf, and every frame
// reference of the leaves whose last share that was.
func (pt *pageTable) drop(ft *FrameTable) {
	for _, l := range pt.leaves {
		if ft.unshare(l) {
			ft.unrefAll(l)
		}
	}
	*pt = pageTable{}
}
