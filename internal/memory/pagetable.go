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
type leaf struct {
	shares int32
	n      int32 // present entries
	frames [leafPages]FrameID
}

// pageTable maps page numbers to frames. Leaves are kept sorted by leaf
// number, and every leaf holds at least one present entry.
type pageTable struct {
	keys   []uint64 // leaf numbers (page >> leafBits), ascending
	leaves []*leaf
	n      int // present entries over all leaves
}

func (pt *pageTable) get(page uint64) (FrameID, bool) {
	i, ok := slices.BinarySearch(pt.keys, page>>leafBits)
	if !ok {
		return 0, false
	}
	f := pt.leaves[i].frames[page&leafMask]
	return f, f != 0
}

// own makes leaf i exclusive to this table, copying it if it is shared.
func (pt *pageTable) own(i int) *leaf {
	l := pt.leaves[i]
	if l.shares == 1 {
		return l
	}
	l.shares--
	c := &leaf{shares: 1, n: l.n, frames: l.frames}
	pt.leaves[i] = c
	return c
}

// set maps page, which must not be present, to f.
func (pt *pageTable) set(page uint64, f FrameID) {
	key := page >> leafBits
	i, ok := slices.BinarySearch(pt.keys, key)
	if !ok {
		pt.keys = slices.Insert(pt.keys, i, key)
		pt.leaves = slices.Insert(pt.leaves, i, &leaf{shares: 1})
	}
	l := pt.own(i)
	l.frames[page&leafMask] = f
	l.n++
	pt.n++
}

// del unmaps page, reporting the frame it mapped.
func (pt *pageTable) del(page uint64) (FrameID, bool) {
	i, ok := slices.BinarySearch(pt.keys, page>>leafBits)
	if !ok {
		return 0, false
	}
	l := pt.leaves[i]
	f := l.frames[page&leafMask]
	if f == 0 {
		return 0, false
	}
	pt.n--
	if l.n == 1 {
		// The last entry goes with its leaf; a shared leaf need not be
		// copied just to be emptied.
		l.shares--
		pt.keys = slices.Delete(pt.keys, i, i+1)
		pt.leaves = slices.Delete(pt.leaves, i, i+1)
		return f, true
	}
	l = pt.own(i)
	l.frames[page&leafMask] = 0
	l.n--
	return f, true
}

// share returns a table holding the same leaves, each with one more share.
func (pt *pageTable) share() pageTable {
	for _, l := range pt.leaves {
		l.shares++
	}
	return pageTable{keys: slices.Clone(pt.keys), leaves: slices.Clone(pt.leaves), n: pt.n}
}

// absorb moves every entry of src into pt and empties src. The two tables
// must map disjoint pages.
func (pt *pageTable) absorb(src *pageTable) {
	if src.n == 0 {
		return
	}
	keys := make([]uint64, 0, len(pt.keys)+len(src.keys))
	leaves := make([]*leaf, 0, cap(keys))
	i, j := 0, 0
	for i < len(pt.keys) || j < len(src.keys) {
		switch {
		case j == len(src.keys) || i < len(pt.keys) && pt.keys[i] < src.keys[j]:
			keys, leaves = append(keys, pt.keys[i]), append(leaves, pt.leaves[i])
			i++
		case i == len(pt.keys) || src.keys[j] < pt.keys[i]:
			keys, leaves = append(keys, src.keys[j]), append(leaves, src.leaves[j])
			j++
		default:
			l, s := pt.own(i), src.leaves[j]
			for off, f := range &s.frames {
				if f != 0 {
					l.frames[off] = f
				}
			}
			l.n += s.n
			s.shares--
			keys, leaves = append(keys, pt.keys[i]), append(leaves, l)
			i++
			j++
		}
	}
	pt.keys, pt.leaves, pt.n = keys, leaves, pt.n+src.n
	*src = pageTable{}
}

// shift renames every page p to p+delta by rebuilding the table.
func (pt *pageTable) shift(delta uint64) {
	old := *pt
	*pt = pageTable{}
	for i, l := range old.leaves {
		first := old.keys[i] << leafBits
		for off, f := range &l.frames {
			if f != 0 {
				pt.set(first+uint64(off)+delta, f)
			}
		}
		l.shares--
	}
}
