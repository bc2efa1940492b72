// Package memory implements the reproduction's host-memory substrate: a
// refcounted frame table, virtual address spaces with the paper's two-level
// overlay EPT (a shared read-only Base-EPT under a private copy-on-write
// Private-EPT, §3.1), demand paging, fork-style CoW cloning for sfork, and
// RSS/PSS accounting for the Figure 14 memory study.
//
// Frames do not carry real 4 KiB buffers; each frame stores a 64-bit
// content token. That keeps thousand-instance scalability experiments
// cheap while still letting tests verify isolation (a child's write never
// changes the content another sandbox observes).
package memory

import "fmt"

// PageSize is the simulated page size in bytes.
const PageSize = 4096

// FrameID names a host physical frame. Zero is never a valid frame.
type FrameID uint64

// FrameTable models host physical memory: a set of refcounted frames.
// One FrameTable is shared by every sandbox on a simulated machine, which
// is what makes cross-sandbox page sharing (and PSS) observable.
//
// Frames live in parallel slices indexed by FrameID; a frame is allocated
// while its refcount is positive. Freed IDs go on a LIFO free list and are
// reused before the slices grow, so the same sequence of operations always
// yields the same IDs.
//
// The stored refcount counts page-table leaves and image mappings: a leaf
// holds one reference on each frame it maps, however many address spaces
// share it, so sharing or dropping a leaf costs O(1), not O(pages). To
// count holders per address space, as Refs and PSS do, the table keeps a
// registry of every live leaf and adds each leaf's extra shares to the
// frames it maps. That walk is cached until a refcount or a share changes.
type FrameTable struct {
	refs    []int32  // refs[0] stays 0: FrameID 0 is never valid
	content []uint64 // content token per frame
	free    []FrameID
	live    int

	leaves    []*leaf // every leaf some page table holds; leaf.slot indexes it
	spare     []*leaf // dropped leaves for newLeaf to reuse, at most len(leaves)
	sharers   []int32 // per frame: refs plus each holding leaf's shares-1
	sharersOK bool    // sharers is current
}

// NewFrameTable returns an empty frame table.
func NewFrameTable() *FrameTable {
	return &FrameTable{refs: make([]int32, 1), content: make([]uint64, 1)}
}

// Allocate creates a new frame with the given content token and one
// reference.
func (ft *FrameTable) Allocate(content uint64) FrameID {
	var id FrameID
	if n := len(ft.free); n > 0 {
		id = ft.free[n-1]
		ft.free = ft.free[:n-1]
	} else {
		id = FrameID(len(ft.refs))
		ft.refs = append(ft.refs, 0)
		ft.content = append(ft.content, 0)
	}
	ft.refs[id] = 1
	ft.content[id] = content
	ft.live++
	ft.sharersOK = false
	return id
}

// check panics unless id names an allocated frame.
func (ft *FrameTable) check(id FrameID) {
	if id >= FrameID(len(ft.refs)) || ft.refs[id] <= 0 {
		panic(fmt.Sprintf("memory: unknown frame %d", id))
	}
}

// Ref adds a reference to an existing frame.
func (ft *FrameTable) Ref(id FrameID) {
	ft.check(id)
	ft.refs[id]++
	ft.sharersOK = false
}

// Unref drops a reference, freeing the frame at zero.
func (ft *FrameTable) Unref(id FrameID) {
	ft.check(id)
	ft.unref(id)
}

func (ft *FrameTable) unref(id FrameID) {
	ft.refs[id]--
	if ft.refs[id] == 0 {
		ft.free = append(ft.free, id)
		ft.live--
	}
	ft.sharersOK = false
}

// Refs reports how many holders reference a frame: each address space
// mapping it, plus each image mapping.
func (ft *FrameTable) Refs(id FrameID) int {
	ft.check(id)
	return int(ft.sharerCounts()[id])
}

// sharerCounts returns Refs for every frame, indexed by FrameID.
func (ft *FrameTable) sharerCounts() []int32 {
	if ft.sharersOK {
		return ft.sharers
	}
	c := append(ft.sharers[:0], ft.refs...)
	for _, l := range ft.leaves {
		if extra := l.shares - 1; extra > 0 {
			for _, f := range &l.frames {
				if f != 0 {
					c[f] += extra
				}
			}
		}
	}
	ft.sharers, ft.sharersOK = c, true
	return c
}

// newLeaf returns an empty leaf with one share, added to the registry.
func (ft *FrameTable) newLeaf() *leaf {
	var l *leaf
	if n := len(ft.spare); n > 0 {
		l, ft.spare[n-1], ft.spare = ft.spare[n-1], nil, ft.spare[:n-1]
		*l = leaf{}
	} else {
		l = new(leaf)
	}
	l.shares, l.slot = 1, int32(len(ft.leaves))
	ft.leaves = append(ft.leaves, l)
	return l
}

// unshare drops one share of l and reports whether it was the last. A
// leaf left with no share moves from the registry to the spare list; its
// frame references pass to the caller, who must read them before newLeaf.
func (ft *FrameTable) unshare(l *leaf) bool {
	ft.sharersOK = false
	l.shares--
	if l.shares > 0 {
		return false
	}
	last := len(ft.leaves) - 1
	moved := ft.leaves[last]
	moved.slot = l.slot
	ft.leaves[l.slot] = moved
	ft.leaves[last] = nil
	ft.leaves = ft.leaves[:last]
	if ft.spare = append(ft.spare, l); len(ft.spare) > last {
		clear(ft.spare[last:])
		ft.spare = ft.spare[:last]
	}
	return true
}

// refAll takes a reference on every frame l maps.
func (ft *FrameTable) refAll(l *leaf) {
	for _, f := range &l.frames {
		if f != 0 {
			ft.refs[f]++
		}
	}
	ft.sharersOK = false
}

// unrefAll drops a reference on every frame l maps.
func (ft *FrameTable) unrefAll(l *leaf) {
	for _, f := range &l.frames {
		if f != 0 {
			ft.unref(f)
		}
	}
}

// Content returns the frame's content token.
func (ft *FrameTable) Content(id FrameID) uint64 {
	ft.check(id)
	return ft.content[id]
}

// SetContent overwrites the frame's content token. Callers must hold the
// only writable mapping (AddressSpace guarantees this via CoW).
func (ft *FrameTable) SetContent(id FrameID, c uint64) {
	ft.check(id)
	ft.content[id] = c
}

// Live returns the number of allocated frames (host memory in use, in
// pages).
func (ft *FrameTable) Live() int { return ft.live }
