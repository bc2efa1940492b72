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
type FrameTable struct {
	refs    []int32  // refs[0] stays 0: FrameID 0 is never valid
	content []uint64 // content token per frame
	free    []FrameID
	live    int
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
}

// Unref drops a reference, freeing the frame at zero.
func (ft *FrameTable) Unref(id FrameID) {
	ft.check(id)
	ft.refs[id]--
	if ft.refs[id] == 0 {
		ft.free = append(ft.free, id)
		ft.live--
	}
}

// Refs reports the reference count of a frame.
func (ft *FrameTable) Refs(id FrameID) int {
	ft.check(id)
	return int(ft.refs[id])
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
