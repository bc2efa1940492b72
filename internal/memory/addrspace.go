package memory

import (
	"fmt"
	"slices"
	"sort"

	"catalyzer/internal/simenv"
)

// Backing supplies shared frames for file-backed mappings — in this
// reproduction, the memory section of a mapped func-image. Frame must
// return the same FrameID for the same page on every call (the image is a
// single host mapping shared by all sandboxes).
type Backing interface {
	// Frame returns the shared frame backing the given page offset
	// within the VMA, or false if the page is absent (a hole).
	Frame(page uint64) (FrameID, bool)
}

// VMA is a virtual memory area: a [Start, End) page-number range.
type VMA struct {
	Name    string
	Start   uint64 // first page number
	End     uint64 // one past the last page number
	Backing Backing
	// Shared marks a MAP_SHARED region. Plain fork would let a child
	// inherit it writably (violating sandbox isolation, §4 Challenge-2);
	// sfork requires the CoW flag Catalyzer adds to the host kernel.
	Shared bool
}

// Pages returns the number of pages the VMA spans.
func (v VMA) Pages() uint64 { return v.End - v.Start }

// Stats counts the faults an address space has served.
type Stats struct {
	DemandFaults int // EPT violations resolved by mapping an existing/zero frame
	CoWFaults    int // write violations resolved by copying a page
}

// AddressSpace is a sandbox's guest-physical address space with the
// paper's layered EPT design: a read-only Base-EPT whose entries are
// shared (func-image pages, pages inherited from a warm-boot base mapping
// or an sfork parent) and a Private-EPT established by copy-on-write.
// Hardware EPT construction "merges entries from the Private-EPT with the
// Base-EPT" (§3.1); Translate implements exactly that merge.
//
// The two EPTs never map the same page. Base-EPT leaves are shared
// copy-on-write with the sfork parent and siblings; Private-EPT leaves are
// exclusive. Frame references belong to the leaves, one per mapped page
// of each leaf however many spaces share it, so a space's references are
// the ones its leaves hold (see FrameTable).
//
// An AddressSpace is not safe for concurrent use, and neither are its
// read methods: Read, Translate and PSS update caches (the page tables'
// leaf hints and the FrameTable's sharer counts). Callers must hold the
// lock guarding the machine's FrameTable exclusively.
type AddressSpace struct {
	env     *simenv.Env
	ft      *FrameTable
	base    pageTable // read-only, shared
	private pageTable // read-write, exclusive
	vmas    []VMA
	stats   Stats
	dead    bool
}

// NewAddressSpace returns an empty address space over the machine's frame
// table.
func NewAddressSpace(env *simenv.Env, ft *FrameTable) *AddressSpace {
	return &AddressSpace{env: env, ft: ft}
}

// Map installs a VMA. Nothing is populated: pages appear in the EPTs only
// when faulted (file-backed) or written (anonymous). The caller charges
// the map-file / share-mapping cost; Map itself is bookkeeping.
func (as *AddressSpace) Map(v VMA) error {
	if v.End <= v.Start {
		return fmt.Errorf("memory: VMA %q has non-positive size [%d,%d)", v.Name, v.Start, v.End)
	}
	for _, old := range as.vmas {
		if v.Start < old.End && old.Start < v.End {
			return fmt.Errorf("memory: VMA %q overlaps %q", v.Name, old.Name)
		}
	}
	as.vmas = append(as.vmas, v)
	sort.Slice(as.vmas, func(i, j int) bool { return as.vmas[i].Start < as.vmas[j].Start })
	return nil
}

// VMAs returns the mapped areas in address order.
func (as *AddressSpace) VMAs() []VMA {
	out := make([]VMA, len(as.vmas))
	copy(out, as.vmas)
	return out
}

func (as *AddressSpace) vmaFor(page uint64) (VMA, bool) {
	i := sort.Search(len(as.vmas), func(i int) bool { return as.vmas[i].End > page })
	if i < len(as.vmas) && as.vmas[i].Start <= page {
		return as.vmas[i], true
	}
	return VMA{}, false
}

// Translate performs the hardware EPT merge: the Private-EPT entry wins
// if valid, otherwise the Base-EPT entry is used. The boolean reports
// whether the page is currently mapped at all.
func (as *AddressSpace) Translate(page uint64) (FrameID, bool) {
	if f, ok := as.private.get(page); ok {
		return f, true
	}
	return as.base.get(page)
}

// Read accesses a page for reading, serving a demand fault if the page is
// not yet mapped, and returns the content observed.
func (as *AddressSpace) Read(page uint64) (uint64, error) {
	f, ok := as.Translate(page)
	if !ok {
		var err error
		f, err = as.demandFault(page)
		if err != nil {
			return 0, err
		}
	}
	return as.ft.Content(f), nil
}

// Write accesses a page for writing, performing copy-on-write if the
// effective mapping is a shared Base-EPT entry.
func (as *AddressSpace) Write(page uint64, content uint64) error {
	if f, ok := as.private.get(page); ok {
		as.ft.SetContent(f, content)
		return nil
	}
	if shared, ok := as.base.del(as.ft, page); ok {
		// EPT write violation on the Base-EPT: copy the page into the
		// Private-EPT (§3.1) and drop this space's shared reference.
		as.env.Charge(as.env.Cost.CoWFault)
		as.stats.CoWFaults++
		as.private.set(as.ft, page, as.ft.Allocate(content))
		as.ft.Unref(shared)
		return nil
	}
	// Unmapped anonymous page: first-touch allocation.
	if _, ok := as.vmaFor(page); !ok {
		return fmt.Errorf("memory: write fault outside any VMA at page %d", page)
	}
	as.env.Charge(as.env.Cost.EPTFault)
	as.stats.DemandFaults++
	as.private.set(as.ft, page, as.ft.Allocate(content))
	return nil
}

func (as *AddressSpace) demandFault(page uint64) (FrameID, error) {
	v, ok := as.vmaFor(page)
	if !ok {
		return 0, fmt.Errorf("memory: fault outside any VMA at page %d", page)
	}
	as.env.Charge(as.env.Cost.EPTFault)
	as.stats.DemandFaults++
	if v.Backing != nil {
		if f, ok := v.Backing.Frame(page - v.Start); ok {
			as.ft.Ref(f)
			as.base.set(as.ft, page, f)
			return f, nil
		}
	}
	// Anonymous (or image hole): zero frame, private to this space.
	f := as.ft.Allocate(0)
	as.private.set(as.ft, page, f)
	return f, nil
}

// PopulateRange eagerly installs private frames for [start, end) with
// caller-defined contents, invoking perPage for cost accounting. It
// models bulk population that does not go through the fault path: loading
// a task image from the rootfs, or an application dirtying its heap
// during initialization. A page already in the Base-EPT moves to a new
// private frame, keeping the two EPTs disjoint.
func (as *AddressSpace) PopulateRange(start, end uint64, content func(page uint64) uint64, perPage func()) error {
	for p := start; p < end; p++ {
		if _, ok := as.vmaFor(p); !ok {
			return fmt.Errorf("memory: PopulateRange outside any VMA at page %d", p)
		}
		if perPage != nil {
			perPage()
		}
		var c uint64
		if content != nil {
			c = content(p)
		}
		if f, ok := as.private.get(p); ok {
			as.ft.SetContent(f, c)
			continue
		}
		if shared, ok := as.base.del(as.ft, p); ok {
			as.ft.Unref(shared)
		}
		as.private.set(as.ft, p, as.ft.Allocate(c))
	}
	return nil
}

// CloneCoW produces a child address space for sfork: the child sees every
// page the parent sees, shared read-only; either side's next write copies.
// The parent's private pages are demoted to shared Base-EPT entries so the
// parent CoWs too, exactly like fork's write-protection of both sides.
// Shared (MAP_SHARED) VMAs are only clonable because Catalyzer adds a CoW
// flag for shared memory mappings (§4); the caller enforces policy.
//
// Parent and child share the Base-EPT leaves themselves, and the leaves
// hold the frame references, so the clone copies no page-table entry and
// touches no frame: it adds one share to each leaf.
func (as *AddressSpace) CloneCoW() *AddressSpace {
	child := &AddressSpace{env: as.env, ft: as.ft, vmas: slices.Clone(as.vmas)}
	as.base.absorb(as.ft, &as.private)
	child.base = as.base.share(as.ft)
	return child
}

// Rebase shifts every VMA and mapping by delta pages — the address-space
// re-randomization that restores ASLR for sforked children (§6.8: layout
// sharing across instances "can be mitigated by ... re-randomizing the
// layout of address space during sfork"). The space maps the same frames
// as before; only guest virtual addresses move.
func (as *AddressSpace) Rebase(delta uint64) {
	if delta == 0 {
		return
	}
	as.base.shift(as.ft, delta)
	as.private.shift(as.ft, delta)
	for i := range as.vmas {
		as.vmas[i].Start += delta
		as.vmas[i].End += delta
	}
}

// Release unmaps everything, dropping this space's share of every leaf;
// a leaf's frame references go with its last share. The space must not be
// used afterwards.
func (as *AddressSpace) Release() {
	if as.dead {
		return
	}
	as.dead = true
	as.base.drop(as.ft)
	as.private.drop(as.ft)
	as.vmas = nil
}

// Stats returns the fault counters.
func (as *AddressSpace) Stats() Stats { return as.stats }

// MappedPages returns the number of pages currently present in either EPT.
func (as *AddressSpace) MappedPages() int { return as.base.n + as.private.n }

// RSS returns the resident set size in bytes: every page mapped by this
// space counts fully.
func (as *AddressSpace) RSS() uint64 {
	return uint64(as.MappedPages()) * PageSize
}

// PSS returns the proportional set size in bytes: each mapped page counts
// divided by the number of spaces (or other holders) referencing its
// frame, matching the Figure 14 methodology.
func (as *AddressSpace) PSS() float64 {
	sharers := as.ft.sharerCounts()
	var pss float64
	for _, pt := range [...]*pageTable{&as.private, &as.base} {
		for _, l := range pt.leaves {
			for _, f := range &l.frames {
				if f != 0 {
					pss += float64(PageSize) / float64(sharers[f])
				}
			}
		}
	}
	return pss
}
