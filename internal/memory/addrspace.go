package memory

import (
	"fmt"
	"slices"
	"sort"

	"catalyzer/internal/simenv"
	"catalyzer/internal/simtime"
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
// read methods: Read faults pages in, and PSS updates the FrameTable's
// cached sharer counts. Callers must hold the lock guarding the machine's
// FrameTable exclusively.
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
func (as *AddressSpace) VMAs() []VMA { return slices.Clone(as.vmas) }

// Translate performs the hardware EPT merge: the Private-EPT entry wins
// if valid, otherwise the Base-EPT entry is used. The boolean reports
// whether the page is currently mapped at all.
func (as *AddressSpace) Translate(page uint64) (FrameID, bool) {
	w := as.walk()
	_, f, _ := w.at(page)
	return f, f != 0
}

// Read accesses a page for reading, serving a demand fault if the page is
// not yet mapped, and returns the content observed.
func (as *AddressSpace) Read(page uint64) (uint64, error) {
	w := as.walk()
	f, err := w.read(page)
	if err != nil {
		return 0, err
	}
	return as.ft.Content(f), nil
}

// Write accesses a page for writing, performing copy-on-write if the
// effective mapping is a shared Base-EPT entry.
func (as *AddressSpace) Write(page uint64, content uint64) error {
	w := as.walk()
	return w.write(page, content)
}

// Touch reads pages [start, start+n) in order, writing every every-th one
// (offsets 0, every, ...; none if every <= 0) right after its read with
// the clock's time at that write, low bit set: a sandbox's working set in
// one call, with exactly the effects of that loop of Reads and Writes.
func (as *AddressSpace) Touch(start uint64, n, every int) error {
	w := as.walk()
	for i, next := 0, 0; i < n; i++ {
		p := start + uint64(i)
		if _, err := w.read(p); err != nil {
			return err
		}
		if every > 0 && i == next {
			next += every
			if err := w.write(p, uint64(as.env.Now())|1); err != nil {
				return err
			}
		}
	}
	return nil
}

// PopulateRange eagerly installs private frames for [start, end) with
// caller-defined contents, charging perPage for each page up to the first
// one outside every VMA. It models bulk population that does not go
// through the fault path: loading a task image from the rootfs, or an
// application dirtying its heap during initialization. A page already in
// the Base-EPT moves to a new private frame, keeping the two EPTs disjoint.
func (as *AddressSpace) PopulateRange(start, end uint64, content func(page uint64) uint64, perPage simtime.Duration) error {
	w, p := as.walk(), start
	var err error
	for p < end {
		var v VMA
		if v, err = w.vmaOf(p, "PopulateRange"); err != nil {
			break
		}
		for stop := min(end, v.End); p < stop; {
			p = w.fill(p, min(stop, (p|leafMask)+1), content)
		}
	}
	as.env.ChargeN(perPage, int(p-start))
	return err
}

// walker is the leaf walker behind every page access: it looks up the
// Private-EPT and Base-EPT leaves of one leaf key once and keeps them
// current as entries come and go, so a run of pages pays one per leaf.
type walker struct {
	as     *AddressSpace
	key    uint64 // the leaf key of pl and bl
	pi, bi int    // their indices in as.private and as.base, or insertion points
	pl, bl *leaf  // nil where the table has no leaf for key
	vma    VMA
}

func (as *AddressSpace) walk() walker { return walker{as: as, key: ^uint64(0)} }

// at moves w to page's leaf and returns the page's offset in it, the
// frame mapping it (zero if none) and whether that is a Base-EPT entry.
func (w *walker) at(page uint64) (uint64, FrameID, bool) {
	off := page & leafMask
	if key := page >> leafBits; key != w.key {
		w.key = key
		w.pi, w.pl = w.as.private.at(key)
		w.bi, w.bl = w.as.base.at(key)
	}
	if w.pl != nil && w.pl.frames[off] != 0 {
		return off, w.pl.frames[off], false
	}
	if w.bl != nil && w.bl.frames[off] != 0 {
		return off, w.bl.frames[off], true
	}
	return off, 0, false
}

// vmaOf returns page's VMA, trying the last one found first; what names
// the access in the error for a page outside every VMA.
func (w *walker) vmaOf(page uint64, what string) (VMA, error) {
	if vs := w.as.vmas; page < w.vma.Start || page >= w.vma.End {
		i := sort.Search(len(vs), func(i int) bool { return vs[i].End > page })
		if i == len(vs) || vs[i].Start > page {
			return VMA{}, fmt.Errorf("memory: %s outside any VMA at page %d", what, page)
		}
		w.vma = vs[i]
	}
	return w.vma, nil
}

// setPrivate maps offset off to a new private frame holding content.
func (w *walker) setPrivate(off, content uint64) {
	w.pl = w.as.private.put(w.as.ft, w.pi, w.pl, w.key, off, w.as.ft.Allocate(content))
}

func (w *walker) read(page uint64) (FrameID, error) {
	off, f, _ := w.at(page)
	if f != 0 {
		return f, nil
	}
	v, err := w.vmaOf(page, "fault")
	if err != nil {
		return 0, err
	}
	w.as.env.Charge(w.as.env.Cost.EPTFault)
	w.as.stats.DemandFaults++
	if v.Backing != nil {
		if f, ok := v.Backing.Frame(page - v.Start); ok {
			w.as.ft.Ref(f)
			w.bl = w.as.base.put(w.as.ft, w.bi, w.bl, w.key, off, f)
			return f, nil
		}
	}
	// Anonymous (or image hole): zero frame, private to this space.
	w.setPrivate(off, 0)
	return w.pl.frames[off], nil
}

func (w *walker) write(page, content uint64) error {
	switch off, f, shared := w.at(page); {
	case f != 0 && !shared:
		w.as.ft.SetContent(f, content)
	case f != 0:
		// EPT write violation on the Base-EPT: copy the page into the
		// Private-EPT (§3.1) and drop this space's shared reference.
		f, w.bl = w.as.base.take(w.as.ft, w.bi, off)
		w.as.env.Charge(w.as.env.Cost.CoWFault)
		w.as.stats.CoWFaults++
		w.setPrivate(off, content)
		w.as.ft.unref(f)
	default:
		// Unmapped anonymous page: first-touch allocation.
		if _, err := w.vmaOf(page, "write fault"); err != nil {
			return err
		}
		w.as.env.Charge(w.as.env.Cost.EPTFault)
		w.as.stats.DemandFaults++
		w.setPrivate(off, content)
	}
	return nil
}

// fill gives pages [p, stop) of one leaf private frames holding content,
// in page order and without faults; a Base-EPT frame is dropped before
// its replacement is allocated. It returns stop.
func (w *walker) fill(p, stop uint64, content func(page uint64) uint64) uint64 {
	w.at(p) // position w on the leaf
	for ft := w.as.ft; p < stop; p++ {
		off := p & leafMask
		var c uint64
		if content != nil {
			c = content(p)
		}
		if w.pl != nil && w.pl.frames[off] != 0 {
			ft.content[w.pl.frames[off]] = c
			continue
		}
		if w.bl != nil && w.bl.frames[off] != 0 {
			var f FrameID
			f, w.bl = w.as.base.take(ft, w.bi, off)
			ft.unref(f)
		}
		if w.pl == nil {
			w.setPrivate(off, c)
			continue
		}
		w.pl.frames[off] = ft.Allocate(c) // a Private-EPT leaf is exclusive
		w.pl.n++
		w.as.private.n++
	}
	return stop
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
