// Package image defines the func-image (§2.2, §3): the well-formed
// checkpoint artifact a serverless function boots from. A func-image
// carries
//
//   - the application memory section, uncompressed and page-aligned so it
//     can be mapped directly (overlay memory, §3.1),
//   - the guest-kernel checkpoint in both formats (the baseline
//     flate-compressed stream and the partially-deserialized records with
//     their relation table, §3.2),
//   - the I/O connection records and the I/O cache (§3.3),
//   - identity: function name, language, and func-entry point.
//
// Images serialize to a single binary blob (cmd/funcimage builds and
// inspects them) and map into host memory as a shared, refcounted frame
// source for any number of sandboxes.
package image

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"catalyzer/internal/guest"
	"catalyzer/internal/memory"
	"catalyzer/internal/serial"
	"catalyzer/internal/simenv"
	"catalyzer/internal/vfs"
)

// Memory describes the application memory section: Pages pages whose
// contents are a deterministic function of Seed (tokens, not real bytes —
// see internal/memory).
type Memory struct {
	Pages uint64
	Seed  uint64
}

// Token returns the content token of a page in the section.
func (m Memory) Token(page uint64) uint64 {
	z := (m.Seed | 1) + (page+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Bytes returns the logical size of the memory section.
func (m Memory) Bytes() uint64 { return m.Pages * memory.PageSize }

// Image is one func-image.
type Image struct {
	Name     string
	Language string
	Entry    string // func-entry point annotation
	Mem      Memory
	Kernel   *guest.Checkpoint
	IOCache  *vfs.IOCache
}

// MetadataBytes returns the size of the partially-deserialized metadata
// record region — the per-function "Metadata Objects" cost of Table 3.
func (img *Image) MetadataBytes() int {
	if img.Kernel == nil || img.Kernel.Records == nil {
		return 0
	}
	return len(img.Kernel.Records.Region)
}

// IOCacheBytes returns the serialized I/O cache size (Table 3).
func (img *Image) IOCacheBytes() int {
	if img.IOCache == nil {
		return 0
	}
	return img.IOCache.Bytes()
}

// Validate checks structural invariants.
func (img *Image) Validate() error {
	if img.Name == "" {
		return errors.New("image: empty function name")
	}
	if img.Kernel == nil {
		return errors.New("image: missing kernel checkpoint")
	}
	if img.Kernel.Records == nil {
		return errors.New("image: missing record section")
	}
	if len(img.Kernel.Baseline) == 0 {
		return errors.New("image: missing baseline section")
	}
	return nil
}

// --- binary format -----------------------------------------------------------

const (
	imageMagic   = 0x43544c49 // "CTLI"
	imageVersion = 1
)

// trailerBytes is the spare capacity Encode leaves after the image for
// the CRC64 trailer Store.Save appends.
const trailerBytes = 8

// sectionWriter appends the image's fields to a buffer appendEncoded
// presizes.
type sectionWriter struct {
	b []byte
}

func (sw *sectionWriter) u32(v uint32) { sw.b = binary.LittleEndian.AppendUint32(sw.b, v) }

func (sw *sectionWriter) u64(v uint64) { sw.b = binary.LittleEndian.AppendUint64(sw.b, v) }

func (sw *sectionWriter) str(s string) {
	sw.u32(uint32(len(s)))
	sw.b = append(sw.b, s...)
}

func (sw *sectionWriter) blob(b []byte) {
	sw.u32(uint32(len(b)))
	sw.b = append(sw.b, b...)
}

// Encode serializes the image to its binary form. The result is written
// into one buffer of exactly its length plus trailerBytes of spare
// capacity, so appending the store's checksum trailer does not copy it.
func (img *Image) Encode() ([]byte, error) { return img.appendEncoded(nil) }

// appendEncoded appends the image's binary form to dst. It reuses dst's
// backing array when that has room for the image and the trailer, and
// otherwise copies dst into a new buffer of exactly that size.
func (img *Image) appendEncoded(dst []byte) ([]byte, error) {
	if err := img.Validate(); err != nil {
		return nil, err
	}
	cp := img.Kernel
	mounts := vfs.EncodeMounts(cp.MountRecords)
	var paths []string
	if img.IOCache != nil {
		paths = img.IOCache.Paths()
	}

	n := 4 + 4 + // magic, version
		3*4 + len(img.Name) + len(img.Language) + len(img.Entry) +
		8 + 8 + // memory pages, seed
		4 + len(cp.Baseline) +
		4 + len(cp.Records.Region) +
		4 + 12*len(cp.Records.Relations) +
		4 + 8*len(cp.Records.Index) +
		4 + 5*len(cp.ConnRecords) +
		4 + 8 + // critical count, seed
		4 + len(mounts) +
		4 + 4*len(paths)
	for _, c := range cp.ConnRecords {
		n += len(c.Path)
	}
	for _, p := range paths {
		n += len(p)
	}

	if cap(dst)-len(dst) < n+trailerBytes {
		dst = append(make([]byte, 0, len(dst)+n+trailerBytes), dst...)
	}
	sw := &sectionWriter{b: dst}
	sw.u32(imageMagic)
	sw.u32(imageVersion)
	sw.str(img.Name)
	sw.str(img.Language)
	sw.str(img.Entry)
	sw.u64(img.Mem.Pages)
	sw.u64(img.Mem.Seed)

	sw.blob(cp.Baseline)
	sw.blob(cp.Records.Region)
	sw.u32(uint32(len(cp.Records.Relations)))
	for _, r := range cp.Records.Relations {
		sw.u64(uint64(r.SlotOffset))
		sw.u32(r.Target)
	}
	sw.u32(uint32(len(cp.Records.Index)))
	for _, off := range cp.Records.Index {
		sw.u64(uint64(off))
	}
	sw.u32(uint32(len(cp.ConnRecords)))
	for _, c := range cp.ConnRecords {
		sw.b = append(sw.b, byte(c.Kind))
		sw.str(c.Path)
	}
	sw.u32(uint32(cp.CriticalCount))
	sw.u64(cp.Seed)
	sw.blob(mounts)

	sw.u32(uint32(len(paths)))
	for _, p := range paths {
		sw.str(p)
	}
	return sw.b, nil
}

// sectionReader consumes an encoded image front to back. What it returns
// for a blob aliases the input.
type sectionReader struct {
	b []byte // the bytes not yet read
}

// take consumes the next n bytes, returning them with capacity capped at
// n so an append to them cannot write into the rest of the input.
func (sr *sectionReader) take(n uint64) ([]byte, error) {
	if n > uint64(len(sr.b)) {
		if len(sr.b) == 0 {
			return nil, io.EOF
		}
		return nil, io.ErrUnexpectedEOF
	}
	b := sr.b[:n:n]
	sr.b = sr.b[n:]
	return b, nil
}

func (sr *sectionReader) u8() (byte, error) {
	b, err := sr.take(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (sr *sectionReader) u32() (uint32, error) {
	b, err := sr.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (sr *sectionReader) u64() (uint64, error) {
	b, err := sr.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (sr *sectionReader) str() (string, error) {
	b, err := sr.blob()
	return string(b), err
}

// blob reads a length-prefixed byte section as a sub-slice of the input.
func (sr *sectionReader) blob() ([]byte, error) {
	n, err := sr.u32()
	if err != nil {
		return nil, err
	}
	if int(n) > len(sr.b) {
		return nil, fmt.Errorf("blob length %d exceeds remaining %d", n, len(sr.b))
	}
	return sr.take(uint64(n))
}

// table reads a count-prefixed table of fixed-width entries. The whole
// table must be present before the caller sizes anything by its count,
// so a corrupt count fails here instead of allocating gigabytes.
func (sr *sectionReader) table(width uint64) (uint32, []byte, error) {
	count, err := sr.u32()
	if err != nil {
		return 0, nil, err
	}
	b, err := sr.take(uint64(count) * width)
	return count, b, err
}

// regionOffset narrows a u64 offset into the record region to the 32 bits
// serial.Records holds, rejecting one past the region's end as corrupt.
func regionOffset(region []byte, off uint64) (uint32, error) {
	if off > uint64(len(region)) {
		return 0, fmt.Errorf("%w: offset %d beyond the %d-byte record region", ErrCorrupt, off, len(region))
	}
	return uint32(off), nil
}

// Decode parses a binary func-image. The baseline and record sections of
// the result alias data, which must not be written afterwards.
func Decode(data []byte) (*Image, error) {
	sr := &sectionReader{b: data}
	fail := func(step string, err error) (*Image, error) {
		return nil, fmt.Errorf("image: decode %s: %w", step, err)
	}
	magic, err := sr.u32()
	if err != nil {
		return fail("magic", err)
	}
	if magic != imageMagic {
		return nil, errors.New("image: bad magic")
	}
	version, err := sr.u32()
	if err != nil {
		return fail("version", err)
	}
	if version != imageVersion {
		return nil, fmt.Errorf("image: unsupported version %d", version)
	}
	img := &Image{Kernel: &guest.Checkpoint{Records: &serial.Records{}}}
	if img.Name, err = sr.str(); err != nil {
		return fail("name", err)
	}
	if img.Language, err = sr.str(); err != nil {
		return fail("language", err)
	}
	if img.Entry, err = sr.str(); err != nil {
		return fail("entry", err)
	}
	if img.Mem.Pages, err = sr.u64(); err != nil {
		return fail("mem pages", err)
	}
	if img.Mem.Seed, err = sr.u64(); err != nil {
		return fail("mem seed", err)
	}
	if img.Kernel.Baseline, err = sr.blob(); err != nil {
		return fail("baseline", err)
	}
	rec := img.Kernel.Records
	if rec.Region, err = sr.blob(); err != nil {
		return fail("records region", err)
	}
	nrel, tab, err := sr.table(12)
	if err != nil {
		return fail("relations", err)
	}
	rec.Relations = make([]serial.Relation, nrel)
	for i := range rec.Relations {
		e := tab[12*i:]
		off, err := regionOffset(rec.Region, binary.LittleEndian.Uint64(e))
		if err != nil {
			return fail(fmt.Sprintf("relation %d", i), err)
		}
		rec.Relations[i] = serial.Relation{SlotOffset: off, Target: binary.LittleEndian.Uint32(e[8:])}
	}
	nidx, tab, err := sr.table(8)
	if err != nil {
		return fail("index", err)
	}
	rec.Index = make([]uint32, nidx)
	for i := range rec.Index {
		if rec.Index[i], err = regionOffset(rec.Region, binary.LittleEndian.Uint64(tab[8*i:])); err != nil {
			return fail(fmt.Sprintf("index entry %d", i), err)
		}
	}
	nconn, err := sr.u32()
	if err != nil {
		return fail("conn count", err)
	}
	for i := uint32(0); i < nconn; i++ {
		kind, err := sr.u8()
		if err != nil {
			return fail("conn kind", err)
		}
		path, err := sr.str()
		if err != nil {
			return fail("conn path", err)
		}
		img.Kernel.ConnRecords = append(img.Kernel.ConnRecords, vfs.ConnRecord{Kind: vfs.ConnKind(kind), Path: path})
	}
	ncrit, err := sr.u32()
	if err != nil {
		return fail("critical count", err)
	}
	img.Kernel.CriticalCount = int(ncrit)
	if img.Kernel.Seed, err = sr.u64(); err != nil {
		return fail("kernel seed", err)
	}
	mountsBlob, err := sr.blob()
	if err != nil {
		return fail("mounts", err)
	}
	if img.Kernel.MountRecords, err = vfs.DecodeMounts(mountsBlob); err != nil {
		return fail("mounts", err)
	}
	ncache, err := sr.u32()
	if err != nil {
		return fail("io cache count", err)
	}
	if ncache > 0 {
		img.IOCache = vfs.NewIOCache()
		for i := uint32(0); i < ncache; i++ {
			p, err := sr.str()
			if err != nil {
				return fail("io cache entry", err)
			}
			img.IOCache.RecordUse(p, false)
		}
	}
	if len(sr.b) != 0 {
		return nil, fmt.Errorf("image: %d trailing bytes", len(sr.b))
	}
	return img, img.Validate()
}

// --- host mapping ------------------------------------------------------------

// Mapping is a host-side shared mapping of a func-image's memory section:
// the "base memory mapping" that sandboxes running the same function
// share (§3.1). It implements memory.Backing; frames materialize on first
// demand (page-cache fill) and are shared by every address space that
// faults them. The frame index is dense, one slot per section page
// holding frame+1, so 0 means not resident; a Mapping is built once per
// function per machine, so the slice is not a per-boot cost.
type Mapping struct {
	ft       *memory.FrameTable
	mem      Memory
	frames   []memory.FrameID
	resident int
	closed   bool
}

// NewMapping establishes the mapping, charging the map-file cost once.
// Warm boots reuse an existing Mapping via the share-mapping operation
// (Share).
func NewMapping(env *simenv.Env, ft *memory.FrameTable, mem Memory) *Mapping {
	env.Charge(env.Cost.ImageMapRegion)
	return &Mapping{ft: ft, mem: mem, frames: make([]memory.FrameID, mem.Pages)}
}

// Share charges the share-mapping cost for a warm boot inheriting this
// mapping and returns the mapping itself.
func (m *Mapping) Share(env *simenv.Env) *Mapping {
	env.Charge(env.Cost.ShareMapping)
	return m
}

// Frame implements memory.Backing.
func (m *Mapping) Frame(page uint64) (memory.FrameID, bool) {
	if m.closed || page >= m.mem.Pages {
		return 0, false
	}
	if f := m.frames[page]; f != 0 {
		return f - 1, true
	}
	f := m.ft.Allocate(m.mem.Token(page))
	m.frames[page] = f + 1
	m.resident++
	return f, true
}

// ResidentPages returns how many image pages are materialized in host
// memory.
func (m *Mapping) ResidentPages() int { return m.resident }

// Pages returns the section's page count.
func (m *Mapping) Pages() uint64 { return m.mem.Pages }

// Close drops the mapping's frame references; pages still mapped by
// sandboxes stay alive through their own references. Frames are
// released in page order so the frame table's free list, and with it
// the FrameIDs later allocations reuse, replays identically under one
// seed.
func (m *Mapping) Close() {
	if m.closed {
		return
	}
	m.closed = true
	for _, f := range m.frames {
		if f != 0 {
			m.ft.Unref(f - 1)
		}
	}
	m.frames, m.resident = nil, 0
}
