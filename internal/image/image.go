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
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"

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

type sectionWriter struct {
	w   *bytes.Buffer
	err error
}

func (sw *sectionWriter) u32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	sw.w.Write(b[:])
}

func (sw *sectionWriter) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	sw.w.Write(b[:])
}

func (sw *sectionWriter) str(s string) {
	sw.u32(uint32(len(s)))
	sw.w.WriteString(s)
}

func (sw *sectionWriter) blob(b []byte) {
	sw.u32(uint32(len(b)))
	sw.w.Write(b)
}

// Encode serializes the image to its binary form.
func (img *Image) Encode() ([]byte, error) {
	if err := img.Validate(); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	sw := &sectionWriter{w: &buf}
	sw.u32(imageMagic)
	sw.u32(imageVersion)
	sw.str(img.Name)
	sw.str(img.Language)
	sw.str(img.Entry)
	sw.u64(img.Mem.Pages)
	sw.u64(img.Mem.Seed)

	cp := img.Kernel
	sw.blob(cp.Baseline)
	sw.blob(cp.Records.Region)
	sw.u32(uint32(len(cp.Records.Relations)))
	for _, r := range cp.Records.Relations {
		sw.u64(r.SlotOffset)
		sw.u32(r.Target)
	}
	sw.u32(uint32(len(cp.Records.Index)))
	for _, off := range cp.Records.Index {
		sw.u64(off)
	}
	sw.u32(uint32(len(cp.ConnRecords)))
	for _, c := range cp.ConnRecords {
		sw.w.WriteByte(byte(c.Kind))
		sw.str(c.Path)
	}
	sw.u32(uint32(cp.CriticalCount))
	sw.u64(cp.Seed)
	sw.blob(vfs.EncodeMounts(cp.MountRecords))

	if img.IOCache == nil {
		sw.u32(0)
	} else {
		paths := img.IOCache.Paths()
		sw.u32(uint32(len(paths)))
		for _, p := range paths {
			sw.str(p)
		}
	}
	return buf.Bytes(), nil
}

type sectionReader struct {
	r *bytes.Reader
}

func (sr *sectionReader) u32() (uint32, error) {
	var b [4]byte
	if _, err := io.ReadFull(sr.r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

func (sr *sectionReader) u64() (uint64, error) {
	var b [8]byte
	if _, err := io.ReadFull(sr.r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

func (sr *sectionReader) str() (string, error) {
	n, err := sr.u32()
	if err != nil {
		return "", err
	}
	if int(n) > sr.r.Len() {
		return "", fmt.Errorf("string length %d exceeds remaining %d", n, sr.r.Len())
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(sr.r, b); err != nil {
		return "", err
	}
	return string(b), nil
}

func (sr *sectionReader) blob() ([]byte, error) {
	n, err := sr.u32()
	if err != nil {
		return nil, err
	}
	if int(n) > sr.r.Len() {
		return nil, fmt.Errorf("blob length %d exceeds remaining %d", n, sr.r.Len())
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(sr.r, b); err != nil {
		return nil, err
	}
	return b, nil
}

// Decode parses a binary func-image.
func Decode(data []byte) (*Image, error) {
	sr := &sectionReader{r: bytes.NewReader(data)}
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
	if img.Kernel.Records.Region, err = sr.blob(); err != nil {
		return fail("records region", err)
	}
	nrel, err := sr.u32()
	if err != nil {
		return fail("relation count", err)
	}
	for i := uint32(0); i < nrel; i++ {
		var rel serial.Relation
		if rel.SlotOffset, err = sr.u64(); err != nil {
			return fail("relation slot", err)
		}
		if rel.Target, err = sr.u32(); err != nil {
			return fail("relation target", err)
		}
		img.Kernel.Records.Relations = append(img.Kernel.Records.Relations, rel)
	}
	nidx, err := sr.u32()
	if err != nil {
		return fail("index count", err)
	}
	for i := uint32(0); i < nidx; i++ {
		off, err := sr.u64()
		if err != nil {
			return fail("index entry", err)
		}
		img.Kernel.Records.Index = append(img.Kernel.Records.Index, off)
	}
	nconn, err := sr.u32()
	if err != nil {
		return fail("conn count", err)
	}
	for i := uint32(0); i < nconn; i++ {
		kind, err := sr.r.ReadByte()
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
	if sr.r.Len() != 0 {
		return nil, fmt.Errorf("image: %d trailing bytes", sr.r.Len())
	}
	return img, img.Validate()
}

// --- host mapping ------------------------------------------------------------

// Mapping is a host-side shared mapping of a func-image's memory section:
// the "base memory mapping" that sandboxes running the same function
// share (§3.1). It implements memory.Backing; frames materialize on first
// demand (page-cache fill) and are shared by every address space that
// faults them.
type Mapping struct {
	ft     *memory.FrameTable
	mem    Memory
	frames map[uint64]memory.FrameID
	closed bool
}

// NewMapping establishes the mapping, charging the map-file cost once.
// Warm boots reuse an existing Mapping via the share-mapping operation
// (Share).
func NewMapping(env *simenv.Env, ft *memory.FrameTable, mem Memory) *Mapping {
	env.Charge(env.Cost.ImageMapRegion)
	return &Mapping{ft: ft, mem: mem, frames: make(map[uint64]memory.FrameID)}
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
	if f, ok := m.frames[page]; ok {
		return f, true
	}
	f := m.ft.Allocate(m.mem.Token(page))
	m.frames[page] = f
	return f, true
}

// ResidentPages returns how many image pages are materialized in host
// memory.
func (m *Mapping) ResidentPages() int { return len(m.frames) }

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
	pages := make([]uint64, 0, len(m.frames))
	for p := range m.frames {
		pages = append(pages, p)
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	for _, p := range pages {
		m.ft.Unref(m.frames[p])
		delete(m.frames, p)
	}
}
