package image

import (
	"encoding/binary"
	"errors"
	"hash/crc64"
	"math"
	"math/rand/v2"
	"runtime"
	"testing"
	"testing/quick"

	"catalyzer/internal/costmodel"
	"catalyzer/internal/guest"
	"catalyzer/internal/memory"
	"catalyzer/internal/simenv"
	"catalyzer/internal/vfs"
)

func newEnv() *simenv.Env { return simenv.New(costmodel.Default()) }

func buildImage(t testing.TB, objects int, pages uint64) *Image {
	t.Helper()
	env := newEnv()
	k := guest.NewKernel(env, 11, 500)
	k.CreateObjects(guest.KindMisc, objects)
	k.Conns.Open(vfs.ConnFile, "/etc/app.conf")
	k.Conns.Open(vfs.ConnSocket, "/run/app.sock")
	cp, err := k.Capture()
	if err != nil {
		t.Fatal(err)
	}
	cache := vfs.NewIOCache()
	cache.RecordUse("/etc/app.conf", false)
	return &Image{
		Name:     "test-func",
		Language: "java",
		Entry:    "com.example.Handler#handle",
		Mem:      Memory{Pages: pages, Seed: 99},
		Kernel:   cp,
		IOCache:  cache,
	}
}

func TestMemoryTokensDeterministic(t *testing.T) {
	m := Memory{Pages: 100, Seed: 5}
	if m.Token(3) != (Memory{Pages: 100, Seed: 5}).Token(3) {
		t.Fatal("tokens not deterministic")
	}
	if m.Token(3) == m.Token(4) {
		t.Fatal("adjacent pages share tokens")
	}
	if m.Bytes() != 100*memory.PageSize {
		t.Fatalf("Bytes = %d", m.Bytes())
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	img := buildImage(t, 2000, 512)
	data, err := img.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != img.Name || got.Language != img.Language || got.Entry != img.Entry {
		t.Fatalf("identity mismatch: %+v", got)
	}
	if got.Mem != img.Mem {
		t.Fatalf("mem mismatch: %+v vs %+v", got.Mem, img.Mem)
	}
	if string(got.Kernel.Baseline) != string(img.Kernel.Baseline) {
		t.Fatal("baseline section mismatch")
	}
	if string(got.Kernel.Records.Region) != string(img.Kernel.Records.Region) {
		t.Fatal("records region mismatch")
	}
	if len(got.Kernel.Records.Relations) != len(img.Kernel.Records.Relations) {
		t.Fatal("relations mismatch")
	}
	if len(got.Kernel.ConnRecords) != 2 {
		t.Fatalf("conn records = %d", len(got.Kernel.ConnRecords))
	}
	if got.Kernel.CriticalCount != img.Kernel.CriticalCount {
		t.Fatal("critical count mismatch")
	}
	if got.IOCache == nil || got.IOCache.Len() != 1 {
		t.Fatal("io cache lost")
	}
	// Restoring from the decoded image reproduces the original kernel.
	r1, err := guest.RestoreSeparated(newEnv(), img.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := guest.RestoreSeparated(newEnv(), got.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Signature() != r2.Signature() {
		t.Fatal("decoded image restores different kernel")
	}
}

// The encoding is a stored and shipped format, so its bytes are pinned:
// a codec change that moves them breaks every store and registry.
func TestEncodeBytesPinned(t *testing.T) {
	data, err := buildImage(t, 2000, 512).Encode()
	if err != nil {
		t.Fatal(err)
	}
	const want, wantLen = 0x4e85a5de5a5e6787, 132036
	if got := crc64.Checksum(data, crcTable); got != want || len(data) != wantLen {
		t.Fatalf("encoding CRC64 = %#x over %d bytes, want %#x over %d", got, len(data), want, wantLen)
	}
	// Encode sizes its buffer exactly, leaving room for the store's
	// checksum trailer.
	if cap(data) != len(data)+8 {
		t.Fatalf("encoded %d bytes into a buffer of capacity %d, want %d", len(data), cap(data), len(data)+8)
	}
}

func TestDecodeCorrupt(t *testing.T) {
	img := buildImage(t, 100, 16)
	data, err := img.Encode()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":     {},
		"magic":     append([]byte{1, 2, 3, 4}, data[4:]...),
		"truncated": data[:len(data)*2/3],
		"trailing":  append(append([]byte(nil), data...), 0xFF),
	}
	for name, c := range cases {
		if _, err := Decode(c); err == nil {
			t.Errorf("%s: Decode succeeded on corrupt image", name)
		}
	}
}

// A corrupt relation or index count fails before Decode sizes anything
// by it, so a few bytes cannot make it allocate gigabytes.
func TestDecodeHugeCountAllocatesLittle(t *testing.T) {
	img := buildImage(t, 100, 16)
	data, err := img.Encode()
	if err != nil {
		t.Fatal(err)
	}
	relCount, idxCount := tableOffsets(img)
	for name, off := range map[string]int{"relations": relCount, "index": idxCount} {
		bad := append([]byte(nil), data...)
		binary.LittleEndian.PutUint32(bad[off:], 0xFFFFFFFF)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Decode(bad)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: Decode accepted a count of 2^32-1", name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > uint64(len(data)) {
			t.Fatalf("%s: Decode allocated %d bytes for a %d-byte image", name, got, len(data))
		}
	}
}

// tableOffsets returns where img's encoding holds the relation count and
// the index count; each count's entries follow it.
func tableOffsets(img *Image) (relCount, idxCount int) {
	cp := img.Kernel
	relCount = 4 + 4 + 3*4 + len(img.Name) + len(img.Language) + len(img.Entry) + 8 + 8 +
		4 + len(cp.Baseline) + 4 + len(cp.Records.Region)
	idxCount = relCount + 4 + 12*len(cp.Records.Relations)
	return relCount, idxCount
}

// offsetImage encodes img with the slot offset of its first relation, or
// with index set the offset of its first record, replaced by off.
func offsetImage(t testing.TB, img *Image, index bool, off uint64) []byte {
	t.Helper()
	data, err := img.Encode()
	if err != nil {
		t.Fatal(err)
	}
	relCount, idxCount := tableOffsets(img)
	at := relCount + 4
	if index {
		at = idxCount + 4
	}
	binary.LittleEndian.PutUint64(data[at:], off)
	return data
}

// An offset past the record region is corrupt, whatever its size: one
// near 2^64 once decoded and then wrapped the fixup's bound check into a
// panic, and one above 2^32 would not survive narrowing to 32 bits.
func TestDecodeRejectsOffsetPastRegion(t *testing.T) {
	img := buildImage(t, 100, 16)
	region := uint64(len(img.Kernel.Records.Region))
	for _, index := range []bool{false, true} {
		for _, off := range []uint64{math.MaxUint64 - 1, 1<<32 + 8, region + 1} {
			got, err := Decode(offsetImage(t, img, index, off))
			if err == nil {
				_, rerr := guest.RestoreSeparated(newEnv(), got.Kernel)
				t.Fatalf("index %v: Decode accepted offset %d of a %d-byte region (restore: %v)", index, off, region, rerr)
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("index %v: offset %d: error %v is not ErrCorrupt", index, off, err)
			}
		}
	}
}

func TestValidate(t *testing.T) {
	img := buildImage(t, 10, 1)
	img.Name = ""
	if err := img.Validate(); err == nil {
		t.Fatal("empty name accepted")
	}
	img = buildImage(t, 10, 1)
	img.Kernel = nil
	if _, err := img.Encode(); err == nil {
		t.Fatal("nil kernel accepted")
	}
}

func TestMappingSharesFrames(t *testing.T) {
	env := newEnv()
	ft := memory.NewFrameTable()
	m := NewMapping(env, ft, Memory{Pages: 64, Seed: 3})
	if env.Now() != env.Cost.ImageMapRegion {
		t.Fatalf("map cost = %v", env.Now())
	}
	f1, ok := m.Frame(5)
	if !ok {
		t.Fatal("Frame(5) missing")
	}
	f2, _ := m.Frame(5)
	if f1 != f2 {
		t.Fatal("same page returned different frames")
	}
	if _, ok := m.Frame(64); ok {
		t.Fatal("out-of-range page returned a frame")
	}
	if m.ResidentPages() != 1 {
		t.Fatalf("ResidentPages = %d", m.ResidentPages())
	}
	if ft.Content(f1) != (Memory{Pages: 64, Seed: 3}).Token(5) {
		t.Fatal("frame content not derived from image")
	}

	before := env.Now()
	if got := m.Share(env); got != m {
		t.Fatal("Share returned a different mapping")
	}
	if env.Now()-before != env.Cost.ShareMapping {
		t.Fatal("Share did not charge share-mapping cost")
	}
}

func TestMappingCloseKeepsSandboxPages(t *testing.T) {
	env := newEnv()
	ft := memory.NewFrameTable()
	m := NewMapping(env, ft, Memory{Pages: 8, Seed: 1})
	as := memory.NewAddressSpace(env, ft)
	if err := as.Map(memory.VMA{Name: "img", Start: 0, End: 8, Backing: m}); err != nil {
		t.Fatal(err)
	}
	want, err := as.Read(2) // faults the page in: sandbox holds a ref
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	m.Close() // idempotent
	got, err := as.Read(2)
	if err != nil || got != want {
		t.Fatalf("page lost after mapping close: %d,%v want %d", got, err, want)
	}
	if _, ok := m.Frame(3); ok {
		t.Fatal("closed mapping served a frame")
	}
}

// Close releases the mapping's frames in page order whatever order they
// were faulted in, so the FrameIDs the next allocations reuse are those a
// page-ordered release gives; ResidentPages is exact throughout, and no
// frame is served past the section or after Close.
func TestMappingCloseReleasesInPageOrder(t *testing.T) {
	const pages = 64
	mem := Memory{Pages: pages, Seed: 5}
	rng := rand.New(rand.NewPCG(1, 2))
	order := rng.Perm(pages)[:40] // a shuffled, sparse set of pages

	ft := memory.NewFrameTable()
	m := NewMapping(newEnv(), ft, mem)
	ft.Allocate(0) // a frame the mapping does not own, so IDs start past 0
	for i, p := range order {
		if _, ok := m.Frame(uint64(p)); !ok {
			t.Fatalf("Frame(%d) missing", p)
		}
		if _, ok := m.Frame(uint64(p)); !ok || m.ResidentPages() != i+1 {
			t.Fatalf("after %d faults: ResidentPages = %d, want %d", i+1, m.ResidentPages(), i+1)
		}
	}
	if _, ok := m.Frame(pages); ok {
		t.Fatal("a page past the section returned a frame")
	}
	m.Close()
	if m.ResidentPages() != 0 {
		t.Fatalf("ResidentPages after Close = %d, want 0", m.ResidentPages())
	}
	for _, p := range []uint64{uint64(order[0]), pages} {
		if _, ok := m.Frame(p); ok {
			t.Fatalf("closed mapping served page %d", p)
		}
	}

	// The reference: the same faults, released in page order.
	ref := memory.NewFrameTable()
	ref.Allocate(0)
	ids := make(map[int]memory.FrameID)
	for _, p := range order {
		ids[p] = ref.Allocate(mem.Token(uint64(p)))
	}
	for p := 0; p < pages; p++ {
		if id, ok := ids[p]; ok {
			ref.Unref(id)
		}
	}
	for i := range order {
		if got, want := ft.Allocate(0), ref.Allocate(0); got != want {
			t.Fatalf("allocation %d after Close got frame %d, page-ordered release gives %d", i, got, want)
		}
	}
}

func TestTable3SizeAccessors(t *testing.T) {
	img := buildImage(t, 1000, 16)
	if img.MetadataBytes() != len(img.Kernel.Records.Region) {
		t.Fatal("MetadataBytes mismatch")
	}
	if img.IOCacheBytes() != img.IOCache.Bytes() {
		t.Fatal("IOCacheBytes mismatch")
	}
	var empty Image
	if empty.MetadataBytes() != 0 || empty.IOCacheBytes() != 0 {
		t.Fatal("empty image size accessors nonzero")
	}
}

// Property: encode/decode round-trips arbitrary image shapes.
func TestEncodeDecodeProperty(t *testing.T) {
	f := func(objs uint16, pages uint16, name string) bool {
		if name == "" {
			name = "f"
		}
		env := newEnv()
		k := guest.NewKernel(env, 3, 100)
		k.CreateObjects(guest.KindMisc, int(objs%3000))
		cp, err := k.Capture()
		if err != nil {
			return false
		}
		img := &Image{Name: name, Language: "c", Mem: Memory{Pages: uint64(pages), Seed: 7}, Kernel: cp}
		data, err := img.Encode()
		if err != nil {
			return false
		}
		got, err := Decode(data)
		if err != nil {
			return false
		}
		return got.Name == name && got.Mem.Pages == uint64(pages)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
