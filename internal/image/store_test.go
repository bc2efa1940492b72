package image

import (
	"encoding/binary"
	"errors"
	"hash/crc64"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// corruptActive mutates the active generation file of name in place.
func corruptActive(t *testing.T, s *Store, name string, mutate func(raw []byte) []byte) {
	t.Helper()
	p, err := s.ActivePath(name)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, mutate(raw), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestStoreCorruptionPaths tables every way stored bytes can go bad and
// asserts each is surfaced as ErrCorrupt — the signal the platform uses
// to quarantine-and-rollback instead of silently rebuilding.
func TestStoreCorruptionPaths(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(raw []byte) []byte
	}{
		{
			name:    "truncated-trailer",
			corrupt: func([]byte) []byte { return []byte{0xCA, 0x7A} },
		},
		{
			name: "flipped-payload-bit",
			corrupt: func(raw []byte) []byte {
				raw[len(raw)/2] ^= 0x01
				return raw
			},
		},
		{
			name: "flipped-trailer-bit",
			corrupt: func(raw []byte) []byte {
				raw[len(raw)-1] ^= 0x80
				return raw
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			img := buildImage(t, 150, 8)
			if err := s.Save(img); err != nil {
				t.Fatal(err)
			}
			corruptActive(t, s, img.Name, tc.corrupt)
			_, err = s.Load(img.Name)
			if err == nil {
				t.Fatal("corrupt image loaded successfully")
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("corruption not typed ErrCorrupt: %v", err)
			}
			if errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("corruption also reads as a cache miss: %v", err)
			}

			// Quarantine moves the bad artifact aside: with no previous
			// generation to roll back to, lookup now misses, the bytes
			// stay inspectable, and List no longer names it.
			q, err := s.Quarantine(img.Name)
			if err != nil {
				t.Fatalf("quarantine: %v", err)
			}
			if _, err := os.Stat(q); err != nil {
				t.Fatalf("quarantined artifact gone: %v", err)
			}
			if _, err := s.Load(img.Name); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("load after quarantine = %v, want fs.ErrNotExist", err)
			}
			names, err := s.List()
			if err != nil || len(names) != 0 {
				t.Fatalf("List after quarantine = %v, %v", names, err)
			}
			qn, err := s.Quarantined()
			if err != nil || len(qn) != 1 || qn[0] != img.Name {
				t.Fatalf("Quarantined = %v, %v", qn, err)
			}
		})
	}
}

// TestQuarantineRollsBackToLastKnownGood is the rollback contract: with
// two generations on disk, quarantining a corrupt active generation
// promotes the previous one, and Load serves it immediately.
func TestQuarantineRollsBackToLastKnownGood(t *testing.T) {
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	v1 := buildImage(t, 100, 4)
	if err := s.Save(v1); err != nil {
		t.Fatal(err)
	}
	v2 := buildImage(t, 200, 8)
	if err := s.Save(v2); err != nil {
		t.Fatal(err)
	}
	if g, lkg := s.ActiveGen(v2.Name), s.LastKnownGood(v2.Name); g != 2 || lkg != 1 {
		t.Fatalf("generations = active %d, lkg %d, want 2, 1", g, lkg)
	}
	corruptActive(t, s, v2.Name, func(raw []byte) []byte {
		raw[len(raw)/3] ^= 0xFF
		return raw
	})
	if _, err := s.Load(v2.Name); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt active load = %v, want ErrCorrupt", err)
	}
	if _, err := s.Quarantine(v2.Name); err != nil {
		t.Fatalf("quarantine: %v", err)
	}
	got, err := s.Load(v2.Name)
	if err != nil {
		t.Fatalf("load after rollback: %v", err)
	}
	if got.Mem != v1.Mem {
		t.Fatalf("rollback served wrong generation: %+v", got.Mem)
	}
	if g := s.ActiveGen(v2.Name); g != 1 {
		t.Fatalf("active after rollback = %d, want 1", g)
	}
}

func TestQuarantineMissingAndRepeat(t *testing.T) {
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Quarantine("ghost"); err == nil {
		t.Fatal("quarantining a missing image succeeded")
	}
	img := buildImage(t, 100, 4)
	for i := 0; i < 2; i++ {
		if err := s.Save(img); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Quarantine(img.Name); err != nil {
			t.Fatalf("quarantine #%d: %v", i+1, err)
		}
	}
	qn, err := s.Quarantined()
	if err != nil || len(qn) != 1 {
		t.Fatalf("repeat quarantine: Quarantined = %v, %v", qn, err)
	}
	// Every quarantine event keeps its own evidence file: the
	// generation suffix prevents a later quarantine from overwriting an
	// earlier one.
	files, err := s.QuarantinedFiles()
	if err != nil || len(files) != 2 {
		t.Fatalf("QuarantinedFiles = %v, %v, want 2 files", files, err)
	}
	// A fresh Save restores normal service alongside the quarantined copies.
	if err := s.Save(img); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load(img.Name); err != nil {
		t.Fatalf("load after rebuild: %v", err)
	}
}

func TestStoreSaveLoadRoundTrip(t *testing.T) {
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	img := buildImage(t, 500, 64)
	if err := s.Save(img); err != nil {
		t.Fatal(err)
	}
	got, err := s.Load(img.Name)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != img.Name || got.Mem != img.Mem {
		t.Fatalf("loaded image differs: %+v", got)
	}
	if string(got.Kernel.Records.Region) != string(img.Kernel.Records.Region) {
		t.Fatal("record region differs after store round trip")
	}
	names, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != img.Name {
		t.Fatalf("List = %v", names)
	}
	if g := s.ActiveGen(img.Name); g != 1 {
		t.Fatalf("ActiveGen = %d, want 1", g)
	}
}

// TestStoreGenerationWindow asserts Save retains exactly one previous
// generation (last-known-good) and purges older ones.
func TestStoreGenerationWindow(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	img := buildImage(t, 100, 4)
	for i := 0; i < 3; i++ {
		if err := s.Save(img); err != nil {
			t.Fatal(err)
		}
	}
	if g, lkg := s.ActiveGen(img.Name), s.LastKnownGood(img.Name); g != 3 || lkg != 2 {
		t.Fatalf("generations = active %d, lkg %d, want 3, 2", g, lkg)
	}
	if _, err := os.Stat(s.genPath(img.Name, 1)); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("generation 1 not purged: %v", err)
	}
	for _, g := range []uint64{2, 3} {
		if _, err := os.Stat(s.genPath(img.Name, g)); err != nil {
			t.Fatalf("generation %d missing: %v", g, err)
		}
	}
}

func TestStoreDetectsCorruption(t *testing.T) {
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	img := buildImage(t, 200, 8)
	if err := s.Save(img); err != nil {
		t.Fatal(err)
	}
	corruptActive(t, s, img.Name, func(raw []byte) []byte {
		raw[len(raw)/2] ^= 0xFF
		return raw
	})
	if _, err := s.Load(img.Name); err == nil {
		t.Fatal("corrupt image loaded successfully")
	}
}

// TestStoreRejectsWrongName renames a generation file so name and
// content disagree; the mismatch must not survive a reopen — scrub
// quarantines the imposter instead of adopting it.
func TestStoreRejectsWrongName(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	img := buildImage(t, 100, 4)
	if err := s.Save(img); err != nil {
		t.Fatal(err)
	}
	old, err := s.ActivePath(img.Name)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(old, filepath.Join(dir, "other-func@1"+imageExt)); err != nil {
		t.Fatal(err)
	}
	s2, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Load("other-func"); err == nil {
		t.Fatal("mismatched image name accepted")
	}
	if _, err := s2.Load(img.Name); err == nil {
		t.Fatal("image with missing file loaded")
	}
	if st := s2.Stats(); st.ScrubQuarantined == 0 {
		t.Fatalf("scrub did not quarantine the imposter: %+v", st)
	}
}

func TestStoreDeleteAndErrors(t *testing.T) {
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	img := buildImage(t, 100, 4)
	if err := s.Save(img); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(img.Name); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(img.Name); err == nil {
		t.Fatal("double delete succeeded")
	}
	if _, err := s.Load(img.Name); err == nil {
		t.Fatal("load after delete succeeded")
	}
	if _, err := s.Load("../escape"); err == nil {
		t.Fatal("path traversal accepted")
	}
	if err := s.Save(&Image{Name: "a/b", Kernel: img.Kernel}); err == nil {
		t.Fatal("slash in name accepted")
	}
	if err := s.Save(&Image{Name: "fn@7", Kernel: img.Kernel}); err == nil {
		t.Fatal("reserved generation suffix accepted")
	}
	if _, err := NewStore(""); err == nil {
		t.Fatal("empty dir accepted")
	}
	names, err := s.List()
	if err != nil || len(names) != 0 {
		t.Fatalf("List after delete = %v, %v", names, err)
	}
	// The tombstone keeps generation numbering monotonic across a
	// delete, so no filename is ever reused.
	if err := s.Save(img); err != nil {
		t.Fatal(err)
	}
	if g := s.ActiveGen(img.Name); g != 2 {
		t.Fatalf("generation after delete+resave = %d, want 2", g)
	}
}

func TestStoreTruncatedFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "tiny@1"+imageExt), []byte{1, 2}, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load("tiny"); err == nil {
		t.Fatal("truncated file loaded")
	}
	// Scrub refused to adopt the garbage and kept it for inspection.
	if st := s.Stats(); st.ScrubQuarantined != 1 {
		t.Fatalf("ScrubQuarantined = %d, want 1", st.ScrubQuarantined)
	}
}

// TestStoreLegacyMigration: a pre-generation store layout (`name.cimg`)
// is adopted as generation 1 on open.
func TestStoreLegacyMigration(t *testing.T) {
	dir := t.TempDir()
	img := buildImage(t, 120, 8)
	data, err := img.Encode()
	if err != nil {
		t.Fatal(err)
	}
	var trailer [8]byte
	binary.LittleEndian.PutUint64(trailer[:], crc64.Checksum(data, crcTable))
	if err := os.WriteFile(filepath.Join(dir, img.Name+imageExt), append(data, trailer[:]...), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Load(img.Name)
	if err != nil {
		t.Fatalf("load migrated legacy image: %v", err)
	}
	if got.Mem != img.Mem {
		t.Fatalf("migrated image differs: %+v", got.Mem)
	}
	if g := s.ActiveGen(img.Name); g != 1 {
		t.Fatalf("migrated generation = %d, want 1", g)
	}
	if st := s.Stats(); st.ScrubRepaired != 1 {
		t.Fatalf("ScrubRepaired = %d, want 1 (adoption)", st.ScrubRepaired)
	}
}

// TestStoreSweepsTempOrphans is the regression test for Save error
// paths and crashes leaving `*.tmp` files behind: NewStore sweeps them.
func TestStoreSweepsTempOrphans(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	img := buildImage(t, 100, 4)
	if err := s.Save(img); err != nil {
		t.Fatal(err)
	}
	for _, fn := range []string{"half@2" + imageExt + tmpExt, manifestName + tmpExt} {
		if err := os.WriteFile(filepath.Join(dir, fn), []byte("debris"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.OrphansSwept != 2 {
		t.Fatalf("OrphansSwept = %d, want 2", st.OrphansSwept)
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		if filepath.Ext(de.Name()) == tmpExt {
			t.Fatalf("temp orphan survived sweep: %s", de.Name())
		}
	}
	if _, err := s2.Load(img.Name); err != nil {
		t.Fatalf("load after sweep: %v", err)
	}
}

// TestStorePersistsAcrossReopen: acknowledged state survives a clean
// close/reopen via the journal alone (no compaction forced).
func TestStorePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	img := buildImage(t, 150, 8)
	if err := s.Save(img); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(img); err != nil {
		t.Fatal(err)
	}
	s2, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if g, lkg := s2.ActiveGen(img.Name), s2.LastKnownGood(img.Name); g != 2 || lkg != 1 {
		t.Fatalf("reopened generations = active %d, lkg %d, want 2, 1", g, lkg)
	}
	if _, err := s2.Load(img.Name); err != nil {
		t.Fatalf("load after reopen: %v", err)
	}
	if st := s2.Stats(); st.ScrubRepaired != 0 || st.ScrubQuarantined != 0 || st.OrphansSwept != 0 {
		t.Fatalf("clean reopen did scrub work: %+v", st)
	}
}

// TestStoreCompaction: crossing the journal threshold folds state into
// MANIFEST and truncates the journal; state is unchanged.
func TestStoreCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	img := buildImage(t, 100, 4)
	for i := 0; i < compactThreshold+3; i++ {
		if err := s.Save(img); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Compactions == 0 {
		t.Fatalf("no compaction after %d saves: %+v", compactThreshold+3, st)
	}
	fi, err := os.Stat(s.journalPath())
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() >= int64(compactThreshold*20) {
		t.Fatalf("journal not truncated by compaction: %d bytes", fi.Size())
	}
	s2, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(compactThreshold + 3)
	if g := s2.ActiveGen(img.Name); g != want {
		t.Fatalf("ActiveGen after compaction+reopen = %d, want %d", g, want)
	}
	if _, err := s2.Load(img.Name); err != nil {
		t.Fatalf("load after compaction+reopen: %v", err)
	}
}

// readGen reads one generation file of name.
func readGen(t *testing.T, s *Store, name string, g uint64) []byte {
	t.Helper()
	raw, err := os.ReadFile(s.genPath(name, g))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// withTrailer returns data followed by its CRC64 trailer: the bytes a
// generation file of data must hold.
func withTrailer(data []byte) []byte {
	return binary.LittleEndian.AppendUint64(append([]byte(nil), data...), crc64.Checksum(data, crcTable))
}

// TestStoreSaveReusesBufferSafely: Save encodes into a buffer the store
// keeps, so saves of different sizes in a row must each write exactly
// their own encoding and trailer, with no bytes left over from a larger
// earlier save, and each must load back intact.
func TestStoreSaveReusesBufferSafely(t *testing.T) {
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	large, small := buildImage(t, 3000, 64), buildImage(t, 50, 4)
	for i, img := range []*Image{large, small, large} {
		want, err := img.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Save(img); err != nil {
			t.Fatal(err)
		}
		g := uint64(i + 1)
		if got := readGen(t, s, img.Name, g); string(got) != string(withTrailer(want)) {
			t.Fatalf("save %d: generation file holds %d bytes, want the %d-byte encoding plus trailer", i, len(got), len(want))
		}
		got, err := s.Load(img.Name)
		if err != nil {
			t.Fatalf("save %d: %v", i, err)
		}
		enc, err := got.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if string(enc) != string(want) {
			t.Fatalf("save %d: loaded image re-encodes differently", i)
		}
	}
}

// TestStoreReopenVerifiesShrinkingGenerations: scrub reads every
// generation into one reused buffer, so a generation smaller than the
// one read before it must verify on its own bytes, a larger one after
// it too, and a truncated file must still be quarantined.
func TestStoreReopenVerifiesShrinkingGenerations(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Scrub verifies in name order, active before last-known-good, so
	// its reads go small, large, small, large, small, then the truncated
	// file.
	for _, tc := range []struct {
		name    string
		objects []int
	}{
		{"a", []int{3000, 100}}, // active small, last-known-good large
		{"b", []int{10}},
		{"c", []int{100, 3000}},
	} {
		for _, n := range tc.objects {
			img := buildImage(t, n, 4)
			img.Name = tc.name
			if err := s.Save(img); err != nil {
				t.Fatal(err)
			}
		}
	}
	tiny := buildImage(t, 10, 4)
	tiny.Name = "tiny"
	if err := s.Save(tiny); err != nil {
		t.Fatal(err)
	}
	p, err := s.ActivePath("tiny")
	if err != nil {
		t.Fatal(err)
	}
	raw := readGen(t, s, "tiny", 1)
	if err := os.WriteFile(p, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	q, err := r.QuarantinedFiles()
	if err != nil {
		t.Fatal(err)
	}
	if len(q) != 1 || q[0] != "tiny@1"+quarantineExt {
		t.Fatalf("quarantined files = %v, want only the truncated tiny@1", q)
	}
	for _, name := range []string{"a", "b", "c"} {
		if _, err := r.Load(name); err != nil {
			t.Fatalf("Load(%s) after reopen: %v", name, err)
		}
	}
	if r.LastKnownGood("a") != 1 || r.LastKnownGood("c") != 1 {
		t.Fatalf("last-known-good lost: a=%d c=%d, want 1 and 1", r.LastKnownGood("a"), r.LastKnownGood("c"))
	}
	if _, err := r.Load("tiny"); err == nil {
		t.Fatal("truncated generation loaded after reopen")
	}
	if st := r.Stats(); st.ScrubQuarantined != 1 {
		t.Fatalf("ScrubQuarantined = %d, want 1 for one truncated file", st.ScrubQuarantined)
	}
}

// TestStoreReopenQuarantinesOnceWithLastKnownGood: a truncated active
// generation with a good last-known-good rolls back on reopen, and the
// one corrupt file is counted once, not again by the unreferenced-file
// pass.
func TestStoreReopenQuarantinesOnceWithLastKnownGood(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{100, 200} {
		img := buildImage(t, n, 4)
		img.Name = "fn"
		if err := s.Save(img); err != nil {
			t.Fatal(err)
		}
	}
	p, err := s.ActivePath("fn")
	if err != nil {
		t.Fatal(err)
	}
	raw := readGen(t, s, "fn", 2)
	if err := os.WriteFile(p, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if g := r.ActiveGen("fn"); g != 1 {
		t.Fatalf("active generation after reopen = %d, want the last-known-good 1", g)
	}
	q, err := r.QuarantinedFiles()
	if err != nil {
		t.Fatal(err)
	}
	if len(q) != 1 || q[0] != "fn@2"+quarantineExt {
		t.Fatalf("quarantined files = %v, want only the truncated fn@2", q)
	}
	if st := r.Stats(); st.ScrubQuarantined != 1 || st.ScrubRepaired != 1 {
		t.Fatalf("ScrubQuarantined = %d, ScrubRepaired = %d, want 1 and 1", st.ScrubQuarantined, st.ScrubRepaired)
	}
}

// TestStoreSaveAllocsBounded: a repeat Save of one image reuses the
// store's encode buffer, so it allocates far less than the image's size
// (file and journal bookkeeping only).
func TestStoreSaveAllocsBounded(t *testing.T) {
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	img := buildImage(t, 3000, 64)
	data, err := img.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save(img); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	const runs = 10
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if err := s.Save(img); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perSave := (after.TotalAlloc - before.TotalAlloc) / runs
	if limit := uint64(len(data)) / 8; perSave >= limit {
		t.Fatalf("a repeat Save allocated %d bytes, want under %d (an eighth of the %d-byte image)", perSave, limit, len(data))
	}
}

func BenchmarkStoreSaveRepeat(b *testing.B) {
	s, err := NewStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	img := buildImage(b, 3000, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := s.Save(img); err != nil {
			b.Fatal(err)
		}
	}
}
