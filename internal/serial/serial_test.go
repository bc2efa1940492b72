package serial

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

// genGraph builds a deterministic pseudo-random object graph with n
// objects, mimicking a guest kernel's pointer structure (back-references
// only, plus occasional nils).
func genGraph(n int, seed int64) []Object {
	rng := rand.New(rand.NewSource(seed))
	objs := make([]Object, n)
	for i := range objs {
		payload := make([]byte, 4+rng.Intn(24))
		rng.Read(payload)
		objs[i] = Object{
			ID:      ObjectID(i),
			Kind:    uint8(rng.Intn(12)),
			Payload: payload,
		}
		nrefs := rng.Intn(4)
		for j := 0; j < nrefs; j++ {
			if i == 0 || rng.Intn(5) == 0 {
				objs[i].Refs = append(objs[i].Refs, NilRef)
			} else {
				objs[i].Refs = append(objs[i].Refs, ObjectID(rng.Intn(i)))
			}
		}
	}
	return objs
}

func TestBaselineRoundTrip(t *testing.T) {
	objs := genGraph(500, 1)
	data, encStats, err := EncodeBaseline(objs)
	if err != nil {
		t.Fatal(err)
	}
	if encStats.Objects != 500 {
		t.Fatalf("encode stats objects = %d", encStats.Objects)
	}
	got, decStats, err := DecodeBaseline(data)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(objs, got) {
		t.Fatal("baseline round trip not isomorphic")
	}
	if decStats.Objects != encStats.Objects || decStats.Relations != encStats.Relations {
		t.Fatalf("stats mismatch: enc=%+v dec=%+v", encStats, decStats)
	}
}

func TestRecordsRoundTrip(t *testing.T) {
	objs := genGraph(500, 2)
	rec, stats, err := EncodeRecords(objs)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Objects != 500 {
		t.Fatalf("stats objects = %d", stats.Objects)
	}
	n, err := FixupRecords(rec)
	if err != nil {
		t.Fatal(err)
	}
	if n != stats.Relations {
		t.Fatalf("fixups = %d, want %d", n, stats.Relations)
	}
	got, err := DecodeRecords(rec)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(objs, got) {
		t.Fatal("records round trip not isomorphic")
	}
}

func TestRecordsWithoutFixupHasPlaceholders(t *testing.T) {
	objs := []Object{
		{ID: 0, Kind: 1, Payload: []byte("root")},
		{ID: 1, Kind: 2, Payload: []byte("leaf"), Refs: []ObjectID{0, NilRef}},
	}
	rec, _, err := EncodeRecords(objs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRecords(rec)
	if err != nil {
		t.Fatal(err)
	}
	if got[1].Refs[0] != 0 {
		// Placeholder is the zero value; here the real target happens to
		// be 0 too, so use a graph where it differs.
		t.Log("ambiguous case, checked below")
	}
	objs2 := []Object{
		{ID: 0, Kind: 1},
		{ID: 1, Kind: 1},
		{ID: 2, Kind: 2, Refs: []ObjectID{1}},
	}
	rec2, _, err := EncodeRecords(objs2)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := DecodeRecords(rec2)
	if err != nil {
		t.Fatal(err)
	}
	if pre[2].Refs[0] != 0 {
		t.Fatalf("placeholder = %d before fixup, want 0", pre[2].Refs[0])
	}
	if got[1].Refs[1] != NilRef {
		t.Fatal("nil ref did not survive placeholder encoding")
	}
	if _, err := FixupRecords(rec2); err != nil {
		t.Fatal(err)
	}
	post, err := DecodeRecords(rec2)
	if err != nil {
		t.Fatal(err)
	}
	if post[2].Refs[0] != 1 {
		t.Fatalf("ref = %d after fixup, want 1", post[2].Refs[0])
	}
}

// DecodeRecords decodes in bulk, so its allocations are a small constant
// however many records the region holds, and the validating pass
// allocates nothing.
func TestDecodeRecordsAllocsConstant(t *testing.T) {
	for _, n := range []int{1000, 40000} {
		rec, _, err := EncodeRecords(genGraph(n, 7))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := FixupRecords(rec); err != nil {
			t.Fatal(err)
		}
		decode := testing.AllocsPerRun(10, func() {
			if _, err := DecodeRecords(rec); err != nil {
				t.Fatal(err)
			}
		})
		var kinds [256]int
		validate := testing.AllocsPerRun(10, func() {
			if err := ValidateRecords(rec, &kinds); err != nil {
				t.Fatal(err)
			}
		})
		if decode > 4 || validate != 0 {
			t.Fatalf("%d records: %v allocs per DecodeRecords (want ≤4), %v per ValidateRecords (want 0)", n, decode, validate)
		}
	}
}

// Payloads alias the region and refs share one arena, both with capped
// capacity: appending to one object's slices must not overwrite the
// record or the refs that follow it.
func TestDecodeRecordsSlicesCapped(t *testing.T) {
	objs := []Object{
		{ID: 0, Kind: 1, Payload: []byte("ab"), Refs: []ObjectID{NilRef}},
		{ID: 1, Kind: 2, Payload: []byte("cd"), Refs: []ObjectID{NilRef}},
	}
	rec, _, err := EncodeRecords(objs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRecords(rec)
	if err != nil {
		t.Fatal(err)
	}
	_ = append(got[0].Payload, 'X', 'X', 'X', 'X')
	_ = append(got[0].Refs, 7)
	again, err := DecodeRecords(rec)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(got, objs) || !Equal(again, objs) {
		t.Fatal("append through a decoded object overwrote its neighbour")
	}
}

func TestFormatsAgree(t *testing.T) {
	objs := genGraph(300, 3)
	data, _, err := EncodeBaseline(objs)
	if err != nil {
		t.Fatal(err)
	}
	viaBaseline, _, err := DecodeBaseline(data)
	if err != nil {
		t.Fatal(err)
	}
	rec, _, err := EncodeRecords(objs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FixupRecords(rec); err != nil {
		t.Fatal(err)
	}
	viaRecords, err := DecodeRecords(rec)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(viaBaseline, viaRecords) {
		t.Fatal("baseline and records formats disagree")
	}
}

func TestNonDenseIDsRejected(t *testing.T) {
	objs := []Object{{ID: 5}}
	if _, _, err := EncodeBaseline(objs); err == nil {
		t.Fatal("EncodeBaseline accepted non-dense IDs")
	}
	if _, _, err := EncodeRecords(objs); err == nil {
		t.Fatal("EncodeRecords accepted non-dense IDs")
	}
}

func TestDanglingRefRejected(t *testing.T) {
	objs := []Object{{ID: 0, Refs: []ObjectID{7}}}
	if _, _, err := EncodeRecords(objs); err == nil {
		t.Fatal("EncodeRecords accepted dangling ref")
	}
}

func TestDecodeBaselineCorrupt(t *testing.T) {
	objs := genGraph(50, 4)
	data, _, err := EncodeBaseline(objs)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":     {},
		"truncated": data[:len(data)/2],
		"garbage":   []byte("not a checkpoint image at all"),
	}
	for name, c := range cases {
		if _, _, err := DecodeBaseline(c); err == nil {
			t.Errorf("%s: DecodeBaseline succeeded on corrupt input", name)
		}
	}
}

func TestDecodeRecordsCorruptRelation(t *testing.T) {
	objs := genGraph(10, 5)
	rec, _, err := EncodeRecords(objs)
	if err != nil {
		t.Fatal(err)
	}
	// The offsets at the top of the range must not wrap the bound check
	// around and let the write through.
	for _, off := range []uint32{uint32(len(rec.Region)) - 3, uint32(len(rec.Region)) + 100, math.MaxUint32 - 3, math.MaxUint32} {
		bad := *rec
		bad.Relations = append(append([]Relation(nil), rec.Relations...), Relation{SlotOffset: off, Target: 0})
		if _, err := FixupRecords(&bad); err == nil {
			t.Fatalf("FixupRecords accepted slot offset %d of a %d-byte region", off, len(rec.Region))
		}
	}
}

func TestEncodeDoesNotMutateInput(t *testing.T) {
	objs := genGraph(20, 6)
	snapshot := make([]Object, len(objs))
	for i := range objs {
		snapshot[i] = objs[i].clone()
	}
	if _, _, err := EncodeBaseline(objs); err != nil {
		t.Fatal(err)
	}
	if _, _, err := EncodeRecords(objs); err != nil {
		t.Fatal(err)
	}
	if !Equal(objs, snapshot) {
		t.Fatal("encoding mutated its input")
	}
}

// Property: both formats round-trip arbitrary graphs and agree with each
// other.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		n := int(size%200) + 1
		objs := genGraph(n, seed)
		data, _, err := EncodeBaseline(objs)
		if err != nil {
			return false
		}
		a, _, err := DecodeBaseline(data)
		if err != nil {
			return false
		}
		rec, _, err := EncodeRecords(objs)
		if err != nil {
			return false
		}
		if _, err := FixupRecords(rec); err != nil {
			return false
		}
		b, err := DecodeRecords(rec)
		if err != nil {
			return false
		}
		return Equal(objs, a) && Equal(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: the relation table has exactly one entry per non-nil ref.
func TestRelationCountProperty(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		n := int(size%100) + 1
		objs := genGraph(n, seed)
		want := 0
		for _, o := range objs {
			for _, r := range o.Refs {
				if r != NilRef {
					want++
				}
			}
		}
		rec, stats, err := EncodeRecords(objs)
		if err != nil {
			return false
		}
		return stats.Relations == want && len(rec.Relations) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// writeRecordRef is the reference record writer: one field at a time
// into a bytes.Buffer, references in place or, with placeholders set,
// zeroed unless nil.
func writeRecordRef(w *bytes.Buffer, o *Object, placeholders bool) {
	var hdr [recordHeaderBytes]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(o.ID))
	hdr[4] = o.Kind
	binary.LittleEndian.PutUint16(hdr[5:], uint16(len(o.Payload)))
	w.Write(hdr[:])
	w.Write(o.Payload)
	var nr [2]byte
	binary.LittleEndian.PutUint16(nr[:], uint16(len(o.Refs)))
	w.Write(nr[:])
	var slot [4]byte
	for _, ref := range o.Refs {
		if placeholders && ref != NilRef {
			ref = 0
		}
		binary.LittleEndian.PutUint32(slot[:], uint32(ref))
		w.Write(slot[:])
	}
}

// referenceBaseline encodes objs with a fresh flate writer and the
// reference record writer, as EncodeBaseline did before it pooled its
// compressor and appended its records.
func referenceBaseline(t *testing.T, objs []Object) []byte {
	t.Helper()
	var raw bytes.Buffer
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:], baselineMagic)
	binary.LittleEndian.PutUint32(hdr[4:], formatVersion)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(objs)))
	raw.Write(hdr[:])
	for i := range objs {
		writeRecordRef(&raw, &objs[i], false)
	}
	var out bytes.Buffer
	fw, err := flate.NewWriter(&out, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Write(raw.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestEncodeBaselinePooledMatchesFresh: the pooled compressor's output is
// byte-identical to a fresh writer's over graphs encoded back to back,
// each result is exactly its length, and mutating one result leaves the
// next one untouched.
func TestEncodeBaselinePooledMatchesFresh(t *testing.T) {
	var prev []byte
	for i, n := range []int{2000, 0, 1, 300, 5000, 40} {
		objs := genGraph(n, int64(i+1))
		want := referenceBaseline(t, objs)
		got, stats, err := EncodeBaseline(objs)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("graph %d (%d objects): pooled encoding differs from a fresh writer's", i, n)
		}
		if cap(got) != len(got) || stats.Bytes != len(got) {
			t.Fatalf("graph %d: len %d cap %d Bytes %d, want all equal", i, len(got), cap(got), stats.Bytes)
		}
		if prev != nil {
			for j := range prev {
				prev[j] ^= 0xFF
			}
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("graph %d: mutating the previous result changed this one", i)
		}
		prev = got
	}
}

// TestEncodeBaselineConcurrent: encoders drawn from the pool by
// concurrent goroutines never share state (run under -race).
func TestEncodeBaselineConcurrent(t *testing.T) {
	graphs := make([][]Object, 4)
	wants := make([][]byte, len(graphs))
	for i := range graphs {
		graphs[i] = genGraph(500+700*i, int64(10+i))
		wants[i] = referenceBaseline(t, graphs[i])
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8*len(graphs))
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 3*len(graphs); r++ {
				i := (w + r) % len(graphs)
				got, _, err := EncodeBaseline(graphs[i])
				if err == nil && !bytes.Equal(got, wants[i]) {
					err = fmt.Errorf("worker %d: graph %d encoded differently", w, i)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// Both record encoders write the bytes the reference writer writes, and
// size the region, the index and the relation table exactly.
func TestEncodeRecordsExactSize(t *testing.T) {
	for i, n := range []int{0, 1, 300, 5000} {
		objs := genGraph(n, int64(100+i))
		var want bytes.Buffer
		var wantIndex []uint32
		var wantRels []Relation
		for j := range objs {
			wantIndex = append(wantIndex, uint32(want.Len()))
			writeRecordRef(&want, &objs[j], true)
			slots := want.Len() - 4*len(objs[j].Refs)
			for fi, ref := range objs[j].Refs {
				if ref != NilRef {
					wantRels = append(wantRels, Relation{SlotOffset: uint32(slots + 4*fi), Target: uint32(ref)})
				}
			}
		}
		rec, stats, err := EncodeRecords(objs)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rec.Region, want.Bytes()) || !slices.Equal(rec.Index, wantIndex) || !slices.Equal(rec.Relations, wantRels) {
			t.Fatalf("graph %d (%d objects): EncodeRecords differs from the reference writer", i, n)
		}
		if stats.Bytes != rec.Size() || stats.Relations != len(rec.Relations) {
			t.Fatalf("graph %d: stats %+v disagree with the records", i, stats)
		}
		region, err := EncodeRegion(objs)
		if err != nil {
			t.Fatal(err)
		}
		for name, r := range map[string]*Records{"EncodeRecords": rec, "EncodeRegion": region} {
			if cap(r.Region) != len(r.Region) || cap(r.Index) != len(r.Index) || cap(r.Relations) != len(r.Relations) {
				t.Fatalf("graph %d %s: caps %d/%d/%d for lens %d/%d/%d, want equal", i, name,
					cap(r.Region), cap(r.Index), cap(r.Relations), len(r.Region), len(r.Index), len(r.Relations))
			}
		}
	}
}

// EncodeRegion writes the region a fixup of EncodeRecords' output
// produces, with the same index and no relation table.
func TestEncodeRegionIsFixedUpRecords(t *testing.T) {
	objs := genGraph(2000, 21)
	rec, _, err := EncodeRecords(objs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FixupRecords(rec); err != nil {
		t.Fatal(err)
	}
	region, err := EncodeRegion(objs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(region.Region, rec.Region) || !slices.Equal(region.Index, rec.Index) || region.Relations != nil {
		t.Fatal("EncodeRegion differs from the fixed-up records")
	}
	got, err := DecodeRecords(region)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(got, objs) {
		t.Fatal("EncodeRegion does not decode to its graph")
	}
	if _, err := EncodeRegion([]Object{{ID: 0, Refs: []ObjectID{1}}}); err == nil {
		t.Fatal("EncodeRegion accepted a dangling reference")
	}
}

// BenchmarkEncodeRecords times the offline records encoding of a
// 20,000-object graph.
func BenchmarkEncodeRecords(b *testing.B) {
	objs := genGraph(20000, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := EncodeRecords(objs); err != nil {
			b.Fatal(err)
		}
	}
}
