// Package serial implements the two checkpoint serialization formats the
// paper contrasts (§3.2):
//
//   - The baseline format used by gVisor-restore: every guest-kernel
//     metadata object is serialized into a self-describing record and the
//     whole stream is flate-compressed. Restore must decompress and then
//     deserialize objects one-by-one, resolving pointer fields through an
//     ID map — the per-object work that costs >50 ms for SPECjbb's 37,838
//     objects.
//
//   - Catalyzer's partially-deserialized format: records are laid out
//     contiguously and uncompressed so they can be mapped back into memory
//     with a single mmap; pointer fields are zeroed placeholders, and a
//     relation table records (slot offset → target index) pairs. Restore
//     is a map plus an embarrassingly parallel fixup pass over the
//     relation table.
//
// A separated-state restore decodes no object: FixupRecords and then one
// ValidateRecords pass, which checks every record and counts kinds, run
// once per checkpoint, and the fixed-up region is the object graph of
// every kernel restored from it. DecodeRecords
// turns a region into objects only when a reader walks the whole graph
// or a mutation needs a slice to append to.
//
// This package does the real byte-level work — tests verify the two
// formats are interchangeable (graph-isomorphic round trips) and the
// root-level benchmarks measure their real CPU asymmetry.
package serial

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
)

// ObjectID identifies a guest-kernel object within one checkpoint. IDs are
// dense indices assigned at capture time; 0 is a valid ID. IDs are 32-bit
// because the record wire format is deliberately compact: the paper's
// Table 3 reports ~18 bytes of metadata per object (680.6 KB for
// SPECjbb's 37,838 objects).
type ObjectID uint32

// NilRef marks an absent pointer field.
const NilRef = ObjectID(^uint32(0))

// Object is one guest-kernel metadata object: an opaque payload plus
// pointer fields referencing other objects.
type Object struct {
	ID      ObjectID
	Kind    uint8
	Payload []byte
	Refs    []ObjectID
}

// clone returns a deep copy of o.
func (o Object) clone() Object {
	c := Object{ID: o.ID, Kind: o.Kind}
	c.Payload = append([]byte(nil), o.Payload...)
	c.Refs = append([]ObjectID(nil), o.Refs...)
	return c
}

// Stats describes the size and shape of an encoded checkpoint.
type Stats struct {
	Objects   int // number of object records
	Relations int // number of non-nil pointer fields
	Bytes     int // encoded size in bytes
}

const (
	baselineMagic = 0x43544c42 // "CTLB"
	recordsMagic  = 0x43544c52 // "CTLR"
	formatVersion = 1
)

// --- Baseline format -------------------------------------------------------

// baselineEncoder is the scratch state of one EncodeBaseline call: the
// raw record stream, the compressed output and the flate writer.
type baselineEncoder struct {
	raw []byte
	out bytes.Buffer
	fw  *flate.Writer
}

// baselineEncoders recycles encoders across EncodeBaseline calls; a flate
// writer alone carries several hundred KiB of tables.
var baselineEncoders = sync.Pool{New: func() any {
	e := &baselineEncoder{}
	fw, err := flate.NewWriter(&e.out, flate.BestSpeed)
	if err != nil {
		panic(err) // unreachable: BestSpeed is a valid level
	}
	e.fw = fw
	return e
}}

// EncodeBaseline serializes objects one-by-one and flate-compresses the
// stream, like gVisor's checkpoint path.
//
// Its scratch buffers and flate writer come from a pool and are reset for
// each call (flate's Reset is equivalent to a fresh NewWriter), so the
// output is byte-identical to an unpooled encode. The result is a copy
// of exactly its length, owned by the caller and sharing nothing with
// the pool or with any other result.
func EncodeBaseline(objs []Object) ([]byte, Stats, error) {
	e := baselineEncoders.Get().(*baselineEncoder)
	defer baselineEncoders.Put(e)
	e.out.Reset()
	e.fw.Reset(&e.out)

	raw := binary.LittleEndian.AppendUint32(e.raw[:0], baselineMagic)
	raw = binary.LittleEndian.AppendUint32(raw, formatVersion)
	raw = binary.LittleEndian.AppendUint64(raw, uint64(len(objs)))

	stats := Stats{Objects: len(objs)}
	for i := range objs {
		o := &objs[i]
		if o.ID != ObjectID(i) {
			return nil, Stats{}, fmt.Errorf("serial: object %d has non-dense ID %d", i, o.ID)
		}
		if err := checkRecord(o); err != nil {
			return nil, Stats{}, err
		}
		raw = appendRecord(raw, o, false)
		for _, r := range o.Refs {
			if r != NilRef {
				stats.Relations++
			}
		}
	}
	e.raw = raw

	if _, err := e.fw.Write(raw); err != nil {
		return nil, Stats{}, err
	}
	if err := e.fw.Close(); err != nil {
		return nil, Stats{}, err
	}
	stats.Bytes = e.out.Len()
	data := make([]byte, e.out.Len())
	copy(data, e.out.Bytes())
	return data, stats, nil
}

// maxCheckpointBytes bounds the decompressed size of a baseline stream:
// a defense against decompression bombs in untrusted func-images. Real
// checkpoints are well below this (SPECjbb's 37,838 objects serialize to
// under 1 MiB of metadata).
const maxCheckpointBytes = 512 << 20

// minRecordBytes is the smallest possible record: 7-byte header plus the
// 2-byte ref count.
const minRecordBytes = 9

// DecodeBaseline decompresses and deserializes a baseline checkpoint,
// reconstructing every object and resolving references one-by-one.
func DecodeBaseline(data []byte) ([]Object, Stats, error) {
	fr := flate.NewReader(bytes.NewReader(data))
	raw, err := io.ReadAll(io.LimitReader(fr, maxCheckpointBytes+1))
	if err != nil {
		return nil, Stats{}, fmt.Errorf("serial: decompress: %w", err)
	}
	if len(raw) > maxCheckpointBytes {
		return nil, Stats{}, fmt.Errorf("serial: checkpoint exceeds %d bytes", maxCheckpointBytes)
	}
	if err := fr.Close(); err != nil {
		return nil, Stats{}, err
	}
	if len(raw) < 16 {
		return nil, Stats{}, errors.New("serial: baseline stream truncated")
	}
	if binary.LittleEndian.Uint32(raw[0:]) != baselineMagic {
		return nil, Stats{}, errors.New("serial: bad baseline magic")
	}
	if v := binary.LittleEndian.Uint32(raw[4:]); v != formatVersion {
		return nil, Stats{}, fmt.Errorf("serial: unsupported version %d", v)
	}
	n := binary.LittleEndian.Uint64(raw[8:])
	// The declared object count cannot exceed what the stream can hold;
	// validating before allocating prevents forged headers from forcing
	// huge allocations.
	if n > uint64(len(raw)-16)/minRecordBytes {
		return nil, Stats{}, fmt.Errorf("serial: declared %d objects exceeds stream capacity", n)
	}
	r := bytes.NewReader(raw[16:])

	objs := make([]Object, 0, n)
	stats := Stats{Bytes: len(data)}
	// One-by-one deserialization: each record is decoded into a fresh
	// object; references are checked against the ID space afterwards
	// (gVisor recovers "more than 37,838 objects ... one-by-one", §2.2).
	for i := uint64(0); i < n; i++ {
		obj, err := readRecord(r)
		if err != nil {
			return nil, Stats{}, fmt.Errorf("serial: object %d: %w", i, err)
		}
		objs = append(objs, obj)
		stats.Objects++
		for _, ref := range obj.Refs {
			if ref != NilRef {
				stats.Relations++
			}
		}
	}
	for i := range objs {
		for _, ref := range objs[i].Refs {
			if ref != NilRef && uint64(ref) >= n {
				return nil, Stats{}, fmt.Errorf("serial: object %d references unknown object %d", i, ref)
			}
		}
	}
	return objs, stats, nil
}

// --- Catalyzer records format ----------------------------------------------

// Records is an encoded partially-deserialized checkpoint: a contiguous,
// uncompressed record region plus the relation table. The encoders size
// all three slices exactly (cap == len); offsets are 32-bit, so a region
// holds at most 4 GiB.
type Records struct {
	// Region is the record region, suitable for direct mapping.
	Region []byte
	// Relations holds (slot offset within Region → target object index)
	// pairs for every non-nil pointer field. A region encoded with its
	// references in place (EncodeRegion) has none.
	Relations []Relation
	// Index holds the byte offset of each record within Region.
	Index []uint32
}

// Relation is one pointer-fixup entry.
type Relation struct {
	SlotOffset uint32 // byte offset of the 4-byte pointer slot in Region
	Target     uint32 // index of the target object
}

// Size returns the total encoded size in bytes, counting the region, the
// relation table (8 bytes per entry), and the record index.
func (r *Records) Size() int {
	return len(r.Region) + 8*len(r.Relations) + 4*len(r.Index)
}

// EncodeRecords lays objects out as contiguous records with zeroed pointer
// placeholders and builds the relation table (offline preparation, §3.2).
func EncodeRecords(objs []Object) (*Records, Stats, error) {
	rec, err := encodeRecords(objs, true)
	if err != nil {
		return nil, Stats{}, err
	}
	stats := Stats{Objects: len(objs), Relations: len(rec.Relations), Bytes: rec.Size()}
	return rec, stats, nil
}

// EncodeRegion lays objects out in the fixed-up form a separated restore
// produces: the same records as EncodeRecords, but with every reference
// written in place, so there is no relation table to replay. The region
// is a live object graph as it is, for DecodeRecords and ValidateRecords.
func EncodeRegion(objs []Object) (*Records, error) {
	return encodeRecords(objs, false)
}

// encodeRecords is EncodeRecords and EncodeRegion: one pass that checks
// every object and sizes the region and the relation table, then one that
// fills the region, index and relations, each allocated once at its exact
// size. With placeholders set, reference slots hold zero and a relation
// each; without, they hold the reference.
func encodeRecords(objs []Object, placeholders bool) (*Records, error) {
	size, nrel := 0, 0
	for i := range objs {
		o := &objs[i]
		if o.ID != ObjectID(i) {
			return nil, fmt.Errorf("serial: object %d has non-dense ID %d", i, o.ID)
		}
		if err := checkRecord(o); err != nil {
			return nil, err
		}
		for fi, ref := range o.Refs {
			if ref == NilRef {
				continue
			}
			if uint64(ref) >= uint64(len(objs)) {
				return nil, fmt.Errorf("serial: object %d field %d references unknown object %d", i, fi, ref)
			}
			nrel++
		}
		size += recordBytes(o)
	}
	if uint64(size) > math.MaxUint32 {
		return nil, fmt.Errorf("serial: %d-byte region exceeds 32-bit offsets", size)
	}
	rec := &Records{
		Region: make([]byte, 0, size),
		Index:  make([]uint32, len(objs)),
	}
	if placeholders {
		rec.Relations = make([]Relation, 0, nrel)
	}
	for i := range objs {
		o := &objs[i]
		rec.Index[i] = uint32(len(rec.Region))
		rec.Region = appendRecord(rec.Region, o, placeholders)
		if !placeholders {
			continue
		}
		// Pointer slots sit at the record tail: nrefs × 4 bytes.
		slotBase := uint32(len(rec.Region) - 4*len(o.Refs))
		for fi, ref := range o.Refs {
			if ref != NilRef {
				rec.Relations = append(rec.Relations, Relation{SlotOffset: slotBase + uint32(4*fi), Target: uint32(ref)})
			}
		}
	}
	return rec, nil
}

// FixupRecords replays the relation table against the mapped region,
// replacing placeholders with real references (stage-2 of separated state
// recovery). Each entry is independent; the caller charges the cost as
// parallel work. It reports the number of fixups applied.
func FixupRecords(rec *Records) (int, error) {
	for _, rel := range rec.Relations {
		// Widened before the add, so no offset can wrap past the check.
		if uint64(rel.SlotOffset)+4 > uint64(len(rec.Region)) {
			return 0, fmt.Errorf("serial: relation slot %d out of range", rel.SlotOffset)
		}
		binary.LittleEndian.PutUint32(rec.Region[rel.SlotOffset:], rel.Target)
	}
	return len(rec.Relations), nil
}

// ValidateRecords is the validating pass of a separated-state restore. It
// checks every record rec.Index points at, rejecting exactly what
// DecodeRecords rejects, and adds one to kinds[k] for each record of kind
// k. It decodes nothing and allocates only to report an error.
func ValidateRecords(rec *Records, kinds *[256]int) error {
	_, err := scanRecords(rec, kinds)
	return err
}

// DecodeRecords materializes objects from a fixed-up region in bulk: one
// validating pass, then a single []Object and a single []ObjectID arena
// holding every object's refs. Payloads alias rec.Region (capacity capped
// at their length, so an append copies), so they change if the region is
// written. A restore does not call this — the fixed-up region is the
// restored state — but a restored kernel does when a reader walks its
// whole graph or a mutation first needs the slice.
func DecodeRecords(rec *Records) ([]Object, error) {
	nrefs, err := scanRecords(rec, nil)
	if err != nil {
		return nil, err
	}
	objs := make([]Object, len(rec.Index))
	refs := make([]ObjectID, nrefs)
	for i, off := range rec.Index {
		b := rec.Region[off:]
		plen, n, _ := recordSpan(b) // cannot fail: scanRecords checked it
		slots := b[recordHeaderBytes+plen+2:]
		o := &objs[i]
		o.ID = ObjectID(binary.LittleEndian.Uint32(b))
		o.Kind = b[4]
		o.Payload = b[recordHeaderBytes : recordHeaderBytes+plen : recordHeaderBytes+plen]
		o.Refs, refs = refs[:n:n], refs[n:]
		for j := range o.Refs {
			o.Refs[j] = ObjectID(binary.LittleEndian.Uint32(slots[4*j:]))
		}
	}
	return objs, nil
}

// scanRecords checks every indexed record's bounds, counts kinds into
// kinds when it is non-nil, and returns the total number of ref slots.
func scanRecords(rec *Records, kinds *[256]int) (int, error) {
	nrefs := 0
	for i, off := range rec.Index {
		if uint64(off) > uint64(len(rec.Region)) {
			return 0, fmt.Errorf("serial: record %d offset out of range", i)
		}
		b := rec.Region[off:]
		_, n, err := recordSpan(b)
		if err != nil {
			return 0, fmt.Errorf("serial: record %d: %w", i, err)
		}
		if kinds != nil {
			kinds[b[4]]++
		}
		nrefs += n
	}
	return nrefs, nil
}

// --- record wire format ------------------------------------------------------
//
//	u32 id | u8 kind | u16 payloadLen | payload | u16 nrefs | nrefs × u32
//
// In placeholder mode pointer slots are written as zeroes with NilRef
// slots written as NilRef (so nil-ness survives without a relation entry).

// recordHeaderBytes is the size of a record's id, kind and payloadLen.
const recordHeaderBytes = 7

// recordSpan bounds-checks the record at the start of b in place and
// returns its payload length and ref count; it applies the same checks
// as readRecord.
func recordSpan(b []byte) (plen, nrefs int, err error) {
	if len(b) < recordHeaderBytes {
		return 0, 0, fmt.Errorf("header: %w", io.ErrUnexpectedEOF)
	}
	plen = int(binary.LittleEndian.Uint16(b[5:]))
	rest := len(b) - recordHeaderBytes
	if plen > rest {
		return 0, 0, fmt.Errorf("payload length %d exceeds remaining %d", plen, rest)
	}
	rest -= plen
	if rest < 2 {
		return 0, 0, fmt.Errorf("nrefs: %w", io.ErrUnexpectedEOF)
	}
	nrefs = int(binary.LittleEndian.Uint16(b[recordHeaderBytes+plen:]))
	if nrefs*4 > rest-2 {
		return 0, 0, fmt.Errorf("ref count %d exceeds remaining bytes", nrefs)
	}
	return plen, nrefs, nil
}

// recordBytes returns the encoded size of o's record.
func recordBytes(o *Object) int {
	return recordHeaderBytes + len(o.Payload) + 2 + 4*len(o.Refs)
}

// checkRecord reports whether o fits the record wire format.
func checkRecord(o *Object) error {
	if len(o.Payload) > 0xFFFF {
		return fmt.Errorf("serial: payload of object %d too large: %d bytes", o.ID, len(o.Payload))
	}
	if len(o.Refs) > 0xFFFF {
		return fmt.Errorf("serial: object %d has too many refs: %d", o.ID, len(o.Refs))
	}
	return nil
}

// appendRecord appends o's record, which must pass checkRecord, to b.
func appendRecord(b []byte, o *Object, placeholders bool) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(o.ID))
	b = append(b, o.Kind)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(o.Payload)))
	b = append(b, o.Payload...)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(o.Refs)))
	for _, ref := range o.Refs {
		if placeholders && ref != NilRef {
			ref = 0
		}
		b = binary.LittleEndian.AppendUint32(b, uint32(ref))
	}
	return b
}

func readRecord(r *bytes.Reader) (Object, error) {
	var hdr [7]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Object{}, fmt.Errorf("header: %w", err)
	}
	o := Object{
		ID:   ObjectID(binary.LittleEndian.Uint32(hdr[0:])),
		Kind: hdr[4],
	}
	plen := binary.LittleEndian.Uint16(hdr[5:])
	if int(plen) > r.Len() {
		return Object{}, fmt.Errorf("payload length %d exceeds remaining %d", plen, r.Len())
	}
	o.Payload = make([]byte, plen)
	if _, err := io.ReadFull(r, o.Payload); err != nil {
		return Object{}, fmt.Errorf("payload: %w", err)
	}
	var nr [2]byte
	if _, err := io.ReadFull(r, nr[:]); err != nil {
		return Object{}, fmt.Errorf("nrefs: %w", err)
	}
	nrefs := binary.LittleEndian.Uint16(nr[:])
	if int(nrefs)*4 > r.Len() {
		return Object{}, fmt.Errorf("ref count %d exceeds remaining bytes", nrefs)
	}
	o.Refs = make([]ObjectID, nrefs)
	var slot [4]byte
	for i := range o.Refs {
		if _, err := io.ReadFull(r, slot[:]); err != nil {
			return Object{}, fmt.Errorf("ref %d: %w", i, err)
		}
		o.Refs[i] = ObjectID(binary.LittleEndian.Uint32(slot[:]))
	}
	return o, nil
}

// Equal reports whether two object sets describe the same graph.
func Equal(a, b []Object) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Kind != b[i].Kind {
			return false
		}
		if !bytes.Equal(a[i].Payload, b[i].Payload) {
			return false
		}
		if len(a[i].Refs) != len(b[i].Refs) {
			return false
		}
		for j := range a[i].Refs {
			if a[i].Refs[j] != b[i].Refs[j] {
				return false
			}
		}
	}
	return true
}
