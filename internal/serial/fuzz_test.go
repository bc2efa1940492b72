package serial

import (
	"bytes"
	"fmt"
	"testing"
)

// FuzzDecodeBaseline hardens the restore path against malformed
// checkpoint streams: decoding must never panic, and successful decodes
// must re-encode to a stream that decodes to the same graph.
func FuzzDecodeBaseline(f *testing.F) {
	for _, n := range []int{1, 20, 200} {
		data, _, err := EncodeBaseline(genGraph(n, int64(n)))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte("garbage that is definitely not flate"))

	f.Fuzz(func(t *testing.T, data []byte) {
		objs, _, err := DecodeBaseline(data)
		if err != nil {
			return // rejected is fine; panicking is not
		}
		re, _, err := EncodeBaseline(objs)
		if err != nil {
			// Decoded objects may have non-dense IDs; the encoder must
			// reject them cleanly rather than crash.
			return
		}
		again, _, err := DecodeBaseline(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !Equal(objs, again) {
			t.Fatal("decode/encode/decode not stable")
		}
	})
}

// FuzzDecodeRecords hardens the mapped-records path: arbitrary region
// bytes with arbitrary indices must never panic. It is also differential:
// DecodeRecords must agree with one-by-one readRecord decoding, and the
// validating pass must accept exactly the same inputs and count exactly
// the decoded objects' kinds.
func FuzzDecodeRecords(f *testing.F) {
	rec, _, err := EncodeRecords(genGraph(50, 3))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(rec.Region, uint16(len(rec.Index)))
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{1, 2, 3}, uint16(9))

	f.Fuzz(func(t *testing.T, region []byte, nidx uint16) {
		r := &Records{Region: region}
		step := 1
		if len(region) > 0 && int(nidx) > 0 {
			step = len(region)/int(nidx) + 1
		}
		for off := 0; off < len(region) && len(r.Index) < int(nidx); off += step {
			r.Index = append(r.Index, uint32(off))
		}
		objs, err := DecodeRecords(r)
		want, wantErr := decodeOneByOne(r)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("DecodeRecords err = %v, one-by-one err = %v", err, wantErr)
		}
		var kinds [256]int
		if verr := ValidateRecords(r, &kinds); (verr == nil) != (err == nil) {
			t.Fatalf("ValidateRecords err = %v, DecodeRecords err = %v", verr, err)
		}
		if err != nil {
			return
		}
		if !Equal(objs, want) {
			t.Fatal("DecodeRecords disagrees with one-by-one decoding")
		}
		var counted [256]int
		for _, o := range objs {
			counted[o.Kind]++
		}
		if kinds != counted {
			t.Fatal("ValidateRecords kind counts differ from the decoded objects")
		}
	})
}

// decodeOneByOne is the reference decoder: a fresh reader and fresh
// payload and ref slices per record.
func decodeOneByOne(rec *Records) ([]Object, error) {
	objs := make([]Object, 0, len(rec.Index))
	for i, off := range rec.Index {
		if uint64(off) > uint64(len(rec.Region)) {
			return nil, fmt.Errorf("record %d offset out of range", i)
		}
		o, err := readRecord(bytes.NewReader(rec.Region[off:]))
		if err != nil {
			return nil, fmt.Errorf("record %d: %w", i, err)
		}
		objs = append(objs, o)
	}
	return objs, nil
}
