package image

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"catalyzer/internal/guest"
	"catalyzer/internal/simenv"
)

// FuzzDecode hardens the func-image loader: arbitrary bytes must never
// panic, every image that decodes must restore by both paths or fail
// cleanly, and valid images must round-trip.
func FuzzDecode(f *testing.F) {
	img := buildImage(f, 300, 32)
	data, err := img.Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add([]byte{})
	f.Add([]byte("not an image"))
	f.Add(data[:len(data)/2])
	f.Add(offsetImage(f, img, false, math.MaxUint64-1))

	f.Fuzz(func(t *testing.T, b []byte) {
		got, err := Decode(b)
		if err != nil {
			return
		}
		for name, restore := range map[string]func(*simenv.Env, *guest.Checkpoint) (*guest.Kernel, error){
			"separated": guest.RestoreSeparated,
			"baseline":  guest.RestoreBaseline,
		} {
			if k, err := restore(newEnv(), got.Kernel); err == nil && k == nil {
				t.Fatalf("%s restore returned neither a kernel nor an error", name)
			}
		}
		re, err := got.Encode()
		if err != nil {
			t.Fatalf("decoded image failed to re-encode: %v", err)
		}
		again, err := Decode(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if again.Name != got.Name || again.Mem != got.Mem {
			t.Fatal("decode/encode/decode not stable")
		}
	})
}

// FuzzJournal hardens journal replay: arbitrary bytes must never panic,
// a successful decode must be canonical (re-framing the records
// reproduces the clean prefix byte for byte), and every failure must be
// the typed ErrCorrupt the store's quarantine path keys on.
func FuzzJournal(f *testing.F) {
	_, valid := sampleJournal()
	f.Add(valid)
	f.Add(valid[:len(valid)-5]) // torn tail
	f.Add([]byte{})
	f.Add([]byte("not a journal"))
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, b []byte) {
		recs, cleanLen, err := decodeJournal(b)
		if cleanLen < 0 || cleanLen > len(b) {
			t.Fatalf("cleanLen %d out of range for %d bytes", cleanLen, len(b))
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error not typed ErrCorrupt: %v", err)
			}
			return
		}
		var rebuilt []byte
		for _, r := range recs {
			rebuilt = appendFrame(rebuilt, r.encode())
		}
		if !bytes.Equal(rebuilt, b[:cleanLen]) {
			t.Fatalf("decode not canonical: re-encoded %d bytes != clean prefix %d bytes", len(rebuilt), cleanLen)
		}
		// Replaying arbitrary (but well-formed) records must not panic
		// and must stay idempotent.
		s := &Store{entries: make(map[string]*entry)}
		for _, r := range recs {
			s.replay(r)
		}
		for _, r := range recs {
			s.replay(r)
		}
	})
}

// FuzzManifest hardens manifest decoding: arbitrary bytes must never
// panic, failures are typed ErrCorrupt, and a successful decode must
// survive an encode/decode round trip.
func FuzzManifest(f *testing.F) {
	_, valid := sampleManifest()
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn tail (always corrupt for manifests)
	f.Add(encodeManifest(nil))
	f.Add([]byte{})
	f.Add([]byte("CMANgarbage"))
	flipped := append([]byte(nil), valid...)
	flipped[9] ^= 0x02
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, b []byte) {
		entries, err := decodeManifest(b)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error not typed ErrCorrupt: %v", err)
			}
			return
		}
		redec, rerr := decodeManifest(encodeManifest(entries))
		if rerr != nil {
			t.Fatalf("re-encoded manifest failed to decode: %v", rerr)
		}
		if len(redec) != len(entries) {
			t.Fatalf("round trip changed entry count: %d != %d", len(redec), len(entries))
		}
	})
}
