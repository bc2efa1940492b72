package costmodel

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestJSONGolden pins the calibration document byte for byte: key names,
// key order and values of both built-in models. A recalibration file
// written against an older build must keep loading unchanged.
func TestJSONGolden(t *testing.T) {
	for name, m := range map[string]*Model{"default": Default(), "server": Server()} {
		want, err := os.ReadFile("testdata/" + name + ".json")
		if err != nil {
			t.Fatal(err)
		}
		got, err := ToJSON(m)
		if err != nil {
			t.Fatal(err)
		}
		if got = append(got, '\n'); !bytes.Equal(got, want) {
			t.Fatalf("%s: document changed; got:\n%s", name, got)
		}
		back, err := FromJSON(want)
		if err != nil {
			t.Fatal(err)
		}
		if *back != *m {
			t.Fatalf("%s: golden parses to %+v, want %+v", name, back, m)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	orig := Default()
	data, err := ToJSON(orig)
	if err != nil {
		t.Fatal(err)
	}
	got, err := FromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *orig {
		t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, orig)
	}
	// Server model too.
	data, err = ToJSON(Server())
	if err != nil {
		t.Fatal(err)
	}
	got, err = FromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.NCPU != 96 {
		t.Fatalf("server NCPU = %d", got.NCPU)
	}
}

func TestFromJSONValidation(t *testing.T) {
	if _, err := FromJSON([]byte("nope")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := FromJSON([]byte(`{"ncpu":0}`)); err == nil {
		t.Fatal("zero ncpu accepted")
	}
}

// TestFromJSONRejectsNegativeCosts: a negative cost would move the
// virtual clock backwards at the first boot that charges it, so every
// key of the document is refused below zero, by name.
func TestFromJSONRejectsNegativeCosts(t *testing.T) {
	data, err := ToJSON(Default())
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]int64
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for key, v := range doc {
		doc[key] = -4000
		edited, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		doc[key] = v
		if _, err := FromJSON(edited); err == nil || !strings.Contains(err.Error(), key) {
			t.Errorf("%s = -4000: FromJSON error %v, want one naming the key", key, err)
		}
	}
}

func TestJSONIsEditable(t *testing.T) {
	data, err := ToJSON(Default())
	if err != nil {
		t.Fatal(err)
	}
	// The document carries readable nanosecond fields.
	for _, field := range []string{"objectDecodeNS", "pointerFixupNS", "sentryBootNS", "ncpu"} {
		if !strings.Contains(string(data), field) {
			t.Fatalf("document missing %s", field)
		}
	}
	// An edited document loads with the change applied.
	edited := strings.Replace(string(data), `"objectDecodeNS": 1500`, `"objectDecodeNS": 3000`, 1)
	if edited == string(data) {
		t.Fatal("edit did not apply (field format changed?)")
	}
	m, err := FromJSON([]byte(edited))
	if err != nil {
		t.Fatal(err)
	}
	if m.ObjectDecode != 2*Default().ObjectDecode {
		t.Fatalf("edited ObjectDecode = %v", m.ObjectDecode)
	}
}
