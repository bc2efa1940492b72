package catalyzer

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"catalyzer/internal/experiments"
)

// TestExperimentsGolden regenerates every experiment, extensions
// included, and compares the result with testdata/experiments.golden.json,
// which holds the output of `catalyzer-bench -ext -format json`. Like the
// chaos goldens, it is compared only in full runs on amd64, and there is
// no -update flag: a change that moves an experiment must say why and
// regenerate the file with catalyzer-bench.
func TestExperimentsGolden(t *testing.T) {
	if testing.Short() || runtime.GOARCH != "amd64" {
		t.Skipf("experiment golden not compared (short mode or GOARCH=%s)", runtime.GOARCH)
	}
	path := filepath.Join("testdata", "experiments.golden.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := string(data)
	for _, g := range experiments.AllWithExtensions() {
		tbl, err := g.Run()
		if err != nil {
			t.Fatalf("%s: %v", g.ID, err)
		}
		doc, err := tbl.JSON()
		if err != nil {
			t.Fatalf("%s: %v", g.ID, err)
		}
		got := string(doc) + "\n" // catalyzer-bench prints one document per line
		if !strings.HasPrefix(want, got) {
			t.Fatalf("experiment %s differs from %s; got:\n%s", g.ID, path, got)
		}
		want = want[len(got):]
	}
	if want != "" {
		t.Fatalf("%s has %d bytes beyond the last experiment", path, len(want))
	}
}
