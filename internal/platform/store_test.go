package platform

import (
	"context"
	"os"
	"testing"

	"catalyzer/internal/costmodel"
	"catalyzer/internal/faults"
	"catalyzer/internal/image"
)

func TestPlatformPersistsImagesAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	store, err := image.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}

	// First platform builds and persists the image.
	p1 := NewWithStore(costmodel.Default(), store)
	f1, err := p1.PrepareImage("c-nginx")
	if err != nil {
		t.Fatal(err)
	}
	names, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "c-nginx" {
		t.Fatalf("store contents = %v", names)
	}

	// A "restarted" platform loads from the store instead of rebuilding.
	p2 := NewWithStore(costmodel.Default(), store)
	f2, err := p2.PrepareImage("c-nginx")
	if err != nil {
		t.Fatal(err)
	}
	if string(f2.Image.Kernel.Records.Region) != string(f1.Image.Kernel.Records.Region) {
		t.Fatal("restarted platform loaded a different image")
	}
	if f2.Cache == nil || f2.Cache.Len() != f1.Cache.Len() {
		t.Fatalf("I/O cache lost across restart: %v", f2.Cache)
	}
	// And boots from it normally.
	r, err := p2.Invoke("c-nginx", CatalyzerRestore)
	if err != nil {
		t.Fatal(err)
	}
	if r.BootLatency <= 0 {
		t.Fatal("degenerate boot")
	}
}

func TestPlatformWithoutStoreUnchanged(t *testing.T) {
	p := New(costmodel.Default())
	if _, err := p.PrepareImage("c-hello"); err != nil {
		t.Fatal(err)
	}
}

// TestRollbackToLastKnownGood is the platform half of the rollback
// contract: with two generations persisted, a corrupt active generation
// is quarantined, the previous generation is served immediately
// (Rollbacks counted), and a fresh image is rebuilt off the critical
// path.
func TestRollbackToLastKnownGood(t *testing.T) {
	dir := t.TempDir()
	store, err := image.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	p1 := NewWithStore(costmodel.Default(), store)
	if _, err := p1.PrepareImage("c-hello"); err != nil {
		t.Fatal(err)
	}
	// Second generation (a re-deploy of the same function), keeping
	// generation 1 as last-known-good.
	f1, err := p1.Lookup("c-hello")
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save(f1.Image); err != nil {
		t.Fatal(err)
	}
	if g, lkg := store.ActiveGen("c-hello"), store.LastKnownGood("c-hello"); g != 2 || lkg != 1 {
		t.Fatalf("setup generations = active %d, lkg %d, want 2, 1", g, lkg)
	}
	// Corrupt the active generation on disk.
	path, err := store.ActivePath("c-hello")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/3] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// A restarted platform hits the corruption: quarantine + rollback,
	// invocation served, rebuild off the critical path.
	p2 := NewWithStore(costmodel.Default(), store)
	f2, err := p2.PrepareImage("c-hello")
	if err != nil {
		t.Fatalf("prepare with corrupt active generation failed: %v", err)
	}
	if f2.Image == nil {
		t.Fatal("no image after rollback")
	}
	st := p2.FailureStats()
	if st.Rollbacks != 1 {
		t.Fatalf("Rollbacks = %d, want 1: %+v", st.Rollbacks, st)
	}
	if st.ImagesQuarantined != 1 {
		t.Fatalf("ImagesQuarantined = %d, want 1", st.ImagesQuarantined)
	}
	// The rebuild is only queued: it runs at the next supervision Poll.
	if st.ImageRebuilds != 0 {
		t.Fatalf("ImageRebuilds = %d before any Poll, want 0: %+v", st.ImageRebuilds, st)
	}
	// The rolled-back image serves an invocation right now.
	r, err := p2.InvokeRecover(context.Background(), "c-hello", CatalyzerRestore)
	if err != nil {
		t.Fatalf("invoke on rolled-back image: %v", err)
	}
	if r.Total() <= 0 {
		t.Fatal("degenerate invocation")
	}
	// The invocation's Poll ran the off-critical-path rebuild, which
	// landed a fresh generation.
	st = p2.FailureStats()
	if st.ImageRebuilds != 1 {
		t.Fatalf("ImageRebuilds = %d after the invocation's Poll, want 1: %+v", st.ImageRebuilds, st)
	}
	if _, err := store.Load("c-hello"); err != nil {
		t.Fatalf("store unreadable after rebuild: %v", err)
	}
	if g := store.ActiveGen("c-hello"); g <= 1 {
		t.Fatalf("rebuild did not advance the active generation: %d", g)
	}
	q, err := store.Quarantined()
	if err != nil || len(q) != 1 || q[0] != "c-hello" {
		t.Fatalf("Quarantined = %v, %v", q, err)
	}
	p2.Close()
}

// TestStoreCrashDuringPersistDoesNotFailDeploy: a Save that "crashes"
// at a durability boundary is counted (ImageSaveFailures), but the
// deploy succeeds on the in-memory image and a platform restart against
// the same directory recovers a consistent store.
func TestStoreCrashDuringPersistDoesNotFailDeploy(t *testing.T) {
	dir := t.TempDir()
	store, err := image.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	p := NewWithStore(costmodel.Default(), store)
	inj := faults.New(7)
	inj.Arm(faults.SiteStoreRename, 1)
	p.InstallFaults(inj)
	f, err := p.PrepareImage("c-hello")
	if err != nil {
		t.Fatalf("deploy failed on a persistence crash: %v", err)
	}
	if f.Image == nil {
		t.Fatal("no in-memory image")
	}
	if st := p.FailureStats(); st.ImageSaveFailures != 1 {
		t.Fatalf("ImageSaveFailures = %d, want 1: %+v", st.ImageSaveFailures, st)
	}
	// The function still serves.
	if _, err := p.Invoke("c-hello", CatalyzerRestore); err != nil {
		t.Fatal(err)
	}
	// Reopening the store dir converges (pre-Save state: nothing was
	// acknowledged) and sweeps the orphaned temp file.
	store2, err := image.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st := store2.Stats(); st.OrphansSwept != 1 {
		t.Fatalf("OrphansSwept = %d, want 1", st.OrphansSwept)
	}
	names, err := store2.List()
	if err != nil || len(names) != 0 {
		t.Fatalf("unacknowledged save surfaced on reopen: %v, %v", names, err)
	}
}

// TestStoredFunctions: the store's manifest names the functions a
// restarted daemon can rehydrate.
func TestStoredFunctions(t *testing.T) {
	p := New(costmodel.Default())
	if names, err := p.StoredFunctions(); err != nil || names != nil {
		t.Fatalf("StoredFunctions without store = %v, %v", names, err)
	}
	dir := t.TempDir()
	store, err := image.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ps := NewWithStore(costmodel.Default(), store)
	for _, fn := range []string{"c-hello", "c-nginx"} {
		if _, err := ps.PrepareImage(fn); err != nil {
			t.Fatal(err)
		}
	}
	names, err := ps.StoredFunctions()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "c-hello" || names[1] != "c-nginx" {
		t.Fatalf("StoredFunctions = %v", names)
	}
}
