package guest

import (
	"testing"
	"testing/quick"

	"catalyzer/internal/serial"
	"catalyzer/internal/vfs"
)

func typedKernel(t testing.TB) *Kernel {
	t.Helper()
	k := NewKernel(newEnv(), 99, 200)
	// Build a small process tree: init(0) -> app(1) -> workers(2,3).
	app, err := k.NewTask(0)
	if err != nil {
		t.Fatal(err)
	}
	w1, err := k.NewTask(app)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.NewTask(app); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := k.NewThread(app); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := k.NewThread(w1); err != nil {
		t.Fatal(err)
	}
	if _, err := k.NewTimer(app, 250); err != nil {
		t.Fatal(err)
	}
	if _, err := k.NewTimer(w1, 500); err != nil {
		t.Fatal(err)
	}
	return k
}

func TestTaskTableShape(t *testing.T) {
	k := typedKernel(t)
	tbl, err := k.TaskTable()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Tasks) != 4 { // init + app + 2 workers
		t.Fatalf("tasks = %d", len(tbl.Tasks))
	}
	if len(tbl.Threads) != 4+6+1 { // kernel base 4 + app 6 + worker 1
		t.Fatalf("threads = %d", len(tbl.Threads))
	}
	if len(tbl.Timers) != 2 {
		t.Fatalf("timers = %d", len(tbl.Timers))
	}
	if tbl.Tasks[0].Parent != RootTask {
		t.Fatal("init task has a parent")
	}
	if d, err := tbl.Depth(0); err != nil || d != 0 {
		t.Fatalf("Depth(init) = %d, %v", d, err)
	}
	if d, err := tbl.Depth(2); err != nil || d != 2 {
		t.Fatalf("Depth(worker) = %d, %v", d, err)
	}
	if _, err := tbl.Depth(99); err == nil {
		t.Fatal("Depth out of range accepted")
	}
	if tbl.Timers[1].IntervalMS != 500 {
		t.Fatalf("timer interval = %d", tbl.Timers[1].IntervalMS)
	}
}

func TestTaskCreationValidation(t *testing.T) {
	k := NewKernel(newEnv(), 1, 50)
	if _, err := k.NewTask(5); err == nil {
		t.Fatal("task with unknown parent accepted")
	}
	if _, err := k.NewThread(7); err == nil {
		t.Fatal("thread on unknown task accepted")
	}
	if _, err := k.NewTimer(-2, 10); err == nil {
		t.Fatal("timer on negative task accepted")
	}
}

func TestTaskTableSurvivesBothRestorePaths(t *testing.T) {
	k := typedKernel(t)
	k.Conns.Open(vfs.ConnFile, "/f")
	want, err := k.TaskTable()
	if err != nil {
		t.Fatal(err)
	}
	cp, err := k.Capture()
	if err != nil {
		t.Fatal(err)
	}
	rb, err := RestoreBaseline(newEnv(), cp)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := RestoreSeparated(newEnv(), cp)
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*Kernel{"baseline": rb, "separated": rs} {
		got, err := r.TaskTable()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !got.Equal(want) {
			t.Fatalf("%s restore changed the task hierarchy", name)
		}
	}
}

func TestTaskTableSharedAcrossSfork(t *testing.T) {
	k := typedKernel(t)
	child := k.CloneShared()
	a, err := k.TaskTable()
	if err != nil {
		t.Fatal(err)
	}
	b, err := child.TaskTable()
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatal("sforked child sees a different task hierarchy")
	}
}

// Sforked children share the parent's object slice clipped to its
// length, so two children that each append a task get distinct tables
// even when the parent's slice has spare capacity.
func TestCloneSharedChildrenAppendIndependently(t *testing.T) {
	k := typedKernel(t)
	k.objects = append(make([]serial.Object, 0, len(k.objects)+8), k.objects...)
	a, b := k.CloneShared(), k.CloneShared()
	if _, err := a.NewTask(0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.NewTask(1); err != nil {
		t.Fatal(err)
	}
	want, err := k.TaskTable()
	if err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		child  *Kernel
		parent int32
	}{"a": {a, 0}, "b": {b, 1}} {
		got, err := tc.child.TaskTable()
		if err != nil {
			t.Fatalf("child %s: %v", name, err)
		}
		n := len(want.Tasks)
		if len(got.Tasks) != n+1 || got.Tasks[n].Parent != tc.parent {
			t.Fatalf("child %s tasks = %+v, want the parent's %d plus one under task %d", name, got.Tasks, n, tc.parent)
		}
	}
	if after, err := k.TaskTable(); err != nil || !after.Equal(want) {
		t.Fatalf("children changed the parent's task table: %v", err)
	}
}

// A restored kernel keeps its record region until the first mutation,
// which materializes the graph once and then behaves like a built one.
func TestRestoredKernelMaterializesOnMutation(t *testing.T) {
	k := typedKernel(t)
	cp, err := k.Capture()
	if err != nil {
		t.Fatal(err)
	}
	r, err := RestoreSeparated(newEnv(), cp)
	if err != nil {
		t.Fatal(err)
	}
	child := r.CloneShared()
	if _, err := r.NewTask(2); err != nil {
		t.Fatal(err)
	}
	if _, err := k.NewTask(2); err != nil {
		t.Fatal(err)
	}
	if r.rec != nil || r.Signature() != k.Signature() || r.ObjectCount() != k.ObjectCount() {
		t.Fatal("mutating a restored kernel diverged from mutating the original")
	}
	if child.rec == nil || child.ObjectCount() != k.ObjectCount()-1 {
		t.Fatal("mutating a restored kernel changed its sforked child")
	}
}

func TestTaskTableRejectsMalformedState(t *testing.T) {
	k := typedKernel(t)
	cp, err := k.Capture()
	if err != nil {
		t.Fatal(err)
	}
	r, err := RestoreSeparated(newEnv(), cp)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a task payload's type tag inside the restored kernel's
	// record region, which is its object graph. The region is cp's shared
	// fixed-up copy; no other kernel restores from cp here.
	if r.rec == nil || r.objects != nil {
		t.Fatal("separated restore materialized the object graph")
	}
	corrupted := false
	for _, off := range r.rec.Index {
		if r.rec.Region[off+4] == KindTask { // record header: u32 id, u8 kind, u16 len
			r.rec.Region[off+7] = 0xFF
			corrupted = true
			break
		}
	}
	if !corrupted {
		t.Fatal("no task record in the restored region")
	}
	if _, err := r.TaskTable(); err == nil {
		t.Fatal("malformed task payload accepted")
	}
	// Untyped critical objects (random payloads) are also rejected.
	k2 := NewKernel(newEnv(), 5, 50)
	k2.CreateObjects(KindThread, 1)
	if _, err := k2.TaskTable(); err == nil {
		t.Fatal("untyped thread object accepted by TaskTable")
	}
}

// Property: any randomly shaped task forest created through the typed API
// parses back with correct parentage and finite depths, before and after
// checkpoint/restore.
func TestTaskForestProperty(t *testing.T) {
	f := func(shape []uint8) bool {
		k := NewKernel(newEnv(), 77, 100)
		tasks := int32(1) // init task
		for _, b := range shape {
			parent := int32(b) % tasks
			switch b % 3 {
			case 0:
				n, err := k.NewTask(parent)
				if err != nil {
					return false
				}
				tasks = n + 1
			case 1:
				if _, err := k.NewThread(parent); err != nil {
					return false
				}
			case 2:
				if _, err := k.NewTimer(parent, uint16(b)); err != nil {
					return false
				}
			}
		}
		before, err := k.TaskTable()
		if err != nil {
			return false
		}
		for i := int32(0); i < int32(len(before.Tasks)); i++ {
			if _, err := before.Depth(i); err != nil {
				return false
			}
		}
		cp, err := k.Capture()
		if err != nil {
			return false
		}
		r, err := RestoreSeparated(newEnv(), cp)
		if err != nil {
			return false
		}
		after, err := r.TaskTable()
		if err != nil {
			return false
		}
		return after.Equal(before)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
