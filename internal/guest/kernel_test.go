package guest

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"catalyzer/internal/costmodel"
	"catalyzer/internal/serial"
	"catalyzer/internal/simenv"
	"catalyzer/internal/simtime"
	"catalyzer/internal/vfs"
)

func newEnv() *simenv.Env { return simenv.New(costmodel.Default()) }

func buildKernel(env *simenv.Env, appObjects int) *Kernel {
	k := NewKernel(env, 42, 1500)
	// Application init creates the bulk of the graph.
	k.CreateObjects(KindThread, 30)
	k.CreateObjects(KindTimer, 20)
	k.CreateObjects(KindFD, 100)
	if appObjects > 150 {
		k.CreateObjects(KindMisc, appObjects-150)
	}
	k.Conns.Open(vfs.ConnFile, "/etc/app.conf")
	k.Conns.Open(vfs.ConnSocket, "/run/db.sock")
	return k
}

func TestNewKernelShape(t *testing.T) {
	env := newEnv()
	k := NewKernel(env, 7, 1500)
	if k.ObjectCount() != 1500 {
		t.Fatalf("ObjectCount = %d, want 1500", k.ObjectCount())
	}
	if k.KindCount(KindTask) != 1 || k.KindCount(KindThread) != 4 {
		t.Fatalf("base kinds: tasks=%d threads=%d", k.KindCount(KindTask), k.KindCount(KindThread))
	}
	if got := env.Now(); got != 1500*env.Cost.GuestKernelObjectInit {
		t.Fatalf("init cost = %v, want %v", got, 1500*env.Cost.GuestKernelObjectInit)
	}
}

func TestKernelDeterministic(t *testing.T) {
	a := buildKernel(newEnv(), 5000)
	b := buildKernel(newEnv(), 5000)
	if a.Signature() != b.Signature() {
		t.Fatal("same seed produced different kernels")
	}
	c := NewKernel(newEnv(), 43, 1500)
	if a.Signature() == c.Signature() {
		t.Fatal("different seeds produced identical kernels")
	}
}

func TestCriticalCount(t *testing.T) {
	k := buildKernel(newEnv(), 1000)
	want := k.KindCount(KindTask) + k.KindCount(KindThread) + k.KindCount(KindTimer)
	if k.CriticalCount() != want {
		t.Fatalf("CriticalCount = %d, want %d", k.CriticalCount(), want)
	}
	if !IsCritical(KindTask) || !IsCritical(KindThread) || !IsCritical(KindTimer) {
		t.Fatal("critical kinds misclassified")
	}
	if IsCritical(KindFD) || IsCritical(KindMisc) {
		t.Fatal("non-critical kinds misclassified")
	}
}

func TestMountCreatesObjectAndCharges(t *testing.T) {
	env := newEnv()
	k := NewKernel(env, 1, 100)
	before := env.Now()
	tree := vfs.NewTree()
	tree.Add("/x", vfs.File{Size: 1})
	if err := k.Mount(vfs.Mount{Target: "/", FSType: "rootfs", Tree: tree}); err != nil {
		t.Fatal(err)
	}
	if k.KindCount(KindMount) != 1 {
		t.Fatalf("mount object count = %d", k.KindCount(KindMount))
	}
	if env.Now()-before < env.Cost.MountFS {
		t.Fatal("mount did not charge MountFS")
	}
	if _, ok := k.Mounts.Resolve("/x"); !ok {
		t.Fatal("mounted file not resolvable")
	}
}

func TestMountsSurviveRestore(t *testing.T) {
	env := newEnv()
	k := NewKernel(env, 5, 300)
	tree := vfs.NewTree()
	tree.Add("/etc/app.conf", vfs.File{Size: 2048, Token: 7})
	tree.Add("/var/log/app.log", vfs.File{LogFile: true})
	if err := k.Mount(vfs.Mount{Target: "/", FSType: "rootfs", Tree: tree}); err != nil {
		t.Fatal(err)
	}
	sub := vfs.NewTree()
	sub.Add("/data.bin", vfs.File{Size: 4096, Token: 9})
	if err := k.Mount(vfs.Mount{Target: "/mnt/data", FSType: "bind", Tree: sub}); err != nil {
		t.Fatal(err)
	}
	cp, err := k.Capture()
	if err != nil {
		t.Fatal(err)
	}
	for name, restore := range map[string]func() (*Kernel, error){
		"baseline":  func() (*Kernel, error) { return RestoreBaseline(newEnv(), cp) },
		"separated": func() (*Kernel, error) { return RestoreSeparated(newEnv(), cp) },
	} {
		r, err := restore()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		f, ok := r.Mounts.Resolve("/etc/app.conf")
		if !ok || f.Token != 7 {
			t.Fatalf("%s: /etc/app.conf = %+v,%v", name, f, ok)
		}
		f, ok = r.Mounts.Resolve("/mnt/data/data.bin")
		if !ok || f.Token != 9 {
			t.Fatalf("%s: bind mount lost: %+v,%v", name, f, ok)
		}
		log, ok := r.Mounts.Resolve("/var/log/app.log")
		if !ok || !log.LogFile {
			t.Fatalf("%s: log flag lost", name)
		}
	}
}

func TestBaselineRestoreRoundTrip(t *testing.T) {
	env := newEnv()
	k := buildKernel(env, 3000)
	cp, err := k.Capture()
	if err != nil {
		t.Fatal(err)
	}
	env2 := newEnv()
	r, err := RestoreBaseline(env2, cp)
	if err != nil {
		t.Fatal(err)
	}
	if r.Signature() != k.Signature() {
		t.Fatal("baseline restore changed kernel state")
	}
	if r.ObjectCount() != k.ObjectCount() {
		t.Fatalf("restored %d objects, want %d", r.ObjectCount(), k.ObjectCount())
	}
	// Conn table starts empty; boot paths attach per policy.
	if r.Conns.Len() != 0 {
		t.Fatalf("restored kernel has %d conns before policy attach", r.Conns.Len())
	}
	r.Conns = vfs.RestoreEager(newEnv(), cp.ConnRecords)
	if r.Conns.PendingCount() != 0 || r.Conns.Len() != 2 {
		t.Fatalf("conns pending=%d len=%d", r.Conns.PendingCount(), r.Conns.Len())
	}
}

func TestSeparatedRestoreRoundTrip(t *testing.T) {
	env := newEnv()
	k := buildKernel(env, 3000)
	cp, err := k.Capture()
	if err != nil {
		t.Fatal(err)
	}
	r, err := RestoreSeparated(newEnv(), cp)
	if err != nil {
		t.Fatal(err)
	}
	if r.Signature() != k.Signature() {
		t.Fatal("separated restore changed kernel state")
	}
	if r.ObjectCount() != k.ObjectCount() || r.byKind != k.byKind {
		t.Fatalf("restored %d objects by kind %v, want %d by kind %v", r.ObjectCount(), r.byKind, k.ObjectCount(), k.byKind)
	}
	if r.objects != nil || r.rec == nil {
		t.Fatal("restore or a reader materialized the object graph")
	}
}

// Readers of a restored template kernel write nothing to it, so sforks
// can read it concurrently (run under -race) while their children mutate
// their own copies.
func TestRestoredKernelConcurrentReaders(t *testing.T) {
	k := typedKernel(t)
	cp, err := k.Capture()
	if err != nil {
		t.Fatal(err)
	}
	tmpl, err := RestoreSeparated(newEnv(), cp)
	if err != nil {
		t.Fatal(err)
	}
	want := k.Signature()
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if tmpl.Signature() != want {
				errs[i] = fmt.Errorf("reader %d: signature differs", i)
				return
			}
			if _, err := tmpl.TaskTable(); err != nil {
				errs[i] = err
				return
			}
			child := tmpl.CloneShared()
			_, errs[i] = child.NewThread(0)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if tmpl.rec == nil || tmpl.Signature() != want {
		t.Fatal("children's mutations reached the template")
	}
}

// A separated restore decodes no object, so its allocations do not grow
// with the kernel: a 1k-object and a 40k-object kernel cost the same.
func TestRestoreSeparatedAllocsConstant(t *testing.T) {
	var got []float64
	for _, n := range []int{1000, 40000} {
		cp, err := NewKernel(newEnv(), 11, n).Capture()
		if err != nil {
			t.Fatal(err)
		}
		env := newEnv()
		got = append(got, testing.AllocsPerRun(10, func() {
			if _, err := RestoreSeparated(env, cp); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if got[0] != got[1] {
		t.Fatalf("allocs per RestoreSeparated: %v at 1k objects, %v at 40k objects; want one constant", got[0], got[1])
	}
}

// Concurrent restores of one checkpoint share a single fixup: every
// kernel sees the captured graph through the same fixed-up region, and
// the checkpoint's own region is left as it was captured (run under
// -race).
func TestConcurrentRestoreSharesFixup(t *testing.T) {
	k := buildKernel(newEnv(), 3000)
	cp, err := k.Capture()
	if err != nil {
		t.Fatal(err)
	}
	region := append([]byte(nil), cp.Records.Region...)
	want := k.Signature()
	kernels := make([]*Kernel, 16)
	errs := make([]error, len(kernels))
	var wg sync.WaitGroup
	for i := range kernels {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			kernels[i], errs[i] = RestoreSeparated(newEnv(), cp)
		}(i)
	}
	wg.Wait()
	for i, r := range kernels {
		if errs[i] != nil {
			t.Fatalf("restore %d: %v", i, errs[i])
		}
		if r.Signature() != want {
			t.Fatalf("restore %d: signature differs from the captured kernel", i)
		}
		if r.rec != kernels[0].rec {
			t.Fatalf("restore %d has its own record region", i)
		}
	}
	if string(region) != string(cp.Records.Region) {
		t.Fatal("restores mutated the checkpoint's record region")
	}
}

// Mutating one restored kernel leaves its siblings and the shared
// fixed-up region untouched: the first mutation materializes a private
// graph and only appends to it.
func TestRestoredKernelMutationIsolated(t *testing.T) {
	k := typedKernel(t)
	cp, err := k.Capture()
	if err != nil {
		t.Fatal(err)
	}
	r1, err := RestoreSeparated(newEnv(), cp)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RestoreSeparated(newEnv(), cp)
	if err != nil {
		t.Fatal(err)
	}
	shared := r2.rec
	fixed := append([]byte(nil), shared.Region...)
	want := r2.Signature()
	if _, err := r1.NewTask(0); err != nil {
		t.Fatal(err)
	}
	r1.CreateObjects(KindFD, 100)
	if r1.rec != nil || r1.Signature() == want {
		t.Fatal("mutation did not give r1 its own graph")
	}
	if r2.rec != shared || r2.Signature() != want {
		t.Fatal("mutating r1 changed r2")
	}
	if string(fixed) != string(shared.Region) {
		t.Fatal("mutating r1 wrote into the shared fixed-up region")
	}
}

// A relation table the fixup rejects fails every restore of the
// checkpoint the same way, and no restore charges fixup time for it.
func TestRestoreSeparatedFixupErrorCached(t *testing.T) {
	good, err := buildKernel(newEnv(), 500).Capture()
	if err != nil {
		t.Fatal(err)
	}
	rec := *good.Records
	rec.Relations = append(append([]serial.Relation(nil), rec.Relations...),
		serial.Relation{SlotOffset: uint32(len(rec.Region)) + 100})
	bad := &Checkpoint{Records: &rec, CriticalCount: good.CriticalCount}
	mapOnly := simtime.Duration((len(rec.Region)+1023)/1024) * newEnv().Cost.MetadataMapPerKB
	var first error
	for i := 0; i < 2; i++ {
		env := newEnv()
		_, err := RestoreSeparated(env, bad)
		if err == nil {
			t.Fatalf("restore %d of a bad checkpoint succeeded", i)
		}
		if i == 0 {
			first = err
		} else if err.Error() != first.Error() {
			t.Fatalf("restore %d failed with %v, first with %v", i, err, first)
		}
		if env.Now() != mapOnly {
			t.Fatalf("restore %d charged %v, want only the %v mapping", i, env.Now(), mapOnly)
		}
	}
}

// A region the validating pass rejects fails every restore of the
// checkpoint the same way, and every restore charges the same time: the
// mapping, the fixups and the critical objects, as before the check.
func TestRestoreSeparatedValidateErrorCached(t *testing.T) {
	good, err := buildKernel(newEnv(), 500).Capture()
	if err != nil {
		t.Fatal(err)
	}
	rec := *good.Records
	rec.Index = append(append([]uint32(nil), rec.Index...), uint32(len(rec.Region))+100)
	bad := &Checkpoint{Records: &rec, CriticalCount: good.CriticalCount}
	var first error
	var charged simtime.Duration
	for i := 0; i < 2; i++ {
		env := newEnv()
		_, err := RestoreSeparated(env, bad)
		if err == nil {
			t.Fatalf("restore %d of a bad checkpoint succeeded", i)
		}
		if i == 0 {
			first, charged = err, env.Now()
			continue
		}
		if err.Error() != first.Error() {
			t.Fatalf("restore %d failed with %v, first with %v", i, err, first)
		}
		if env.Now() != charged {
			t.Fatalf("restore %d charged %v, first charged %v", i, env.Now(), charged)
		}
	}
	env := newEnv()
	if _, err := RestoreSeparated(env, good); err != nil {
		t.Fatal(err)
	}
	if env.Now() != charged {
		t.Fatalf("a rejected restore charged %v, a good one %v", charged, env.Now())
	}
}

// Only the first restore of a checkpoint copies its record region: every
// later one allocates far less than the region, whatever its size.
func TestRestoreSeparatedSharesRegionAllocs(t *testing.T) {
	cp, err := NewKernel(newEnv(), 11, 40000).Capture()
	if err != nil {
		t.Fatal(err)
	}
	env := newEnv()
	if _, err := RestoreSeparated(env, cp); err != nil {
		t.Fatal(err)
	}
	const restores = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < restores; i++ {
		if _, err := RestoreSeparated(env, cp); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perRestore := (after.TotalAlloc - before.TotalAlloc) / restores
	if limit := uint64(len(cp.Records.Region) / 8); perRestore >= limit {
		t.Fatalf("a repeat restore allocated %d bytes, want under %d (region %d bytes)",
			perRestore, limit, len(cp.Records.Region))
	}
}

// Both restore paths reject an object whose kind is not one of
// KindTask..KindMisc instead of counting it.
func TestRestoreRejectsUnknownKind(t *testing.T) {
	for _, kind := range []uint8{0, KindMisc + 1, 255} {
		objs := []serial.Object{
			{ID: 0, Kind: KindTask, Payload: []byte{'T', 0xFF, 0xFF, 0xFF, 0xFF}},
			{ID: 1, Kind: kind, Payload: []byte{1, 2, 3, 4}, Refs: []serial.ObjectID{0}},
		}
		baseline, _, err := serial.EncodeBaseline(objs)
		if err != nil {
			t.Fatal(err)
		}
		records, _, err := serial.EncodeRecords(objs)
		if err != nil {
			t.Fatal(err)
		}
		cp := &Checkpoint{Baseline: baseline, Records: records}
		for name, restore := range map[string]func(*simenv.Env, *Checkpoint) (*Kernel, error){
			"baseline":  RestoreBaseline,
			"separated": RestoreSeparated,
		} {
			for i := 0; i < 2; i++ {
				if _, err := restore(newEnv(), cp); err == nil {
					t.Errorf("%s restore %d accepted an object of kind %d", name, i, kind)
				}
			}
		}
	}
}

func TestRestoreSeparatedCorruptRegion(t *testing.T) {
	cp, err := buildKernel(newEnv(), 500).Capture()
	if err != nil {
		t.Fatal(err)
	}
	region := cp.Records.Region
	for name, rec := range map[string]*serial.Records{
		"index past region": {Region: region, Index: []uint32{uint32(len(region)) + 1}},
		"truncated record":  {Region: region[:len(region)-1], Index: cp.Records.Index},
	} {
		bad := &Checkpoint{Records: rec}
		if _, err := RestoreSeparated(newEnv(), bad); err == nil {
			t.Errorf("%s: separated restore succeeded", name)
		}
	}
}

func TestSeparatedFasterThanBaseline(t *testing.T) {
	env := newEnv()
	k := buildKernel(env, 37838-150) // SPECjbb-scale graph
	cp, err := k.Capture()
	if err != nil {
		t.Fatal(err)
	}

	envB := newEnv()
	if _, err := RestoreBaseline(envB, cp); err != nil {
		t.Fatal(err)
	}
	envS := newEnv()
	if _, err := RestoreSeparated(envS, cp); err != nil {
		t.Fatal(err)
	}
	ratio := float64(envB.Now()) / float64(envS.Now())
	// Figure 12: separated object loading reduces kernel recovery ~6-7x;
	// add eager-vs-lazy conn work and the full-path gap is larger.
	if ratio < 4 {
		t.Fatalf("separated restore only %.1fx faster (baseline %v vs %v)", ratio, envB.Now(), envS.Now())
	}
}

func TestSeparatedRestoreDoesNotMutateCheckpoint(t *testing.T) {
	env := newEnv()
	k := buildKernel(env, 1000)
	cp, err := k.Capture()
	if err != nil {
		t.Fatal(err)
	}
	region := append([]byte(nil), cp.Records.Region...)
	if _, err := RestoreSeparated(newEnv(), cp); err != nil {
		t.Fatal(err)
	}
	if string(region) != string(cp.Records.Region) {
		t.Fatal("restore mutated the shared checkpoint image")
	}
	// Restore twice: both must succeed identically (double restore).
	r1, err := RestoreSeparated(newEnv(), cp)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RestoreSeparated(newEnv(), cp)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Signature() != r2.Signature() {
		t.Fatal("double restore diverged")
	}
}

func TestRestoreBaselineCorruptImage(t *testing.T) {
	env := newEnv()
	k := buildKernel(env, 500)
	cp, err := k.Capture()
	if err != nil {
		t.Fatal(err)
	}
	bad := &Checkpoint{Baseline: cp.Baseline[:len(cp.Baseline)/3], Records: cp.Records}
	if _, err := RestoreBaseline(newEnv(), bad); err == nil {
		t.Fatal("truncated baseline restored successfully")
	}
}

func TestRecordBytesPerObjectCalibration(t *testing.T) {
	env := newEnv()
	k := buildKernel(env, 37838-150)
	cp, err := k.Capture()
	if err != nil {
		t.Fatal(err)
	}
	perObject := float64(len(cp.Records.Region)) / float64(k.ObjectCount())
	// Table 3: 680.6 KB metadata for 37,838 objects => ~18.4 B/object.
	if perObject < 14 || perObject > 23 {
		t.Fatalf("record bytes/object = %.1f, want ~18 (Table 3 calibration)", perObject)
	}
}

// Property: capture/restore is lossless for any kernel size, in both
// formats, and restored kernels re-capture to identical checkpoints.
func TestCaptureRestoreProperty(t *testing.T) {
	f := func(seed uint16, extra uint16) bool {
		env := newEnv()
		k := NewKernel(env, uint64(seed)+1, 200)
		k.CreateObjects(KindMisc, int(extra%2000))
		k.Conns.Open(vfs.ConnFile, "/f")
		cp, err := k.Capture()
		if err != nil {
			return false
		}
		rb, err := RestoreBaseline(newEnv(), cp)
		if err != nil {
			return false
		}
		rs, err := RestoreSeparated(newEnv(), cp)
		if err != nil {
			return false
		}
		if rb.Signature() != k.Signature() || rs.Signature() != k.Signature() {
			return false
		}
		cp2, err := rs.Capture()
		if err != nil {
			return false
		}
		return serial.Equal(
			mustDecode(cp.Baseline),
			mustDecode(cp2.Baseline),
		)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func mustDecode(b []byte) []serial.Object {
	objs, _, err := serial.DecodeBaseline(b)
	if err != nil {
		panic(err)
	}
	return objs
}

// BenchmarkRestoreSeparatedRepeat restores one SPECjbb-sized checkpoint
// over and over: the path every warm and cold Catalyzer boot takes after
// the checkpoint's first restore.
func BenchmarkRestoreSeparatedRepeat(b *testing.B) {
	cp, err := buildKernel(newEnv(), 37838-150).Capture()
	if err != nil {
		b.Fatal(err)
	}
	env := newEnv()
	if _, err := RestoreSeparated(env, cp); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RestoreSeparated(env, cp); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCreateObjectsPinned pins the graph, kind counts and virtual-time
// charge a fixed seed yields over a mix of CreateObjects calls, so a
// change to how objects are built cannot move the RNG order, the object
// graph (and with it every image byte) or the clock.
func TestCreateObjectsPinned(t *testing.T) {
	env := newEnv()
	k := NewKernel(env, 0x5eed, 300)
	if got := env.Now(); got != 150*simtime.Microsecond {
		t.Fatalf("NewKernel charged %v, want 150µs", got)
	}
	start := env.Now()
	k.CreateObjects(KindThread, 7)
	k.CreateObjects(KindTimer, 1)
	k.CreateObjects(KindFD, 0)
	k.CreateObjects(KindFD, 513)
	k.CreateObjects(KindSession, 3)
	k.CreateObjects(KindMisc, 2048)
	if got, want := k.Signature(), uint64(0x30a30a15be6bbe0f); got != want {
		t.Fatalf("Signature = %#x, want %#x", got, want)
	}
	if got := k.ObjectCount(); got != 2872 {
		t.Fatalf("ObjectCount = %d, want 2872", got)
	}
	if got := env.Now() - start; got != 1286*simtime.Microsecond {
		t.Fatalf("CreateObjects charged %v, want 1.286ms", got)
	}
	want := map[uint8]int{0: 0, KindTask: 1, KindThread: 11, KindTimer: 1, KindMount: 0,
		KindSession: 4, KindFD: 513, KindMisc: 2342, KindMisc + 1: 0}
	for kind, n := range want {
		if got := k.KindCount(kind); got != n {
			t.Errorf("KindCount(%d) = %d, want %d", kind, got, n)
		}
	}
}

// TestCreateObjectsArenaIsolation: objects of one call share payload and
// reference arenas, so an append to one object must reallocate rather
// than write into its neighbour's bytes.
func TestCreateObjectsArenaIsolation(t *testing.T) {
	k := NewKernel(newEnv(), 3, 10)
	k.CreateObjects(KindFD, 64)
	objs := k.Objects()
	for i := 10; i+1 < len(objs); i++ {
		a, b := &objs[i], &objs[i+1]
		payload := append([]byte(nil), b.Payload...)
		refs := append([]serial.ObjectID(nil), b.Refs...)
		a.Payload = append(a.Payload, 0xAA, 0xBB, 0xCC)
		a.Refs = append(a.Refs, 1, 2, 3)
		if string(b.Payload) != string(payload) {
			t.Fatalf("appending to object %d's payload changed object %d's: %x -> %x", i, i+1, payload, b.Payload)
		}
		if fmt.Sprint(b.Refs) != fmt.Sprint(refs) {
			t.Fatalf("appending to object %d's refs changed object %d's: %v -> %v", i, i+1, refs, b.Refs)
		}
	}
}

// TestCreateObjectsAllocsConstant guards the arenas: a call allocates a
// fixed handful of buffers however many objects it builds.
func TestCreateObjectsAllocsConstant(t *testing.T) {
	k := NewKernel(newEnv(), 9, 10)
	allocs := testing.AllocsPerRun(20, func() {
		k.objects = k.objects[:0:0]
		k.CreateObjects(KindMisc, 1000)
	})
	if allocs > 4 {
		t.Fatalf("CreateObjects(_, 1000) made %.0f allocations, want at most 4", allocs)
	}
}

func BenchmarkCreateObjects(b *testing.B) {
	k := NewKernel(newEnv(), 9, 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.objects = k.objects[:0:0]
		k.CreateObjects(KindMisc, 1000)
	}
}

// kernelView is what a reader can observe of a kernel's object graph.
// A graph with untyped critical objects has no task table, only the
// error TaskTable reports for it.
type kernelView struct {
	sig      uint64
	tasks    *TaskTable
	tasksErr string
	count    int
	kinds    [KindMisc + 1]int
	objs     []serial.Object
}

func viewOf(k *Kernel) kernelView {
	v := kernelView{sig: k.Signature(), count: k.ObjectCount(), objs: k.Objects()}
	tasks, err := k.TaskTable()
	if err != nil {
		v.tasksErr = err.Error()
	} else {
		v.tasks = tasks
	}
	for kind := range v.kinds {
		v.kinds[kind] = k.KindCount(uint8(kind))
	}
	return v
}

func (v kernelView) equal(o kernelView) bool {
	tasksEqual := v.tasksErr == o.tasksErr && (v.tasks == nil) == (o.tasks == nil) &&
		(v.tasks == nil || v.tasks.Equal(o.tasks))
	return tasksEqual && v.sig == o.sig && v.count == o.count &&
		v.kinds == o.kinds && serial.Equal(v.objs, o.objs)
}

// Sealing a kernel keeps every view of its graph and its checkpoint, and
// leaves one region with references in place and no object slice.
func TestSealKeepsGraph(t *testing.T) {
	for name, k := range map[string]*Kernel{"typed": typedKernel(t), "bulk": buildKernel(newEnv(), 5000)} {
		before := viewOf(k)
		cpBefore, err := k.Capture()
		if err != nil {
			t.Fatal(err)
		}
		if err := k.Seal(); err != nil {
			t.Fatal(err)
		}
		if k.objects != nil || k.rec == nil || k.rec.Relations != nil {
			t.Fatalf("%s: sealed kernel holds objects %d, rec %v", name, len(k.objects), k.rec != nil)
		}
		rec := k.rec
		if err := k.Seal(); err != nil || k.rec != rec {
			t.Fatalf("%s: sealing a sealed kernel re-encoded it (%v)", name, err)
		}
		if !viewOf(k).equal(before) {
			t.Fatalf("%s: Seal changed the kernel's graph", name)
		}
		cpAfter, err := k.Capture()
		if err != nil {
			t.Fatal(err)
		}
		if string(cpAfter.Baseline) != string(cpBefore.Baseline) ||
			string(cpAfter.Records.Region) != string(cpBefore.Records.Region) ||
			cpAfter.CriticalCount != cpBefore.CriticalCount || cpAfter.Seed != cpBefore.Seed {
			t.Fatalf("%s: a sealed kernel captures a different checkpoint", name)
		}
	}
}

// A child of a sealed kernel shares its region, and cloning costs the
// same allocations whatever the object count.
func TestSealedCloneSharesRegion(t *testing.T) {
	allocs := map[int]float64{}
	for _, n := range []int{200, 40000} {
		k := NewKernel(newEnv(), 3, n)
		if err := k.Seal(); err != nil {
			t.Fatal(err)
		}
		if child := k.CloneShared(); child.rec != k.rec || child.objects != nil {
			t.Fatalf("%d objects: the child does not share the template's region", n)
		}
		allocs[n] = testing.AllocsPerRun(20, func() { k.CloneShared() })
	}
	if allocs[200] != allocs[40000] {
		t.Fatalf("CloneShared allocs %v at 200 objects, %v at 40000: want equal", allocs[200], allocs[40000])
	}
}

// A child that mutates after Seal gets its own graph; the template, a
// sibling and the shared region stay as they were.
func TestSealedChildMutationIsolated(t *testing.T) {
	k := typedKernel(t)
	if err := k.Seal(); err != nil {
		t.Fatal(err)
	}
	shared := k.rec
	region := append([]byte(nil), shared.Region...)
	want := viewOf(k)
	a, b := k.CloneShared(), k.CloneShared()
	if _, err := a.NewTask(0); err != nil {
		t.Fatal(err)
	}
	a.CreateObjects(KindFD, 50)
	if a.rec != nil || a.ObjectCount() != want.count+51 || a.Signature() == want.sig {
		t.Fatal("mutation did not give the child its own graph")
	}
	if k.rec != shared || !viewOf(k).equal(want) {
		t.Fatal("mutating a child changed the template")
	}
	if b.rec != shared || !viewOf(b).equal(want) {
		t.Fatal("mutating a child changed its sibling")
	}
	if string(region) != string(shared.Region) {
		t.Fatal("mutating a child wrote into the shared region")
	}
}
