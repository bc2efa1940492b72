package sandbox

import (
	"errors"
	"reflect"
	"testing"

	"catalyzer/internal/costmodel"
	"catalyzer/internal/simtime"
	"catalyzer/internal/vfs"
	"catalyzer/internal/workload"
)

func newRootFS() *vfs.FSServer {
	root := vfs.NewTree()
	root.Add("/app/wrapper", vfs.File{Size: 1 << 20})
	root.Add("/var/log/fn.log", vfs.File{LogFile: true})
	return vfs.NewFSServer(root)
}

func bootGVisor(t testing.TB, name string) (*Machine, *Sandbox, *simtime.Timeline) {
	t.Helper()
	m := NewMachine(costmodel.Default())
	s, tl, err := BootCold(m, workload.MustGet(name), newRootFS(), GVisorOptions(m))
	if err != nil {
		t.Fatal(err)
	}
	return m, s, tl
}

func TestGVisorColdBootCHello(t *testing.T) {
	_, s, tl := bootGVisor(t, "c-hello")
	total := tl.Total()
	// §2.2: "142ms startup latency in gVisor" for C.
	if total < 130*simtime.Millisecond || total > 170*simtime.Millisecond {
		t.Fatalf("gVisor c-hello boot = %v, want ~142ms", total)
	}
	if !s.AtEntry {
		t.Fatal("sandbox not at func-entry after boot")
	}
	if s.Kernel.ObjectCount() != s.Spec.KernelObjects {
		t.Fatalf("kernel objects = %d, want %d", s.Kernel.ObjectCount(), s.Spec.KernelObjects)
	}
	if s.Kernel.Conns.Len() != len(s.Spec.Conns) {
		t.Fatalf("conns = %d, want %d", s.Kernel.Conns.Len(), len(s.Spec.Conns))
	}
}

func TestGVisorColdBootSPECjbb(t *testing.T) {
	_, s, tl := bootGVisor(t, "java-specjbb")
	total := tl.Total()
	// gVisor SPECjbb ≈ 1.9-2s (Figure 6); app init ≈ 1850ms (Figure 2).
	if total < 1700*simtime.Millisecond || total > 2300*simtime.Millisecond {
		t.Fatalf("gVisor SPECjbb boot = %v, want ~2s", total)
	}
	appInit, ok := tl.PhaseDuration(PhaseAppInit)
	if !ok || appInit < 1600*simtime.Millisecond || appInit > 2100*simtime.Millisecond {
		t.Fatalf("app init = %v, want ~1850ms (Figure 2)", appInit)
	}
	taskLoad, _ := tl.PhaseDuration(PhaseLoadTaskImage)
	if taskLoad < 15*simtime.Millisecond || taskLoad > 25*simtime.Millisecond {
		t.Fatalf("task image load = %v, want ~19.9ms (Figure 2)", taskLoad)
	}
	if s.Kernel.ObjectCount() != 37838 {
		t.Fatalf("kernel objects = %d, want 37838", s.Kernel.ObjectCount())
	}
	// 200MB of heap resident.
	if rss := s.AS.RSS(); rss < 200<<20 {
		t.Fatalf("RSS = %d, want >= 200MB", rss)
	}
}

func TestBootPhasesOrdered(t *testing.T) {
	_, _, tl := bootGVisor(t, "java-hello")
	var names []string
	for _, p := range tl.Phases() {
		names = append(names, p.Name)
	}
	want := []string{PhaseManagement, PhaseParseConfig, PhaseBootProcess, PhaseSentryBoot,
		PhaseCreateKernel, PhaseMountRootFS, PhaseLoadTaskImage, PhaseAppInit, PhaseSendRPC}
	if len(names) != len(want) {
		t.Fatalf("phases = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("phase %d = %s, want %s", i, names[i], want[i])
		}
	}
}

func TestExecuteColdHasNoFaultPenalty(t *testing.T) {
	_, s, _ := bootGVisor(t, "deathstar-text")
	d, err := s.Execute()
	if err != nil {
		t.Fatal(err)
	}
	// Cold-booted instance: pages hot, conns open → execution ≈ ExecCost.
	base := s.Spec.ExecCost(s.Opts.Profile)
	if d < base || d > base+base/2 {
		t.Fatalf("exec = %v, want ≈ %v", d, base)
	}
	if s.AS.Stats().CoWFaults != 0 {
		t.Fatalf("cold exec caused %d CoW faults", s.AS.Stats().CoWFaults)
	}
	// DeathStar execution stays under 2.5ms (Figure 13a).
	if d > 2500*simtime.Microsecond {
		t.Fatalf("DeathStar exec = %v, want < 2.5ms", d)
	}
}

func TestExecutePopulatesIOCache(t *testing.T) {
	_, s, _ := bootGVisor(t, "java-specjbb")
	if _, err := s.Execute(); err != nil {
		t.Fatal(err)
	}
	if got := s.Cache.Len(); got != s.Spec.HotConns() {
		t.Fatalf("I/O cache entries = %d, want %d hot conns", got, s.Spec.HotConns())
	}
	// Table 3: SPECjbb I/O cache ≈ 2.4 KB.
	if b := s.Cache.Bytes(); b < 2200 || b > 2700 {
		t.Fatalf("I/O cache bytes = %d, want ~2400 (Table 3)", b)
	}
}

// Only a cold boot's I/O cache becomes an image's, so a restored
// instance's executions record nothing.
func TestExecuteOnRestoredRecordsNoIOCache(t *testing.T) {
	_, s1, _ := bootGVisor(t, "java-specjbb")
	img, err := s1.BuildImage()
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(costmodel.Default())
	s, _, err := BootGVisorRestore(m, img, newRootFS(), GVisorOptions(m))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Execute(); err != nil {
		t.Fatal(err)
	}
	if s.Spec.HotConns() == 0 || s.Cache.Len() != 0 {
		t.Fatalf("restored instance with %d hot conns recorded %d I/O cache entries, want none", s.Spec.HotConns(), s.Cache.Len())
	}
}

func TestBuildImageRequiresEntry(t *testing.T) {
	_, s, _ := bootGVisor(t, "c-hello")
	if _, err := s.Execute(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.BuildImage(); err == nil {
		t.Fatal("BuildImage succeeded after execution")
	}
}

func TestBuildImageCapturesState(t *testing.T) {
	_, s, _ := bootGVisor(t, "c-nginx")
	img, err := s.BuildImage()
	if err != nil {
		t.Fatal(err)
	}
	if img.Name != "c-nginx" || img.Mem.Pages != uint64(s.Spec.InitHeapPages) {
		t.Fatalf("image identity: %+v", img)
	}
	if len(img.Kernel.ConnRecords) != len(s.Spec.Conns) {
		t.Fatalf("image conns = %d", len(img.Kernel.ConnRecords))
	}
	// Metadata region sized per Table 3 (~165.5KB for Nginx's 9200 objects).
	kb := float64(img.MetadataBytes()) / 1024
	if kb < 120 || kb > 220 {
		t.Fatalf("nginx metadata = %.1fKB, want ~165KB", kb)
	}
}

func TestGVisorRestoreBoot(t *testing.T) {
	// Build the image on one machine (offline)...
	m1, s1, _ := bootGVisor(t, "java-specjbb")
	if _, err := s1.Execute(); err != nil {
		t.Fatal(err)
	}
	s1.AtEntry = true // rewind for capture; capture requires entry state
	img, err := s1.BuildImage()
	if err != nil {
		t.Fatal(err)
	}
	_ = m1

	// ...restore on a fresh machine.
	m2 := NewMachine(costmodel.Default())
	s2, tl, err := BootGVisorRestore(m2, img, newRootFS(), GVisorOptions(m2))
	if err != nil {
		t.Fatal(err)
	}
	total := tl.Total()
	// Figure 6: gVisor-restore SPECjbb ≈ 400ms.
	if total < 330*simtime.Millisecond || total > 500*simtime.Millisecond {
		t.Fatalf("gvisor-restore SPECjbb = %v, want ~400ms", total)
	}
	recover, _ := tl.PhaseDuration(PhaseRecoverKernel)
	if recover < 45*simtime.Millisecond || recover > 80*simtime.Millisecond {
		t.Fatalf("recover kernel = %v, want ~57ms (Figure 2)", recover)
	}
	mem, _ := tl.PhaseDuration(PhaseLoadAppMemory)
	if mem < 110*simtime.Millisecond || mem > 150*simtime.Millisecond {
		t.Fatalf("load app memory = %v, want ~129ms (Figure 2)", mem)
	}
	io, _ := tl.PhaseDuration(PhaseReconnectIO)
	if io < 60*simtime.Millisecond || io > 95*simtime.Millisecond {
		t.Fatalf("reconnect io = %v, want ~79ms (Figure 2)", io)
	}
	// Restored kernel state matches the checkpointed one.
	if s2.Kernel.Signature() != s1.Kernel.Signature() {
		t.Fatal("restored kernel differs from captured kernel")
	}
	// Restored memory contents match.
	v := s2.heapVMA()
	got, err := s2.AS.Read(v.Start + 7)
	if err != nil {
		t.Fatal(err)
	}
	if got != img.Mem.Token(7) {
		t.Fatal("restored page content mismatch")
	}
	// Execution works on the restored instance.
	if _, err := s2.Execute(); err != nil {
		t.Fatal(err)
	}
}

func TestGVisorRestoreFasterThanColdForHeavyApps(t *testing.T) {
	for _, name := range []string{"java-specjbb", "python-django", "java-hello"} {
		mc := NewMachine(costmodel.Default())
		_, tlCold, err := BootCold(mc, workload.MustGet(name), newRootFS(), GVisorOptions(mc))
		if err != nil {
			t.Fatal(err)
		}
		mi := NewMachine(costmodel.Default())
		si, _, err := BootCold(mi, workload.MustGet(name), newRootFS(), GVisorOptions(mi))
		if err != nil {
			t.Fatal(err)
		}
		img, err := si.BuildImage()
		if err != nil {
			t.Fatal(err)
		}
		mr := NewMachine(costmodel.Default())
		_, tlRestore, err := BootGVisorRestore(mr, img, newRootFS(), GVisorOptions(mr))
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(tlCold.Total()) / float64(tlRestore.Total())
		// §2.2: gVisor-restore achieves 2x-5x speedup over gVisor.
		if ratio < 1.8 || ratio > 7 {
			t.Errorf("%s: restore speedup = %.1fx, want 2x-5x", name, ratio)
		}
	}
}

func TestRestoreRejectsMismatchedImage(t *testing.T) {
	m, s, _ := bootGVisor(t, "c-hello")
	img, err := s.BuildImage()
	if err != nil {
		t.Fatal(err)
	}
	img.Name = "no-such-workload"
	if _, _, err := BootGVisorRestore(m, img, newRootFS(), GVisorOptions(m)); err == nil {
		t.Fatal("restore accepted image for unknown workload")
	}
	img.Name = "c-nginx" // exists but wrong memory geometry
	if _, _, err := BootGVisorRestore(m, img, newRootFS(), GVisorOptions(m)); err == nil {
		t.Fatal("restore accepted image with mismatched memory section")
	}
}

func TestReleaseFreesMemory(t *testing.T) {
	m, s, _ := bootGVisor(t, "c-hello")
	if m.Frames.Live() == 0 {
		t.Fatal("no frames live after boot")
	}
	s.Release()
	if m.Frames.Live() != 0 {
		t.Fatalf("%d frames leaked after release", m.Frames.Live())
	}
	if _, err := s.Execute(); err == nil {
		t.Fatal("execute on released sandbox succeeded")
	}
	s.Release() // idempotent
}

func TestDockerLikeBootSkipsGuestKernel(t *testing.T) {
	m := NewMachine(costmodel.Default())
	opts := Options{
		Profile:    ContainerProfile(m.Env.Cost),
		Management: m.Env.Cost.DockerCreate,
	}
	s, tl, err := BootCold(m, workload.MustGet("java-hello"), newRootFS(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if s.VM != nil {
		t.Fatal("container boot created a hardware VM")
	}
	// Docker Java-hello ≈ 105ms create + ~90ms native-ish init.
	total := tl.Total()
	if total < 150*simtime.Millisecond || total > 320*simtime.Millisecond {
		t.Fatalf("docker java-hello = %v, want ~200ms", total)
	}
	// Guest kernel object population is tiny for containers.
	if s.Kernel.ObjectCount() != s.Spec.KernelObjects {
		// Containers still track the spec's objects (host-side state),
		// so restore comparisons stay meaningful.
		t.Fatalf("kernel objects = %d", s.Kernel.ObjectCount())
	}
}

func TestMemSeedStable(t *testing.T) {
	if MemSeed("a") == MemSeed("b") {
		t.Fatal("different names share seeds")
	}
	if MemSeed("x") != MemSeed("x") {
		t.Fatal("seed not deterministic")
	}
	if MemSeed("x")&1 != 1 {
		t.Fatal("seed must be odd")
	}
}

func TestRunStopsAtFirstFailureAndReleases(t *testing.T) {
	m := NewMachine(costmodel.Default())
	s := NewRestoredShell(m, workload.MustGet("c-hello"), GVisorOptions(m), newRootFS())
	boom := errors.New("boom")
	ran := 0
	tl, err := Run(s,
		Step{PhaseParseConfig, func() error { ran++; return nil }},
		Step{PhaseSentryBoot, nil},
		Step{PhaseBootProcess, func() error { ran++; return boom }},
		Step{PhaseCreateKernel, func() error { ran++; return nil }},
	)
	if !errors.Is(err, boom) || tl != nil {
		t.Fatalf("Run = %v, %v; want nil timeline and the step's error", tl, err)
	}
	if ran != 2 {
		t.Fatalf("%d steps ran, want 2 (the rest skipped after the failure)", ran)
	}
	if !s.Released() || m.Live() != 0 || s.AtEntry {
		t.Fatalf("failed boot: released=%v live=%d atEntry=%v; want the shell released", s.Released(), m.Live(), s.AtEntry)
	}

	s = NewRestoredShell(m, workload.MustGet("c-hello"), GVisorOptions(m), newRootFS())
	tl, err = Run(s, Step{PhaseSentryBoot, nil}, Step{PhaseParseConfig, func() error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, ph := range tl.Phases() {
		names = append(names, ph.Name)
	}
	if want := []string{PhaseParseConfig, PhaseSendRPC}; !reflect.DeepEqual(names, want) {
		t.Fatalf("phases = %v, want %v (a nil step records nothing)", names, want)
	}
	if !s.AtEntry {
		t.Fatal("completed boot not at its func-entry point")
	}
}

// Boot steps are closures over the boot's state; neither Run nor
// Construct may move them to the heap. The shell has no VM to create,
// so construction allocates the same on every call.
func TestRunKeepsStepClosuresOnStack(t *testing.T) {
	m := NewMachine(costmodel.Default())
	s := NewRestoredShell(m, workload.MustGet("c-hello"), Options{}, newRootFS())
	n := 0
	static := func() error { return nil }
	runStatic := testing.AllocsPerRun(50, func() {
		_, _ = Run(s, Step{PhaseMapImage, static}, Step{PhaseRecoverKernel, static})
	})
	runCaptured := testing.AllocsPerRun(50, func() {
		_, _ = Run(s, Step{PhaseMapImage, func() error { n++; return nil }}, Step{PhaseRecoverKernel, func() error { n += 2; return nil }})
	})
	constructStatic := testing.AllocsPerRun(50, func() {
		_, _ = Construct(s, Step{PhaseMapImage, static}, Step{PhaseRecoverKernel, static})
	})
	constructCaptured := testing.AllocsPerRun(50, func() {
		_, _ = Construct(s, Step{PhaseMapImage, func() error { n++; return nil }}, Step{PhaseRecoverKernel, func() error { n += 2; return nil }})
	})
	if runCaptured != runStatic {
		t.Errorf("Run: %v allocs with capturing steps, %v with static ones", runCaptured, runStatic)
	}
	// Construction parses the function's config through encoding/json,
	// whose buffer pool makes counts inexact under -race.
	if constructCaptured != constructStatic && !raceEnabled {
		t.Errorf("Construct: %v allocs with capturing steps, %v with static ones", constructCaptured, constructStatic)
	}
}
