package core

import (
	"sync"
	"testing"

	"catalyzer/internal/costmodel"
	"catalyzer/internal/guest"
	"catalyzer/internal/image"
	"catalyzer/internal/sandbox"
	"catalyzer/internal/serial"
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

// buildImage cold-boots a function offline and captures its func-image,
// including the I/O cache learned from one execution.
func buildImage(t testing.TB, name string) *image.Image {
	t.Helper()
	m := sandbox.NewMachine(costmodel.Default())
	s, _, err := sandbox.BootCold(m, workload.MustGet(name), newRootFS(), sandbox.GVisorOptions(m))
	if err != nil {
		t.Fatal(err)
	}
	img, err := s.BuildImage()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Execute(); err != nil {
		t.Fatal(err)
	}
	if s.Cache.Len() > 0 {
		img.IOCache = s.Cache
	}
	return img
}

func TestColdBootLatency(t *testing.T) {
	img := buildImage(t, "java-specjbb")
	m := sandbox.NewMachine(costmodel.Default())
	c := New(m)
	_, _, tl, err := c.BootRestore(img, newRootFS(), nil, nil, nil, AllFlags())
	if err != nil {
		t.Fatal(err)
	}
	total := tl.Total()
	// Catalyzer-restore ≈ Zygote + ~30ms; SPECjbb ≈ 40-50ms (Figure 11).
	if total < 30*simtime.Millisecond || total > 70*simtime.Millisecond {
		t.Fatalf("Catalyzer cold boot SPECjbb = %v, want ~45ms", total)
	}
}

func TestWarmBootLatency(t *testing.T) {
	img := buildImage(t, "java-specjbb")
	m := sandbox.NewMachine(costmodel.Default())
	c := New(m)
	pool := NewZygotePool(c, 2)
	// Cold boot establishes the base mapping and the I/O cache.
	_, mapping, _, err := c.BootRestore(img, newRootFS(), nil, nil, nil, AllFlags())
	if err != nil {
		t.Fatal(err)
	}

	z := pool.Take()
	if z == nil {
		t.Fatal("pool empty")
	}
	s, _, tl, err := c.BootRestore(img, newRootFS(), z, mapping, img.IOCache, AllFlags())
	if err != nil {
		t.Fatal(err)
	}
	total := tl.Total()
	// Catalyzer-Zygote ≈ 14ms for Java (§6.2).
	if total < 8*simtime.Millisecond || total > 22*simtime.Millisecond {
		t.Fatalf("Catalyzer warm boot SPECjbb = %v, want ~14ms", total)
	}
	// The I/O cache reconnected the hot connections on the critical path.
	if got := s.Kernel.Conns.CachedReconnects; got != img.IOCache.Len() {
		t.Fatalf("cached reconnects = %d, want %d", got, img.IOCache.Len())
	}
	// Pending connections remain for the non-deterministic set.
	if s.Kernel.Conns.PendingCount() == 0 {
		t.Fatal("no pending conns: lazy reconnection inactive")
	}
	// Reusing a Zygote must fail.
	if _, _, _, err := c.BootRestore(img, newRootFS(), z, mapping, img.IOCache, AllFlags()); err == nil {
		t.Fatal("zygote reuse succeeded")
	}
}

func TestWarmFasterThanColdFasterThanBaseline(t *testing.T) {
	img := buildImage(t, "python-django")
	fs := newRootFS()

	mBase := sandbox.NewMachine(costmodel.Default())
	_, tlBase, err := sandbox.BootGVisorRestore(mBase, img, newRootFS(), sandbox.GVisorOptions(mBase))
	if err != nil {
		t.Fatal(err)
	}

	mCold := sandbox.NewMachine(costmodel.Default())
	cCold := New(mCold)
	_, mapping, tlCold, err := cCold.BootRestore(img, fs, nil, nil, nil, AllFlags())
	if err != nil {
		t.Fatal(err)
	}
	z := cCold.NewZygote()
	_, _, tlWarm, err := cCold.BootRestore(img, fs, z, mapping, img.IOCache, AllFlags())
	if err != nil {
		t.Fatal(err)
	}

	if !(tlWarm.Total() < tlCold.Total() && tlCold.Total() < tlBase.Total()) {
		t.Fatalf("ordering violated: warm=%v cold=%v gvisor-restore=%v",
			tlWarm.Total(), tlCold.Total(), tlBase.Total())
	}
	// Cold is roughly warm + 30ms (§6.2).
	gap := tlCold.Total() - tlWarm.Total()
	if gap < 20*simtime.Millisecond || gap > 45*simtime.Millisecond {
		t.Fatalf("cold-warm gap = %v, want ~30ms", gap)
	}
}

func TestRestoredStateMatchesImage(t *testing.T) {
	img := buildImage(t, "c-nginx")
	m := sandbox.NewMachine(costmodel.Default())
	c := New(m)
	s, _, _, err := c.BootRestore(img, newRootFS(), nil, nil, nil, AllFlags())
	if err != nil {
		t.Fatal(err)
	}
	// Kernel graph matches a reference restore.
	m2 := sandbox.NewMachine(costmodel.Default())
	ref, _, err := sandbox.BootCold(m2, workload.MustGet("c-nginx"), newRootFS(), sandbox.GVisorOptions(m2))
	if err != nil {
		t.Fatal(err)
	}
	if s.Kernel.Signature() != ref.Kernel.Signature() {
		t.Fatal("restored kernel differs from cold-booted kernel")
	}
	// Memory reads observe the image contents on demand.
	got, err := s.AS.Read(sandbox.HeapBase + 11)
	if err != nil {
		t.Fatal(err)
	}
	if got != img.Mem.Token(11) {
		t.Fatal("demand-faulted page content mismatch")
	}
	// Execution on the restored instance succeeds and pays lazy work.
	d, err := s.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if d <= s.Spec.ExecCost(s.Opts.Profile) {
		t.Fatal("restored execution did not pay demand faults/lazy reconnects")
	}
}

// Machines restoring one func-image at once share its fixed-up kernel
// records, yet each boot is charged the same virtual time whichever of
// them did the fixup, and each gets the image's kernel (run under -race).
func TestConcurrentBootRestoreSharesImage(t *testing.T) {
	img := buildImage(t, "c-nginx")
	type result struct {
		sig   uint64
		total simtime.Duration
		err   error
	}
	results := make([]result, 4)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(r *result) {
			defer wg.Done()
			c := New(sandbox.NewMachine(costmodel.Default()))
			s, _, tl, err := c.BootRestore(img, newRootFS(), nil, nil, nil, AllFlags())
			if err != nil {
				r.err = err
				return
			}
			r.sig, r.total = s.Kernel.Signature(), tl.Total()
			_, r.err = s.Execute()
		}(&results[i])
	}
	wg.Wait()
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("boot %d: %v", i, r.err)
		}
		if r != results[0] {
			t.Fatalf("boot %d = %+v, boot 0 = %+v; want identical", i, r, results[0])
		}
	}
}

func TestFigure12AblationOrdering(t *testing.T) {
	for _, name := range []string{"python-django", "java-specjbb"} {
		img := buildImage(t, name)
		boot := func(f Flags) simtime.Duration {
			m := sandbox.NewMachine(costmodel.Default())
			c := New(m)
			_, _, tl, err := c.BootRestore(img, newRootFS(), nil, nil, nil, f)
			if err != nil {
				t.Fatal(err)
			}
			return tl.Total()
		}
		baseline := boot(Flags{})
		overlay := boot(Flags{OverlayMemory: true})
		separated := boot(Flags{OverlayMemory: true, SeparatedState: true})
		full := boot(AllFlags())
		if !(full < separated && separated < overlay && overlay < baseline) {
			t.Fatalf("%s ablation not monotone: base=%v over=%v sep=%v full=%v",
				name, baseline, overlay, separated, full)
		}
	}
}

func TestSforkLatency(t *testing.T) {
	m := sandbox.NewMachine(costmodel.Default())
	c := New(m)
	tmpl, err := c.MakeTemplate(workload.MustGet("c-hello"), newRootFS())
	if err != nil {
		t.Fatal(err)
	}
	_, tl, err := tmpl.Sfork()
	if err != nil {
		t.Fatal(err)
	}
	// <1ms for C-hello (§6.2: 0.97ms best case).
	if tl.Total() >= simtime.Millisecond {
		t.Fatalf("sfork c-hello = %v, want <1ms", tl.Total())
	}

	tmplJ, err := c.MakeTemplate(workload.MustGet("java-specjbb"), newRootFS())
	if err != nil {
		t.Fatal(err)
	}
	_, tlJ, err := tmplJ.Sfork()
	if err != nil {
		t.Fatal(err)
	}
	// 1.5–2ms for Java (§7).
	if tlJ.Total() < simtime.Millisecond || tlJ.Total() > 3*simtime.Millisecond {
		t.Fatalf("sfork specjbb = %v, want ~2ms", tlJ.Total())
	}
}

func TestSforkCorrectness(t *testing.T) {
	m := sandbox.NewMachine(costmodel.Default())
	c := New(m)
	tmpl, err := c.MakeTemplate(workload.MustGet("deathstar-composepost"), newRootFS())
	if err != nil {
		t.Fatal(err)
	}
	parent := tmpl.Sandbox()

	a, _, err := tmpl.Sfork()
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := tmpl.Sfork()
	if err != nil {
		t.Fatal(err)
	}

	// Virtual PID stable across sfork, host PIDs differ.
	if a.VPID != parent.VPID || b.VPID != parent.VPID {
		t.Fatalf("vpids: parent=%d a=%d b=%d", parent.VPID, a.VPID, b.VPID)
	}
	if a.HostPID == parent.HostPID || a.HostPID == b.HostPID {
		t.Fatal("host pids not unique")
	}
	hostA, _ := a.NS.PID.HostPID(a.VPID)
	if hostA != a.HostPID {
		t.Fatal("child namespace does not resolve vpid to its own host pid")
	}

	// Kernel state shared and identical.
	if a.Kernel.Signature() != parent.Kernel.Signature() {
		t.Fatal("child kernel differs from template")
	}
	// Connections inherited open: execution pays no reconnects.
	if a.Kernel.Conns.PendingCount() != 0 {
		t.Fatal("sforked child has pending conns")
	}

	// Memory isolation: child writes don't reach template or sibling.
	page := sandbox.HeapBase + 3
	want, err := parent.AS.Read(page)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.AS.Write(page, 0xdead); err != nil {
		t.Fatal(err)
	}
	if got, _ := parent.AS.Read(page); got != want {
		t.Fatal("child write visible in template")
	}
	if got, _ := b.AS.Read(page); got != want {
		t.Fatal("child write visible in sibling")
	}

	// Overlay rootFS isolation.
	a.Overlay.Write("/tmp/a", vfs.File{Token: 1})
	if _, ok := b.Overlay.Lookup("/tmp/a"); ok {
		t.Fatal("overlay write visible in sibling")
	}

	// Both children execute.
	if _, err := a.Execute(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Execute(); err != nil {
		t.Fatal(err)
	}
	// Template remains single-threaded and fork-ready.
	if !parent.Runtime.IsSingleThreaded() {
		t.Fatal("template expanded")
	}
	if _, _, err := tmpl.Sfork(); err != nil {
		t.Fatal(err)
	}
}

func TestSforkedChildEnforcesSyscallPolicy(t *testing.T) {
	m := sandbox.NewMachine(costmodel.Default())
	c := New(m)
	tmpl, err := c.MakeTemplate(workload.MustGet("deathstar-text"), newRootFS())
	if err != nil {
		t.Fatal(err)
	}
	child, _, err := tmpl.Sfork()
	if err != nil {
		t.Fatal(err)
	}
	if !child.FromTemplate {
		t.Fatal("sforked child not marked template-derived")
	}
	if _, err := child.Execute(); err != nil {
		t.Fatalf("exec mix rejected in template-derived sandbox: %v", err)
	}
	d := child.LastSyscalls
	if d == nil || !d.Template {
		t.Fatal("child dispatcher not in template mode")
	}
	// A denied syscall is rejected at runtime (Table 1: removed from
	// template sandboxes).
	if err := d.Invoke("execve"); err == nil {
		t.Fatal("denied syscall accepted in template-derived sandbox")
	}
}

func TestSforkScalesToManyInstances(t *testing.T) {
	m := sandbox.NewMachine(costmodel.Default())
	c := New(m)
	tmpl, err := c.MakeTemplate(workload.MustGet("deathstar-text"), newRootFS())
	if err != nil {
		t.Fatal(err)
	}
	var worst simtime.Duration
	for i := 0; i < 100; i++ {
		_, tl, err := tmpl.Sfork()
		if err != nil {
			t.Fatalf("sfork %d: %v", i, err)
		}
		if tl.Total() > worst {
			worst = tl.Total()
		}
	}
	// Fork boot is "scalable to boot any number of instances from a
	// single template" (§2.3): latency does not grow with the fleet.
	if worst > 2*simtime.Millisecond {
		t.Fatalf("worst sfork after 100 instances = %v", worst)
	}
}

func TestLanguageTemplateTable2(t *testing.T) {
	m := sandbox.NewMachine(costmodel.Default())
	c := New(m)
	lt, err := c.MakeLanguageTemplate(workload.Java, newRootFS())
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.MustGet("java-hello")
	s, tl, err := lt.BootFunction(spec)
	if err != nil {
		t.Fatal(err)
	}
	total := tl.Total()
	// Table 2: 29.3ms cold boot with the Java runtime template.
	if total < 18*simtime.Millisecond || total > 42*simtime.Millisecond {
		t.Fatalf("java template boot = %v, want ~29ms", total)
	}
	if s.Spec.Name != "java-hello" {
		t.Fatalf("booted spec = %s", s.Spec.Name)
	}
	if _, err := s.Execute(); err != nil {
		t.Fatal(err)
	}
	// Wrong language rejected.
	if _, _, err := lt.BootFunction(workload.MustGet("python-hello")); err == nil {
		t.Fatal("language mismatch accepted")
	}
}

func TestZygotePool(t *testing.T) {
	m := sandbox.NewMachine(costmodel.Default())
	c := New(m)
	p := NewZygotePool(c, 3)
	if p.Ready() != 3 {
		t.Fatalf("Ready = %d", p.Ready())
	}
	if p.Take() == nil || p.Take() == nil || p.Take() == nil {
		t.Fatal("Take failed")
	}
	if p.Take() != nil {
		t.Fatal("Take on empty pool returned a zygote")
	}
	p.Fill(2)
	if p.Ready() != 2 {
		t.Fatalf("Ready after Fill = %d", p.Ready())
	}
}

func TestBootRestoreRejectsBadImage(t *testing.T) {
	m := sandbox.NewMachine(costmodel.Default())
	c := New(m)
	img := buildImage(t, "c-hello")
	img.Name = "unknown-fn"
	if _, _, _, err := c.BootRestore(img, newRootFS(), nil, nil, nil, AllFlags()); err == nil {
		t.Fatal("unknown image accepted")
	}
	var empty image.Image
	if _, _, _, err := c.BootRestore(&empty, newRootFS(), nil, nil, nil, AllFlags()); err == nil {
		t.Fatal("invalid image accepted")
	}
}

func TestSharedMappingReducesPSS(t *testing.T) {
	img := buildImage(t, "deathstar-composepost")
	m := sandbox.NewMachine(costmodel.Default())
	c := New(m)
	var boxes []*sandbox.Sandbox
	var mapping *image.Mapping
	for i := 0; i < 4; i++ {
		s, mp, _, err := c.BootRestore(img, newRootFS(), nil, mapping, img.IOCache, AllFlags())
		if err != nil {
			t.Fatal(err)
		}
		mapping = mp
		if _, err := s.Execute(); err != nil {
			t.Fatal(err)
		}
		boxes = append(boxes, s)
	}
	last := boxes[len(boxes)-1]
	rss := float64(last.AS.RSS())
	pss := last.AS.PSS()
	if pss >= rss*0.75 {
		t.Fatalf("PSS %.0f not much below RSS %.0f despite 4-way sharing", pss, rss)
	}
}

// kernelView is what a reader can observe of a guest kernel's graph.
type kernelView struct {
	sig   uint64
	tasks *guest.TaskTable
	count int
	kinds [guest.KindMisc + 1]int
	objs  []serial.Object
}

func viewKernel(t *testing.T, k *guest.Kernel) kernelView {
	t.Helper()
	tasks, err := k.TaskTable()
	if err != nil {
		t.Fatal(err)
	}
	v := kernelView{sig: k.Signature(), tasks: tasks, count: k.ObjectCount(), objs: k.Objects()}
	for kind := range v.kinds {
		v.kinds[kind] = k.KindCount(uint8(kind))
	}
	return v
}

func (v kernelView) equal(o kernelView) bool {
	return v.sig == o.sig && v.tasks.Equal(o.tasks) && v.count == o.count &&
		v.kinds == o.kinds && serial.Equal(v.objs, o.objs)
}

// For every registry spec, sealing the kernel a template boots keeps
// every view of its graph, and MakeTemplate's sealed template and its
// sforked child show the graph the unsealed kernel had.
func TestSealKeepsEveryRegistrySpec(t *testing.T) {
	for _, name := range workload.Names() {
		spec := workload.MustGet(name)
		m := sandbox.NewMachine(costmodel.Default())
		s, _, err := sandbox.BootCold(m, spec, newRootFS(), catalyzerOptions(m))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		before := viewKernel(t, s.Kernel)
		if err := s.Kernel.Seal(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !viewKernel(t, s.Kernel).equal(before) {
			t.Fatalf("%s: Seal changed the kernel's graph", name)
		}
		tmpl, err := New(sandbox.NewMachine(costmodel.Default())).MakeTemplate(spec, newRootFS())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		child, _, err := tmpl.Sfork()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !viewKernel(t, tmpl.Sandbox().Kernel).equal(before) || !viewKernel(t, child.Kernel).equal(before) {
			t.Fatalf("%s: the sealed template or its child shows a different graph", name)
		}
	}
}
