package sandbox

import (
	"fmt"

	"catalyzer/internal/faults"
	"catalyzer/internal/gort"
	"catalyzer/internal/guest"
	"catalyzer/internal/host"
	"catalyzer/internal/image"
	"catalyzer/internal/memory"
	"catalyzer/internal/oci"
	"catalyzer/internal/simenv"
	"catalyzer/internal/simtime"
	"catalyzer/internal/vfs"
	"catalyzer/internal/workload"
)

// Address-space layout, in page numbers.
const (
	// TaskBase is where the wrapper/runtime task image is mapped.
	TaskBase uint64 = 0x1000
	// HeapBase is where the application heap begins.
	HeapBase uint64 = 0x100000
)

// Boot phase names, shared with the experiment harness (Figure 2's
// breakdown uses them directly).
const (
	PhaseManagement    = "container-management"
	PhaseParseConfig   = "parse-configuration"
	PhaseBootProcess   = "boot-sandbox-process"
	PhaseSentryBoot    = "sentry-boot"
	PhaseGuestLinux    = "guest-kernel-boot"
	PhaseCreateKernel  = "create-kernel-platform"
	PhaseMountRootFS   = "mount-rootfs"
	PhaseLoadTaskImage = "load-task-image"
	PhaseAppInit       = "application-init"
	PhaseRecoverKernel = "recover-kernel"
	PhaseLoadAppMemory = "load-app-memory"
	PhaseReconnectIO   = "reconnect-io"
	PhaseSendRPC       = "send-rpc"
	// Catalyzer phases (internal/core).
	PhaseZygoteSpecialize = "zygote-specialize"
	PhaseMapImage         = "map-func-image"
	PhaseSfork            = "sfork"
)

// ParseConfig performs the gateway's configuration step: the function's
// OCI-style document (written at deploy time) is parsed and validated,
// and the parse cost is charged per real document kilobyte (Figure 2's
// "Parse Configuration").
func ParseConfig(m *Machine, spec *workload.Spec) error {
	_, data, err := oci.Generate(spec)
	if err != nil {
		return fmt.Errorf("sandbox: config for %s: %w", spec.Name, err)
	}
	if _, err := oci.Parse(data); err != nil {
		return fmt.Errorf("sandbox: config for %s: %w", spec.Name, err)
	}
	m.Env.ChargeN(m.Env.Cost.ConfigParsePerKB, (len(data)+1023)/1024)
	return nil
}

// MemSeed derives the deterministic heap-content seed of a function, so a
// cold-booted instance, its func-image, and every restored instance agree
// on page contents.
func MemSeed(name string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h | 1
}

// KernelSeed derives the guest-kernel object-graph seed.
func KernelSeed(name string) uint64 { return MemSeed(name) ^ 0xabcdef }

// baseKernelObjects is the Sentry's object population before any
// application work (task hierarchy roots, initial sessions, platform
// bookkeeping).
const baseKernelObjects = 1500

// Options selects which pieces of the cold-boot path a sandbox
// technology performs.
type Options struct {
	// Profile is the in-sandbox cost profile for application work.
	Profile workload.Profile
	// Management is the container/VM management overhead charged before
	// anything else (runsc create, dockerd, hyperd).
	Management simtime.Duration
	// SentryBoot pays the user-space guest kernel binary startup.
	SentryBoot bool
	// HardwareVM creates a KVM VM with VCPUs and memory regions.
	HardwareVM bool
	// GuestLinuxBoot is the in-VM Linux kernel boot time (FireCracker's
	// minimized kernel, Hyper's guest).
	GuestLinuxBoot simtime.Duration
	// GuestKernel constructs the user-space guest kernel object graph
	// (gVisor-like designs). OS containers and real-Linux microVMs skip
	// it.
	GuestKernel bool
	// VCPUs to create when HardwareVM is set.
	VCPUs int
}

// GVisorOptions is the baseline gVisor cold-boot configuration.
func GVisorOptions(m *Machine) Options {
	return Options{
		Profile:     GVisorProfile(m.Env.Cost),
		Management:  m.Env.Cost.SandboxManagement,
		SentryBoot:  true,
		HardwareVM:  true,
		GuestKernel: true,
		VCPUs:       1,
	}
}

// Sandbox is one function instance: the composition of a guest kernel,
// an address space, host-side tables, an overlay rootFS and a modelled Go
// runtime, executing one workload.
type Sandbox struct {
	M    *Machine
	Spec *workload.Spec
	Opts Options

	Kernel  *guest.Kernel
	AS      *memory.AddressSpace
	VM      *host.VM
	FDs     *host.FDTable
	NS      *host.Namespaces
	Overlay *vfs.OverlayFS
	Runtime *gort.Runtime

	HostPID, VPID int

	// Cache records post-boot connection uses; after a cold boot it
	// becomes the function's I/O cache (§3.3).
	Cache *vfs.IOCache

	// AtEntry is true once the sandbox reached the func-entry point and
	// has not served a request yet.
	AtEntry bool

	// Restored marks instances booted from a func-image or template (so
	// execution pays demand/CoW faults instead of having hot pages).
	Restored bool

	// LayoutDelta is the ASLR page offset applied to the standard
	// address-space layout (§6.8 re-randomization on sfork).
	LayoutDelta uint64

	// FromTemplate marks sforked instances: their guest kernel enforces
	// the template-sandbox syscall classification (Table 1).
	FromTemplate bool

	// Lineage is the sfork family this sandbox belongs to: the template
	// sandbox and its children share one Lineage, so correlated child
	// failures can convict the template (nil for non-fork boots).
	Lineage *Lineage

	// Wedged marks a post-boot instance that stopped responding; set by
	// liveness probes (Probe) drawing the sandbox-wedge fault site.
	Wedged bool

	// Poisoned marks state inherited from a poisoned template: the
	// instance boots fine and fails at execution (SiteTemplatePoison).
	Poisoned bool

	// logGrant is the read-write descriptor for the function's log file
	// (§4.2: "Catalyzer allows the FS server to grant some file
	// descriptors of the log files ... to sandboxes"). Zero when the
	// rootfs has no log file.
	logGrant int

	// LastSyscalls is the dispatcher of the most recent Execute, for
	// inspection.
	LastSyscalls *guest.Dispatcher

	released bool
}

// newShell constructs the common sandbox scaffolding (no boot costs).
func newShell(m *Machine, spec *workload.Spec, opts Options, fs *vfs.FSServer) *Sandbox {
	s := &Sandbox{
		M:       m,
		Spec:    spec,
		Opts:    opts,
		AS:      memory.NewAddressSpace(m.Env, m.Frames),
		FDs:     host.NewFDTable(m.Env),
		NS:      host.NewNamespaces(),
		Overlay: vfs.NewOverlayFS(fs),
		Cache:   vfs.NewIOCache(),
	}
	s.HostPID = m.SpawnProcess()
	s.VPID = s.NS.PID.Register(s.HostPID)
	m.live++
	return s
}

// heapVMA returns the sandbox's heap VMA at its randomized base.
func (s *Sandbox) heapVMA() memory.VMA {
	return memory.VMA{
		Name:  "heap",
		Start: HeapBase + s.LayoutDelta,
		End:   HeapBase + s.LayoutDelta + uint64(s.Spec.InitHeapPages),
	}
}

func (s *Sandbox) taskVMA() memory.VMA {
	return memory.VMA{
		Name:  "task-image",
		Start: TaskBase + s.LayoutDelta,
		End:   TaskBase + s.LayoutDelta + uint64(s.Spec.TaskImagePages),
	}
}

// HeapStart returns the first heap page number (tests observe layout
// randomization through it).
func (s *Sandbox) HeapStart() uint64 { return HeapBase + s.LayoutDelta }

// Rebase applies an ASLR shift to the whole address space.
func (s *Sandbox) Rebase(delta uint64) {
	s.AS.Rebase(delta)
	s.LayoutDelta += delta
}

// Step is one named phase of a boot. Run does the phase's work; a nil
// Run skips the step without recording a phase, so a boot can list a
// step its options turn off.
type Step struct {
	Name string
	Run  func() error
}

// Run boots s through steps in order, measuring each on a new timeline
// (Figure 2's per-step breakdown). The first failing step ends the boot
// and releases s, so a boot that dies mid-way never leaks its partial
// instance. A boot that completes pays the gateway's send-rpc and leaves
// s at its func-entry point. Run does not retain steps.
func Run(s *Sandbox, steps ...Step) (*simtime.Timeline, error) {
	tl := simtime.NewTimeline(s.M.Env.Clock)
	for _, st := range steps {
		if st.Run == nil {
			continue
		}
		var err error
		tl.Measure(phaseName(st.Name), func() { err = st.Run() })
		if err != nil {
			s.Release()
			return nil, err
		}
	}
	tl.Record(PhaseSendRPC, s.M.Env.Cost.RPCSend)
	s.AtEntry = true
	return tl, nil
}

// phaseNames lists the phases a Run step may record. Run stores the
// table's copy of a step's name, never the caller's string: escape
// analysis does not tell a step's name from its closure, so a caller's
// name reaching the timeline would move every step closure to the heap.
var phaseNames = [...]string{
	PhaseManagement, PhaseParseConfig, PhaseBootProcess, PhaseSentryBoot,
	PhaseGuestLinux, PhaseCreateKernel, PhaseMountRootFS, PhaseLoadTaskImage,
	PhaseAppInit, PhaseRecoverKernel, PhaseLoadAppMemory, PhaseReconnectIO,
	PhaseZygoteSpecialize, PhaseMapImage,
}

// phaseName returns phaseNames' copy of name.
func phaseName(name string) string {
	for _, p := range phaseNames {
		if p == name {
			return p
		}
	}
	panic("sandbox: boot step with an unknown phase name")
}

// maxBootSteps bounds one Construct boot's step list, construction
// included.
const maxBootSteps = 12

// Construct boots s through Run: first the construction of the sandbox
// on the critical path, as s.Opts selects it (Figure 2's management,
// configuration, process boot, Sentry or guest-Linux boot, KVM and kernel
// creation, rootfs mount), then steps.
func Construct(s *Sandbox, steps ...Step) (*simtime.Timeline, error) {
	m, opts := s.M, s.Opts
	env := m.Env
	construction := [...]Step{
		{PhaseManagement, charge(env, opts.Management > 0, opts.Management)},
		{PhaseParseConfig, func() error { return ParseConfig(m, s.Spec) }},
		{PhaseBootProcess, func() error {
			// The sandbox process and the I/O (Gofer) process, slowed by
			// per-running-instance host interference (Figure 15).
			env.Charge(env.Cost.HostForkExec)
			env.Charge(env.Cost.HostForkExec)
			env.ChargeN(env.Cost.InstanceInterference, m.Live()-1)
			return nil
		}},
		{PhaseSentryBoot, charge(env, opts.SentryBoot, env.Cost.SentryBoot)},
		{PhaseGuestLinux, charge(env, opts.GuestLinuxBoot > 0, opts.GuestLinuxBoot)},
		{PhaseCreateKernel, s.createKernel},
		{PhaseMountRootFS, s.mountRootFS},
	}
	// Both lists go into one fixed array element by element: appending,
	// or copy, would move the steps and their closures to the heap.
	var all [maxBootSteps]Step
	n := 0
	for _, st := range construction {
		all[n] = st
		n++
	}
	for _, st := range steps {
		all[n] = st
		n++
	}
	return Run(s, all[:n]...)
}

// charge returns a step body that charges the fixed cost d, or nil (skip
// the step) when on is false.
func charge(env *simenv.Env, on bool, d simtime.Duration) func() error {
	if !on {
		return nil
	}
	return func() error {
		env.Charge(d)
		return nil
	}
}

// BootCold performs the full from-scratch boot of Figure 2's upper path:
// every phase is measured on the returned timeline, and the sandbox ends
// at its func-entry point.
//
//lint:allow ctxflow context-first-entry waived: leaf machine work below the recovery layer's abort points; virtual time cannot block on the host
func BootCold(m *Machine, spec *workload.Spec, fs *vfs.FSServer, opts Options) (*Sandbox, *simtime.Timeline, error) {
	if err := spec.Validate(); err != nil {
		return nil, nil, err
	}
	// Cold boots populate the full task image and heap privately.
	if err := m.AdmitPages(spec.TaskImagePages + spec.InitHeapPages); err != nil {
		return nil, nil, err
	}
	s := newShell(m, spec, opts, fs)
	tl, err := Construct(s,
		Step{PhaseLoadTaskImage, s.loadTaskImage},
		Step{PhaseAppInit, s.runAppInit},
	)
	if err != nil {
		return nil, nil, err
	}
	return s, tl, nil
}

// createKernel creates the sandbox's KVM VM, when its options ask for
// one, and its guest kernel. A restored sandbox's kernel comes from a
// checkpoint in a later step.
func (s *Sandbox) createKernel() error {
	m, opts := s.M, s.Opts
	if opts.HardwareVM {
		s.VM = m.KVM.CreateVM()
		for i := 0; i < opts.VCPUs; i++ {
			s.VM.AddVCPU()
		}
		// One region covering task image + heap.
		_ = s.VM.SetMemoryRegion(uint64(s.Spec.TaskImagePages + s.Spec.InitHeapPages))
	}
	if s.Restored {
		return nil
	}
	baseObjs := 30
	if opts.GuestKernel {
		baseObjs = baseKernelObjects
	}
	s.Kernel = guest.NewKernel(m.Env, KernelSeed(s.Spec.Name), baseObjs)
	return nil
}

// mountRootFS mounts the function's rootfs and bind mounts into the
// guest kernel. A restored kernel brings its own mount objects, so for a
// restored sandbox only the host-side mount work happens.
func (s *Sandbox) mountRootFS() error {
	if s.Restored {
		s.M.Env.ChargeN(s.M.Env.Cost.MountFS, 1+s.Spec.RootMounts)
		return nil
	}
	if err := s.Kernel.Mount(vfs.Mount{Target: "/", FSType: "rootfs", Tree: s.Overlay.Server().Root()}); err != nil {
		return err
	}
	for i := 0; i < s.Spec.RootMounts; i++ {
		tree := vfs.NewTree()
		if err := s.Kernel.Mount(vfs.Mount{Target: fmt.Sprintf("/mnt/%d", i), FSType: "bind", Tree: tree}); err != nil {
			return err
		}
	}
	return nil
}

// loadTaskImage maps and reads the wrapper/runtime binary from the
// rootfs (Figure 2's "Load task image": 19.9 ms for the JVM).
func (s *Sandbox) loadTaskImage() error {
	v := s.taskVMA()
	if err := s.AS.Map(v); err != nil {
		return err
	}
	seed := MemSeed(s.Spec.Name) ^ 0x7a51
	return s.AS.PopulateRange(v.Start, v.End,
		func(page uint64) uint64 { return seed + page },
		func() { s.M.Env.Charge(s.Opts.Profile.PageRead) },
	)
}

// runAppInit executes the wrapped program's initialization up to the
// func-entry point: runtime bootstrap, library/class loading, heap
// dirtying, guest-kernel object creation and I/O connection opening.
func (s *Sandbox) runAppInit() error {
	env := s.M.Env
	spec := s.Spec
	p := s.Opts.Profile

	// CPU + syscalls + mmaps + file loads.
	env.Charge(spec.InitCost(p))

	// Heap pages are dirtied one by one; contents follow the function's
	// deterministic memory seed so func-images capture exactly this
	// state.
	v := s.heapVMA()
	if spec.InitHeapPages > 0 {
		if err := s.AS.Map(v); err != nil {
			return err
		}
		mem := image.Memory{Pages: uint64(spec.InitHeapPages), Seed: MemSeed(spec.Name)}
		if err := s.AS.PopulateRange(v.Start, v.End,
			func(page uint64) uint64 { return mem.Token(page - v.Start) },
			func() { env.Charge(p.HeapDirty) },
		); err != nil {
			return err
		}
	}

	// The Go runtime of the wrapped program: scheduling threads plus one
	// blocking thread per socket connection.
	nsched := spec.KernelThreads / 8
	if nsched < 1 {
		nsched = 1
	}
	s.Runtime = gort.New(env, nsched)

	// Guest-kernel population up to the spec's totals. The wrapped
	// program runs as a child task of the init task; its threads and
	// timers hang off that task so the recovered hierarchy is typed
	// system state, not opaque bytes.
	k := s.Kernel
	appTask, err := k.NewTask(0)
	if err != nil {
		return err
	}
	for k.KindCount(guest.KindThread) < spec.KernelThreads {
		if _, err := k.NewThread(appTask); err != nil {
			return err
		}
	}
	for i := 0; k.KindCount(guest.KindTimer) < spec.KernelTimers; i++ {
		if _, err := k.NewTimer(appTask, uint16(10+(i%50)*10)); err != nil {
			return err
		}
	}
	k.CreateObjects(guest.KindFD, len(spec.Conns))
	if rest := spec.KernelObjects - k.ObjectCount(); rest > 0 {
		k.CreateObjects(guest.KindMisc, rest)
	}

	// Persistent log file: the FS server grants a read-write descriptor
	// (§4.2); most files stay read-only.
	if err := s.acquireLogGrant(); err != nil {
		return err
	}

	// Open the function's I/O connections; socket connections keep a
	// dedicated blocking OS thread (§4.1).
	for _, c := range spec.Conns {
		k.Conns.Open(c.Kind, c.Path)
		if c.Kind == vfs.ConnSocket {
			if _, err := s.Runtime.SpawnBlocking("conn:" + c.Path); err != nil {
				return err
			}
		}
	}
	return nil
}

// logPath returns the function's conventional log file path.
func (s *Sandbox) logPath() string { return "/var/log/" + s.Spec.Name + ".log" }

// acquireLogGrant requests the read-write log descriptor from the FS
// server, if the rootfs carries a log file.
func (s *Sandbox) acquireLogGrant() error {
	srv := s.Overlay.Server()
	if f, ok := srv.Root().Lookup(s.logPath()); !ok || !f.LogFile {
		return nil
	}
	g, err := srv.Open(s.logPath(), vfs.GrantReadWrite)
	if err != nil {
		return err
	}
	s.logGrant = g.ID
	return nil
}

// AcquireLogGrant re-grants the log descriptor for a restored or sforked
// sandbox ("only a small number of persistent files are copied", §4.2).
// It is a no-op when the function has no log file.
func (s *Sandbox) AcquireLogGrant() error {
	s.M.Env.Charge(s.M.Env.Cost.FileOpenGVisor)
	return s.acquireLogGrant()
}

// LogWritten reports the bytes this function's instances have logged.
func (s *Sandbox) LogWritten() int64 {
	return s.Overlay.Server().Written(s.logPath())
}

// Execute serves one request: handler compute and syscalls, touching the
// execution working set (paying demand/CoW faults when restored), and
// using the function's hot connections (paying lazy reconnects when
// pending). It returns the execution latency.
func (s *Sandbox) Execute() (simtime.Duration, error) {
	if s.released {
		return 0, fmt.Errorf("%w: execute on %s", ErrReleased, s.Spec.Name)
	}
	if s.Wedged {
		return 0, fmt.Errorf("%w: execute on %s", ErrWedged, s.Spec.Name)
	}
	if s.Poisoned {
		// Inherited template state is latently bad: the boot succeeded,
		// the handler does not. The platform's lineage bookkeeping turns
		// correlated failures like this one into a template verdict.
		return 0, fmt.Errorf("%w: execute on %s", ErrPoisoned, s.Spec.Name)
	}
	env := s.M.Env
	start := env.Now()

	// Handler compute, then its syscalls one by one through the guest
	// kernel's dispatch layer (which enforces the template-sandbox
	// syscall policy for fork-booted instances).
	env.Charge(s.Spec.ExecComputeCost())
	d := guest.NewDispatcher(env, s.Opts.Profile.Syscall, s.FromTemplate)
	if err := d.DispatchExecMix(s.Spec.ExecSyscalls); err != nil {
		return 0, err
	}
	s.LastSyscalls = d

	// Touch the execution working set: reads then writes on the first
	// ExecPages heap pages.
	v := s.heapVMA()
	for i := 0; i < s.Spec.ExecPages; i++ {
		page := v.Start + uint64(i)
		if _, err := s.AS.Read(page); err != nil {
			return 0, err
		}
		if i%4 == 0 { // a quarter of the working set is written
			if err := s.AS.Write(page, uint64(env.Now())|1); err != nil {
				return 0, err
			}
		}
	}

	// Deterministic startup I/O: the function's hot connections are used
	// right after boot, and those uses populate the I/O cache (§3.3).
	// Pending connections pay their re-do on first use.
	conns := s.Kernel.Conns.Conns()
	hot := 0
	for i, cs := range s.Spec.Conns {
		if !cs.Hot || i >= len(conns) {
			continue
		}
		if _, err := s.Kernel.Conns.Use(conns[i].ID); err != nil {
			return 0, err
		}
		s.Cache.RecordUse(conns[i].Path, hot%3 == 0)
		hot++
	}
	// Plus ExecConns request-dependent (non-deterministic) connections
	// from the non-hot remainder; these never enter the cache.
	extra := 0
	for i, cs := range s.Spec.Conns {
		if cs.Hot || i >= len(conns) || extra >= s.Spec.ExecConns {
			continue
		}
		if _, err := s.Kernel.Conns.Use(conns[i].ID); err != nil {
			return 0, err
		}
		extra++
	}
	// Each request appends an entry to the persistent log through the
	// read-write grant.
	if s.logGrant != 0 {
		if err := s.Overlay.Server().Append(s.logGrant, 128); err != nil {
			return 0, err
		}
	}

	s.AtEntry = false
	return env.Now() - start, nil
}

// BuildImage captures the sandbox at its func-entry point into a
// func-image (offline func-image compilation, §5). The sandbox must not
// have served requests yet.
func (s *Sandbox) BuildImage() (*image.Image, error) {
	if !s.AtEntry {
		return nil, fmt.Errorf("%w: BuildImage on %s", ErrNotAtEntry, s.Spec.Name)
	}
	cp, err := s.Kernel.Capture()
	if err != nil {
		return nil, err
	}
	img := &image.Image{
		Name:     s.Spec.Name,
		Language: string(s.Spec.Language),
		Entry:    s.Spec.Name + "#handler",
		Mem:      image.Memory{Pages: uint64(s.Spec.InitHeapPages), Seed: MemSeed(s.Spec.Name)},
		Kernel:   cp,
	}
	if s.Cache.Len() > 0 {
		img.IOCache = s.Cache
	}
	return img, nil
}

// NewRestoredShell constructs the scaffolding of a restore-based sandbox
// for Catalyzer's boot paths (internal/core); no boot costs are charged.
func NewRestoredShell(m *Machine, spec *workload.Spec, opts Options, fs *vfs.FSServer) *Sandbox {
	s := newShell(m, spec, opts, fs)
	s.Restored = true
	return s
}

// MapImageHeap maps the function's heap VMA over a shared image backing
// (overlay memory, §3.1): no pages are loaded until faulted.
func (s *Sandbox) MapImageHeap(backing memory.Backing) error {
	v := s.heapVMA()
	if v.Pages() == 0 {
		return nil
	}
	v.Backing = backing
	return s.AS.Map(v)
}

// LoadAllHeap loads the image's entire memory section into private
// frames on the critical path, decompressing and copying each page:
// gVisor-restore's path (Figure 2's "Load App memory": 128.8 ms for
// SPECjbb's 200 MB) and the non-overlay ablation.
func (s *Sandbox) LoadAllHeap(img *image.Image) error {
	v := s.heapVMA()
	if v.Pages() == 0 {
		return nil
	}
	if err := s.AS.Map(v); err != nil {
		return err
	}
	return s.AS.PopulateRange(v.Start, v.End,
		func(page uint64) uint64 { return img.Mem.Token(page - v.Start) },
		func() { s.M.Env.Charge(s.M.Env.Cost.PageDecompressCopy) },
	)
}

// ReplaceAddressSpace swaps in a cloned address space (sfork), releasing
// the shell's empty one.
func (s *Sandbox) ReplaceAddressSpace(as *memory.AddressSpace) {
	s.AS.Release()
	s.AS = as
}

// Release frees the sandbox's host resources.
func (s *Sandbox) Release() {
	if s.released {
		return
	}
	s.released = true
	if s.logGrant != 0 {
		_ = s.Overlay.Server().Close(s.logGrant)
		s.logGrant = 0
	}
	if s.Lineage != nil {
		s.Lineage.ReleaseChild(s.HostPID)
	}
	s.AS.Release()
	s.M.live--
}

// Probe performs one liveness check of the sandbox (see ProbeLiveness).
// A released instance is not healthy.
func (s *Sandbox) Probe() bool {
	if s.released {
		return false
	}
	return ProbeLiveness(s.M, &s.Wedged)
}

// ProbeLiveness performs one liveness check of an instance whose wedge
// state is *wedged (machine lock held by the caller — a probe is machine
// work and charges one RPC round-trip). It draws the sandbox-wedge site
// on a healthy instance — firing wedges it from this probe on — and the
// probe-false-negative site on a wedged one, where firing makes the
// probe lie and report healthy. It returns whether the instance should
// be considered healthy.
func ProbeLiveness(m *Machine, wedged *bool) bool {
	m.Env.Charge(m.Env.Cost.RPCSend)
	if !*wedged && m.Faults.Check(faults.SiteSandboxWedge) != nil {
		*wedged = true
	}
	if *wedged {
		// Firing means the probe missed the wedge this round.
		return m.Faults.Check(faults.SiteProbeFalseNegative) != nil
	}
	return true
}

// Released reports whether the sandbox has been torn down.
func (s *Sandbox) Released() bool { return s.released }
