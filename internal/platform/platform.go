// Package platform implements the serverless platform of §2.1: a gateway
// that registers functions (configuration + rootfs + runtime), prepares
// their offline artifacts (func-images, base memory mappings, I/O caches,
// template sandboxes, Zygote pools), and serves "invoke function"
// requests through any of the evaluated boot strategies — the Docker,
// Hyper Container, FireCracker, gVisor and gVisor-restore baselines, and
// Catalyzer's cold (restore), warm (Zygote) and fork (sfork) boots.
//
// Concurrency model: the simulated machine has one virtual clock, so
// machine work (boots, executions, releases — anything that charges
// virtual time or touches frames/KVM state) serializes under the
// platform's machine lock. Everything around it is fine-grained: the
// function registry has its own RWMutex, the failure-recovery accounting
// its own mutex, and virtual-time reads are atomic. Independent
// functions therefore interleave their boots; each invocation's measured
// latency is the virtual time its own work consumed, and overlapping
// requests overlap in virtual time (Invocation.Arrival/Completion in the
// public API).
package platform

import (
	"errors"
	"fmt"
	"io/fs"
	"sort"
	"sync"

	"catalyzer/internal/core"
	"catalyzer/internal/costmodel"
	"catalyzer/internal/faults"
	"catalyzer/internal/image"
	"catalyzer/internal/sandbox"
	"catalyzer/internal/simtime"
	"catalyzer/internal/supervise"
	"catalyzer/internal/vfs"
	"catalyzer/internal/workload"
)

// System names a boot strategy.
type System string

const (
	Native           System = "native"
	Docker           System = "docker"
	HyperContainer   System = "hyper"
	FireCracker      System = "firecracker"
	GVisor           System = "gvisor"
	GVisorRestore    System = "gvisor-restore"
	CatalyzerRestore System = "catalyzer-restore"
	CatalyzerZygote  System = "catalyzer-zygote"
	CatalyzerSfork   System = "catalyzer-sfork"
)

// Systems lists every strategy in presentation order (Figure 11).
func Systems() []System {
	return []System{HyperContainer, FireCracker, GVisor, Docker,
		GVisorRestore, CatalyzerRestore, CatalyzerZygote, CatalyzerSfork}
}

// Function is a registered serverless function and its offline artifacts.
type Function struct {
	Spec    *workload.Spec
	FS      *vfs.FSServer
	Image   *image.Image
	Mapping *image.Mapping
	Cache   *vfs.IOCache
	Tmpl    *core.Template

	// tmplUse is the virtual time of the template's last sfork, for
	// LRU-first retirement under memory pressure.
	tmplUse simtime.Duration
	// tmplBuilt records that a template was ever installed on this
	// machine, so a template the platform later dropped is told apart
	// from one never built here (see NeedsTemplate).
	tmplBuilt bool
}

// Platform is the per-machine gateway daemon.
type Platform struct {
	M       *sandbox.Machine
	Cat     *core.Catalyzer
	Zygotes *core.ZygotePool

	// mu is the machine lock: it serializes all machine work (boots,
	// executions, releases, clock charges, frame-table and KVM
	// mutations, per-function artifact swaps). Never acquire mu while
	// holding recMu.
	mu sync.Mutex

	// fnsMu guards the funcs registry map (not the Function contents —
	// those change only under mu).
	fnsMu sync.RWMutex
	funcs map[string]*Function

	// buildCost is the cost model used for offline image building on a
	// scratch machine, so offline boots never perturb the platform
	// machine's instance count.
	buildCost *costmodel.Model

	// store, when set, persists func-images across platform restarts.
	store *image.Store

	// rec is the failure-recovery state: fallback accounting, circuit
	// breakers, template quarantine counters. Guarded by its own mutex
	// (see recovery.go).
	rec *recovery

	// cfg is the platform's construction-time tuning (zygote pool size,
	// supervision cadence/thresholds). Immutable after New.
	cfg Config

	// sup is the runtime supervision layer: virtual-time liveness probes
	// over keep-warm instances / templates / pooled Zygotes, the
	// crash-loop tracker, and the queue of self-healing work (template
	// regeneration, image rebuilds) that its Poll runs (see
	// supervise.go).
	sup *supervise.Supervisor

	// reclaimers free idle memory (keep-warm instances, ...) under
	// pressure, consulted before failing a boot with ErrOutOfMemory.
	reclaimMu  sync.Mutex
	reclaimers []Reclaimer
}

// DefaultZygotePoolSize is the number of ready Zygotes the platform
// keeps pooled (and refills to) unless configured otherwise.
const DefaultZygotePoolSize = 4

// Config is the platform's construction-time tuning. Start from
// DefaultConfig and override fields; the zero value means "no Zygote
// pool, default supervision".
type Config struct {
	// ZygotePoolSize is the Zygote pool's target size: the pool is built
	// to this size at construction and refilled back to it after takes
	// and after the supervisor prunes wedged Zygotes. Zero disables the
	// pool (warm boots degrade to cold); negative is invalid.
	ZygotePoolSize int
	// Supervise tunes the runtime supervision layer (probe cadence,
	// watchdog multiple, poisoning verdict, crash-loop parking). Zero
	// fields take supervise.DefaultConfig values.
	Supervise supervise.Config
}

// DefaultConfig returns the platform defaults: a Zygote pool of
// DefaultZygotePoolSize and default supervision tuning.
func DefaultConfig() Config {
	return Config{
		ZygotePoolSize: DefaultZygotePoolSize,
		Supervise:      supervise.DefaultConfig(),
	}
}

// Validate rejects nonsensical tunings.
func (c Config) Validate() error {
	if c.ZygotePoolSize < 0 {
		return fmt.Errorf("%w: negative zygote pool size %d", ErrBadConfig, c.ZygotePoolSize)
	}
	if err := c.Supervise.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	return nil
}

// New creates a platform on a fresh machine with default configuration.
func New(cost *costmodel.Model) *Platform {
	p, err := NewWithConfig(cost, DefaultConfig())
	if err != nil {
		// DefaultConfig always validates.
		panic(err)
	}
	return p
}

// NewWithConfig creates a platform on a fresh machine with the given
// tuning.
func NewWithConfig(cost *costmodel.Model, cfg Config) (*Platform, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := sandbox.NewMachine(cost)
	cat := core.New(m)
	p := &Platform{
		M:         m,
		Cat:       cat,
		Zygotes:   core.NewZygotePool(cat, cfg.ZygotePoolSize),
		funcs:     make(map[string]*Function),
		buildCost: cost,
		rec:       newRecovery(),
		cfg:       cfg,
	}
	p.sup = supervise.New(m.Now, cfg.Supervise)
	p.registerProbes()
	return p, nil
}

// Config returns the platform's construction-time tuning.
func (p *Platform) Config() Config { return p.cfg }

// NewWithStore creates a platform whose func-images persist in an on-disk
// store: PrepareImage loads an existing image instead of re-running
// offline initialization, and saves freshly built images.
func NewWithStore(cost *costmodel.Model, store *image.Store) *Platform {
	p := New(cost)
	p.store = store
	return p
}

// NewWithStoreConfig is NewWithStore with explicit platform tuning.
func NewWithStoreConfig(cost *costmodel.Model, store *image.Store, cfg Config) (*Platform, error) {
	p, err := NewWithConfig(cost, cfg)
	if err != nil {
		return nil, err
	}
	p.store = store
	return p, nil
}

// Now returns the machine's virtual time. Clock reads are atomic; no
// lock is needed.
func (p *Platform) Now() simtime.Duration { return p.M.Now() }

// LiveInstances returns the number of live sandboxes on the machine.
func (p *Platform) LiveInstances() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.M.Live()
}

// LivePages returns the machine's resident page count.
func (p *Platform) LivePages() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.M.Frames.Live()
}

// SetMemoryBudget bounds the machine's physical memory in pages (0 =
// unlimited). Boots that would exceed it trigger memory reclaim
// (keep-warm eviction, idle-template retirement) before failing.
func (p *Platform) SetMemoryBudget(pages int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.M.SetMemoryCapacity(pages)
}

// ExecuteSandbox serves one request on s under the machine lock,
// returning the execution's virtual latency.
func (p *Platform) ExecuteSandbox(s *sandbox.Sandbox) (simtime.Duration, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return s.Execute()
}

// ReleaseSandbox tears s down under the machine lock.
func (p *Platform) ReleaseSandbox(s *sandbox.Sandbox) {
	p.mu.Lock()
	defer p.mu.Unlock()
	s.Release()
}

// SandboxMem reports s's RSS (bytes) and PSS (bytes) under the machine
// lock.
func (p *Platform) SandboxMem(s *sandbox.Sandbox) (rss uint64, pss float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return s.AS.RSS(), s.AS.PSS()
}

// InstallFaults installs inj as the fault source for both the machine's
// boot-pipeline sites and the image store's durability crash sites, so
// one seed drives the whole schedule.
func (p *Platform) InstallFaults(inj *faults.Injector) {
	p.mu.Lock()
	p.M.Faults = inj
	p.mu.Unlock()
	if p.store != nil {
		p.store.SetFaults(inj)
	}
}

// ArmFault arms a fault-injection site on the machine and store
// (creating a seed-0 injector if none is installed).
func (p *Platform) ArmFault(site faults.Site, rate float64) {
	p.mu.Lock()
	if p.M.Faults == nil {
		p.M.Faults = faults.New(0)
	}
	inj := p.M.Faults
	p.mu.Unlock()
	if p.store != nil {
		p.store.SetFaults(inj)
	}
	inj.Arm(site, rate)
}

// DisarmFaults disarms every fault site; counts are retained.
func (p *Platform) DisarmFaults() {
	p.mu.Lock()
	inj := p.M.Faults
	p.mu.Unlock()
	inj.DisarmAll()
}

// FaultCounts reports per-site injection totals.
func (p *Platform) FaultCounts() map[faults.Site]faults.SiteCount {
	p.mu.Lock()
	inj := p.M.Faults
	p.mu.Unlock()
	return inj.Counts()
}

// newRootFS builds a function's root filesystem: the wrapper binary, the
// runtime, and a log file eligible for read-write grants.
func newRootFS(spec *workload.Spec) *vfs.FSServer {
	root := vfs.NewTree()
	root.Add("/app/wrapper", vfs.File{Size: int64(spec.TaskImagePages) * 4096})
	root.Add("/app/config.json", vfs.File{Size: int64(spec.ConfigKB) * 1024})
	root.Add("/var/log/"+spec.Name+".log", vfs.File{LogFile: true})
	for _, c := range spec.Conns {
		root.Add(c.Path, vfs.File{Size: 4096})
	}
	return vfs.NewFSServer(root)
}

// Register adds a function by workload name.
func (p *Platform) Register(name string) (*Function, error) {
	p.fnsMu.Lock()
	defer p.fnsMu.Unlock()
	return p.registerLocked(name)
}

// registerLocked is Register with fnsMu already held.
func (p *Platform) registerLocked(name string) (*Function, error) {
	if f, ok := p.funcs[name]; ok {
		return f, nil
	}
	spec, err := workload.Registry(name)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNotRegistered, err)
	}
	f := &Function{Spec: spec, FS: newRootFS(spec)}
	p.funcs[name] = f
	return f, nil
}

// Lookup returns a registered function.
func (p *Platform) Lookup(name string) (*Function, error) {
	p.fnsMu.RLock()
	defer p.fnsMu.RUnlock()
	f, ok := p.funcs[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotRegistered, name)
	}
	return f, nil
}

// registeredFunctions snapshots the current function set, sorted by
// name: callers iterate it to probe/rebuild, and that work must happen
// in the same order every run.
func (p *Platform) registeredFunctions() []*Function {
	p.fnsMu.RLock()
	defer p.fnsMu.RUnlock()
	out := make([]*Function, 0, len(p.funcs))
	for _, f := range p.funcs {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Spec.Name < out[j].Spec.Name })
	return out
}

// PrepareImage builds the function's func-image offline (on a scratch
// machine) including the I/O cache learned from a profiling execution.
func (p *Platform) PrepareImage(name string) (*Function, error) {
	f, err := p.Register(name)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return f, p.prepareImage(f)
}

// prepareImage populates f's image and I/O cache (machine lock held —
// the image swap must not race a concurrent boot of the same function).
//
// Corruption handling: a corrupt active generation is quarantined and
// the store rolls back to the last-known-good generation, which is
// served immediately; the rebuild of a fresh image then proceeds off
// the critical path. Only when no good generation remains does the
// caller pay for a synchronous offline rebuild.
func (p *Platform) prepareImage(f *Function) error {
	name := f.Spec.Name
	if f.Image != nil {
		return nil
	}
	if p.store != nil {
		img, err := p.store.Load(name)
		if err == nil {
			// Injection sites: the fetch itself (bytes never arrive) and
			// decode (the bytes arrived corrupt).
			if ferr := p.M.Faults.Check(faults.SiteImageLoad); ferr != nil {
				err = ferr
			} else if ferr := p.M.Faults.Check(faults.SiteImageDecode); ferr != nil {
				err = fmt.Errorf("%w: %w", image.ErrCorrupt, ferr)
			}
		}
		switch {
		case err == nil:
			f.Image = img
			f.Cache = img.IOCache
			return nil
		case errors.Is(err, image.ErrCorrupt):
			// A corrupt stored image is quarantined (moved aside for
			// inspection), counted, and the store promotes the previous
			// generation — never silently reused, never silently
			// discarded.
			for errors.Is(err, image.ErrCorrupt) {
				if _, qerr := p.store.Quarantine(name); qerr != nil {
					break
				}
				p.rec.addStats(func(s *FailureStats) { s.ImagesQuarantined++ })
				img, err = p.store.Load(name)
			}
			if err == nil {
				// Rollback-to-last-known-good: serve yesterday's image
				// now, rebuild today's off the critical path.
				f.Image = img
				f.Cache = img.IOCache
				p.rec.addStats(func(s *FailureStats) { s.Rollbacks++ })
				p.startRebuild(f)
				return nil
			}
		case errors.Is(err, fs.ErrNotExist):
			// Plain cache miss: build the image for the first time.
		default:
			// Fetch failure without evidence of on-disk corruption:
			// rebuild, counted, but leave the stored file alone.
			p.rec.addStats(func(s *FailureStats) { s.ImageLoadFaults++ })
		}
	}
	img, err := p.buildOffline(f.Spec)
	if err != nil {
		return err
	}
	f.Image = img
	f.Cache = img.IOCache
	p.persistImage(img)
	return nil
}

// buildOffline runs offline initialization on a scratch machine
// (including the profiling execution that learns the I/O cache), so the
// platform machine's clock and instance count are never perturbed.
func (p *Platform) buildOffline(spec *workload.Spec) (*image.Image, error) {
	scratch := sandbox.NewMachine(p.buildCost)
	s, _, err := sandbox.BootCold(scratch, spec, newRootFS(spec), sandbox.GVisorOptions(scratch))
	if err != nil {
		return nil, fmt.Errorf("platform: offline init of %s: %w", spec.Name, err)
	}
	img, err := s.BuildImage()
	if err != nil {
		return nil, err
	}
	// Profile one execution to learn the deterministic I/O set.
	if _, err := s.Execute(); err != nil {
		return nil, err
	}
	if s.Cache.Len() > 0 {
		img.IOCache = s.Cache
	}
	s.Release()
	return img, nil
}

// persistImage saves a freshly built image to the store. A save failure
// is counted, not fatal: the image is fully usable in memory, and
// failing the deploy would turn a durability hiccup into an outage.
func (p *Platform) persistImage(img *image.Image) {
	if p.store == nil {
		return
	}
	if err := p.store.Save(img); err != nil {
		p.rec.addStats(func(s *FailureStats) { s.ImageSaveFailures++ })
	}
}

// startRebuild queues an off-critical-path image rebuild of f for the
// supervisor's next Poll, at most one per function. Nothing is queued
// after Close, and Close runs a rebuild queued before it.
func (p *Platform) startRebuild(f *Function) {
	p.sup.Defer("rebuild-image:"+f.Spec.Name, func() { p.rebuildImage(f) })
}

// rebuildImage rebuilds f's func-image offline and swaps it in under
// the machine lock. The base memory mapping survives the swap when the
// rebuilt image has identical memory geometry (deterministic builds
// do); otherwise it is closed and lazily re-established by the next
// restore boot.
func (p *Platform) rebuildImage(f *Function) {
	img, err := p.buildOffline(f.Spec)
	if err != nil {
		p.rec.addStats(func(s *FailureStats) { s.ImageRebuildFailures++ })
		return
	}
	p.mu.Lock()
	if f.Mapping != nil && (f.Image == nil || f.Image.Mem != img.Mem) {
		f.Mapping.Close()
		f.Mapping = nil
	}
	f.Image = img
	f.Cache = img.IOCache
	p.mu.Unlock()
	p.persistImage(img)
	p.rec.addStats(func(s *FailureStats) { s.ImageRebuilds++ })
}

// StoredFunctions lists the function names with a live image in the
// platform's store (empty without a store) — the set a restarted daemon
// can rehydrate without re-running offline initialization.
func (p *Platform) StoredFunctions() ([]string, error) {
	if p.store == nil {
		return nil, nil
	}
	return p.store.List()
}

// RefreshImage discards a function's in-memory func-image and re-runs
// PrepareImage, re-exercising the store load path and its corruption
// handling (quarantine-and-rebuild). The base memory mapping is closed —
// it derives from the discarded image — while the template sandbox stays
// untouched.
func (p *Platform) RefreshImage(name string) (*Function, error) {
	f, err := p.Lookup(name)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	f.Image = nil
	f.Cache = nil
	if f.Mapping != nil {
		f.Mapping.Close()
		f.Mapping = nil
	}
	return f, p.prepareImage(f)
}

// PrepareTemplate builds the function's template sandbox for fork boot
// (offline).
func (p *Platform) PrepareTemplate(name string) (*Function, error) {
	f, err := p.Register(name)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.prepareImage(f); err != nil {
		return nil, err
	}
	if f.Tmpl != nil {
		return f, nil
	}
	tmpl, err := p.Cat.MakeTemplate(f.Spec, f.FS)
	if err != nil {
		return nil, err
	}
	f.Tmpl = tmpl
	f.tmplUse = p.M.Now()
	f.tmplBuilt = true
	return f, nil
}

// Result reports one boot (and optionally one execution).
type Result struct {
	System      System
	Function    string
	BootLatency simtime.Duration
	ExecLatency simtime.Duration
	Phases      []simtime.Phase
	Sandbox     *sandbox.Sandbox
}

// Total returns end-to-end latency.
func (r *Result) Total() simtime.Duration { return r.BootLatency + r.ExecLatency }

// Boot starts an instance of a registered function under the given
// system and leaves it running (the caller releases it). A boot that
// does not fit the machine's memory budget triggers reclaim (keep-warm
// eviction, idle-template retirement) and retries before failing.
//
//lint:allow ctxflow context-first-entry waived: machine-layer boots are synchronous virtual-time work; deadline aborts happen above, in BootRecover's fallback chain
func (p *Platform) Boot(name string, sys System) (*Result, error) {
	for round := 0; ; round++ {
		p.mu.Lock()
		r, err := p.boot(name, sys)
		p.mu.Unlock()
		if err == nil || round >= maxReclaimRounds || !errors.Is(err, sandbox.ErrOutOfMemory) {
			return r, err
		}
		if p.reclaim(name) == 0 {
			return r, err
		}
	}
}

// boot performs one boot attempt (machine lock held).
func (p *Platform) boot(name string, sys System) (*Result, error) {
	f, err := p.Lookup(name)
	if err != nil {
		return nil, err
	}
	var (
		s   *sandbox.Sandbox
		tl  *simtime.Timeline
		m   = p.M
		env = m.Env
	)
	switch sys {
	case Native:
		s, tl, err = sandbox.BootCold(m, f.Spec, f.FS, sandbox.Options{
			Profile: sandbox.NativeProfile(env.Cost),
		})
	case Docker:
		s, tl, err = sandbox.BootCold(m, f.Spec, f.FS, sandbox.Options{
			Profile:    sandbox.ContainerProfile(env.Cost),
			Management: env.Cost.DockerCreate,
		})
	case HyperContainer:
		s, tl, err = sandbox.BootCold(m, f.Spec, f.FS, sandbox.Options{
			Profile:        sandbox.MicroVMProfile(env.Cost),
			Management:     env.Cost.HyperCreate,
			HardwareVM:     true,
			GuestLinuxBoot: 150 * simtime.Millisecond,
			VCPUs:          1,
		})
	case FireCracker:
		s, tl, err = sandbox.BootCold(m, f.Spec, f.FS, sandbox.Options{
			Profile:        sandbox.MicroVMProfile(env.Cost),
			Management:     env.Cost.FirecrackerCreate,
			HardwareVM:     true,
			GuestLinuxBoot: env.Cost.FirecrackerKernelBoot,
			VCPUs:          1,
		})
	case GVisor:
		s, tl, err = sandbox.BootCold(m, f.Spec, f.FS, sandbox.GVisorOptions(m))
	case GVisorRestore:
		if f.Image == nil {
			return nil, fmt.Errorf("%w: %s", ErrNoImage, name)
		}
		s, tl, err = sandbox.BootGVisorRestore(m, f.Image, f.FS, sandbox.GVisorOptions(m))
	case CatalyzerRestore:
		if f.Image == nil {
			return nil, fmt.Errorf("%w: %s", ErrNoImage, name)
		}
		var mp *image.Mapping
		s, mp, tl, err = p.Cat.BootRestore(f.Image, f.FS, nil, f.Mapping, f.Cache, core.AllFlags())
		if err == nil {
			f.Mapping = mp
		}
	case CatalyzerZygote:
		if f.Image == nil {
			return nil, fmt.Errorf("%w: %s", ErrNoImage, name)
		}
		z := p.Zygotes.Take()
		if z == nil {
			// Cache miss: fall back to cold boot.
			return p.boot(name, CatalyzerRestore)
		}
		// Injection site: the cached Zygote is wedged. The wedged Zygote
		// is discarded and the pool replenished off the critical path so
		// the warm path can recover.
		if ferr := p.M.Faults.Check(faults.SiteZygoteTake); ferr != nil {
			p.Zygotes.Refill()
			return nil, ferr
		}
		var mp *image.Mapping
		s, mp, tl, err = p.Cat.BootRestore(f.Image, f.FS, z, f.Mapping, f.Cache, core.AllFlags())
		if err == nil {
			f.Mapping = mp
			p.Zygotes.Refill() // refill off the critical path
		}
	case CatalyzerSfork:
		if f.Tmpl == nil {
			return nil, fmt.Errorf("%w: %s", ErrNoTemplate, name)
		}
		s, tl, err = f.Tmpl.Sfork()
		if err == nil {
			f.tmplUse = m.Now()
		}
	case Replayable:
		s, tl, err = p.bootReplayable(f)
	default:
		return nil, fmt.Errorf("%w: %q", ErrUnknownSystem, sys)
	}
	if err != nil {
		return nil, err
	}
	return &Result{
		System:      sys,
		Function:    name,
		BootLatency: tl.Total(),
		Phases:      tl.Phases(),
		Sandbox:     s,
	}, nil
}

// Invoke boots, executes one request, and releases the instance.
//
//lint:allow ctxflow context-first-entry waived: machine-layer invoke is synchronous virtual-time work; deadline aborts happen above, in InvokeRecover
func (p *Platform) Invoke(name string, sys System) (*Result, error) {
	r, err := p.Boot(name, sys)
	if err != nil {
		return nil, err
	}
	defer p.ReleaseSandbox(r.Sandbox)
	d, err := p.ExecuteSandbox(r.Sandbox)
	if err != nil {
		return nil, err
	}
	r.ExecLatency = d
	return r, nil
}

// InvokeKeep boots and executes but keeps the instance running,
// returning it in the result (concurrency and memory experiments).
//
//lint:allow ctxflow context-first-entry waived: machine-layer invoke is synchronous virtual-time work; deadline aborts happen above, in InvokeKeepRecover
func (p *Platform) InvokeKeep(name string, sys System) (*Result, error) {
	r, err := p.Boot(name, sys)
	if err != nil {
		return nil, err
	}
	d, err := p.ExecuteSandbox(r.Sandbox)
	if err != nil {
		p.ReleaseSandbox(r.Sandbox)
		return nil, err
	}
	r.ExecLatency = d
	return r, nil
}

// MemoryStats reports the RSS and PSS (bytes) of a set of running
// instances, averaged per instance (Figure 14's methodology).
func MemoryStats(instances []*sandbox.Sandbox) (avgRSS, avgPSS float64) {
	if len(instances) == 0 {
		return 0, 0
	}
	for _, s := range instances {
		avgRSS += float64(s.AS.RSS())
		avgPSS += s.AS.PSS()
	}
	n := float64(len(instances))
	return avgRSS / n, avgPSS / n
}
