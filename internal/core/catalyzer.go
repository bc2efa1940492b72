// Package core implements Catalyzer itself — the paper's contribution.
//
// Three boot paths (Figure 7):
//
//   - Cold boot: restore a new sandbox from a func-image with on-demand
//     restore (§3): overlay memory maps the image directly, separated
//     state recovery replaces one-by-one deserialization, I/O
//     reconnection is deferred to first use.
//   - Warm boot: the same restore, but starting from a cached
//     virtualization sandbox Zygote (§3.4) and sharing the running
//     instances' base memory mapping; the I/O cache re-connects the
//     deterministic connections on the critical path.
//   - Fork boot: sfork a running template sandbox (§4) — transient
//     single-thread fork of the Go runtime, CoW address-space clone,
//     stateless overlay rootFS, namespace-preserved identity.
//
// Each path returns the booted Sandbox plus a phase timeline; latency is
// emergent from the work performed.
package core

import (
	"fmt"

	"catalyzer/internal/faults"
	"catalyzer/internal/guest"
	"catalyzer/internal/image"
	"catalyzer/internal/sandbox"
	"catalyzer/internal/simtime"
	"catalyzer/internal/vfs"
	"catalyzer/internal/workload"
)

// Flags select which of Catalyzer's on-demand restore techniques are
// active. All true is Catalyzer; progressively enabling them reproduces
// the Figure 12 ablation.
type Flags struct {
	// OverlayMemory maps the func-image's memory section directly
	// (Base-EPT + CoW) instead of loading every page (§3.1).
	OverlayMemory bool
	// SeparatedState restores kernel metadata by map+parallel-fixup
	// instead of one-by-one deserialization (§3.2).
	SeparatedState bool
	// LazyIO defers I/O re-do operations to first use, with the I/O
	// cache reconnecting deterministic connections in warm boots (§3.3).
	LazyIO bool
}

// AllFlags is full Catalyzer.
func AllFlags() Flags { return Flags{OverlayMemory: true, SeparatedState: true, LazyIO: true} }

// Catalyzer is the engine bound to one machine. Creating it applies the
// host-side tunings the paper describes (§6.7): the KVM allocation cache
// (PML is already disabled for baselines too).
type Catalyzer struct {
	M *sandbox.Machine
}

// New returns a Catalyzer engine on m.
func New(m *sandbox.Machine) *Catalyzer {
	m.KVM.AllocCache = true
	return &Catalyzer{M: m}
}

// Zygote is a generalized virtualization sandbox prepared offline: base
// configuration parsed, sandbox and I/O processes started, Sentry booted,
// VM and VCPUs created, base rootfs mounted (§3.4). It carries no
// function-specific state and can specialize into any function's sandbox.
type Zygote struct {
	c      *Catalyzer
	used   bool
	wedged bool
}

// Probe performs one liveness check on a pooled Zygote (see
// sandbox.ProbeLiveness). It returns whether the Zygote is still fit to
// specialize.
func (z *Zygote) Probe() bool { return sandbox.ProbeLiveness(z.c.M, &z.wedged) }

// NewZygote builds a Zygote, charging its construction to the current
// (offline) clock.
func (c *Catalyzer) NewZygote() *Zygote {
	env := c.M.Env
	env.ChargeN(env.Cost.ConfigParsePerKB, 2) // base configuration
	env.Charge(env.Cost.HostForkExec)
	env.Charge(env.Cost.HostForkExec)
	env.Charge(env.Cost.SentryBoot)
	vm := c.M.KVM.CreateVM()
	vm.AddVCPU()
	_ = vm.SetMemoryRegion(1 << 16)
	env.Charge(env.Cost.MountFS) // base rootfs
	return &Zygote{c: c}
}

// ZygotePool caches ready Zygotes; the platform refills it off the
// critical path. The pool remembers its target size, so refills after a
// wedged Zygote is discarded top back up to the configured level.
type ZygotePool struct {
	c      *Catalyzer
	target int
	ready  []*Zygote
}

// NewZygotePool builds a pool of n Zygotes (offline) and remembers n as
// the refill target.
func NewZygotePool(c *Catalyzer, n int) *ZygotePool {
	p := &ZygotePool{c: c, target: n}
	p.Refill()
	return p
}

// Target returns the pool's configured size.
func (p *ZygotePool) Target() int { return p.target }

// Fill tops the pool up to n ready Zygotes.
func (p *ZygotePool) Fill(n int) {
	for len(p.ready) < n {
		p.ready = append(p.ready, p.c.NewZygote())
	}
}

// Refill tops the pool back up to its configured target.
func (p *ZygotePool) Refill() { p.Fill(p.target) }

// Prune probes every pooled Zygote and discards the wedged ones,
// returning how many were probed and how many discarded. The caller
// (the platform's supervisor) refills afterwards, off the critical
// path.
func (p *ZygotePool) Prune() (probed, pruned int) {
	keep := p.ready[:0]
	for _, z := range p.ready {
		probed++
		if z.Probe() {
			keep = append(keep, z)
		} else {
			pruned++
		}
	}
	p.ready = keep
	return probed, pruned
}

// Take removes a Zygote, or returns nil if the pool is empty (the caller
// falls back to a cold boot).
func (p *ZygotePool) Take() *Zygote {
	if len(p.ready) == 0 {
		return nil
	}
	z := p.ready[len(p.ready)-1]
	p.ready = p.ready[:len(p.ready)-1]
	return z
}

// Ready returns the number of cached Zygotes.
func (p *ZygotePool) Ready() int { return len(p.ready) }

// BootRestore is Catalyzer's restore-based boot. With zygote == nil it is
// a cold boot (Catalyzer-restore): the sandbox is constructed on the
// critical path. With a Zygote it is a warm boot (Catalyzer-Zygote):
// construction happened offline and only specialization remains. mapping
// is the function's shared base memory mapping; nil makes the boot
// establish it (map-file), non-nil shares it (§3.1). cache is the
// function's I/O cache, used when LazyIO is on.
func (c *Catalyzer) BootRestore(img *image.Image, fs *vfs.FSServer, zygote *Zygote, mapping *image.Mapping, cache *vfs.IOCache, flags Flags) (*sandbox.Sandbox, *image.Mapping, *simtime.Timeline, error) {
	if err := img.Validate(); err != nil {
		return nil, nil, nil, err
	}
	spec, err := workload.Registry(img.Name)
	if err != nil {
		return nil, nil, nil, err
	}
	if zygote != nil && zygote.used {
		return nil, nil, nil, fmt.Errorf("core: zygote already specialized")
	}

	m := c.M
	env := m.Env
	if flags.OverlayMemory {
		// Overlay memory demand-pages against the shared mapping; only
		// the metadata copy and the CoW working set become private.
		if err := m.AdmitPages(spec.ExecPages + 64); err != nil {
			return nil, nil, nil, err
		}
	} else if err := m.AdmitPages(spec.TaskImagePages + spec.InitHeapPages); err != nil {
		return nil, nil, nil, err
	}
	s := sandbox.NewRestoredShell(m, spec, catalyzerOptions(m), fs)
	// Creating the restored task is machine work that no boot phase
	// carries, so it is charged outside the timeline (CALIBRATION.md).
	env.Charge(env.Cost.RestoreTaskCreate)

	// Application memory. The Base-EPT mapping is an injection site: a
	// failed map must not mutate the function's shared mapping state, so
	// the check runs before NewMapping/Share.
	memory := sandbox.Step{Name: sandbox.PhaseMapImage, Run: func() error {
		if err := m.Faults.Check(faults.SiteEPTMap); err != nil {
			return err
		}
		if mapping == nil {
			mapping = image.NewMapping(env, m.Frames, img.Mem)
		} else {
			mapping = mapping.Share(env)
		}
		return s.MapImageHeap(mapping)
	}}
	if !flags.OverlayMemory {
		memory = sandbox.Step{Name: sandbox.PhaseLoadAppMemory, Run: func() error { return s.LoadAllHeap(img) }}
	}
	// Guest-kernel state.
	kernel := sandbox.Step{Name: sandbox.PhaseRecoverKernel, Run: func() error {
		if err := m.Faults.Check(faults.SiteMetaFixup); err != nil {
			return fmt.Errorf("core: restore: %w", err)
		}
		restore := guest.RestoreBaseline
		if flags.SeparatedState {
			restore = guest.RestoreSeparated
		}
		k, err := restore(env, img.Kernel)
		if err != nil {
			return fmt.Errorf("core: restore: %w", err)
		}
		s.Kernel = k
		return nil
	}}
	// I/O connections, plus the persistent log descriptor (the one
	// read-write grant, §4.2).
	io := sandbox.Step{Name: sandbox.PhaseReconnectIO, Run: func() error {
		if err := m.Faults.Check(faults.SiteIOReconnect); err != nil {
			return err
		}
		switch {
		case !flags.LazyIO:
			s.Kernel.Conns = vfs.RestoreEager(env, img.Kernel.ConnRecords)
		case cache != nil:
			s.Kernel.Conns = vfs.RestoreWithCache(env, img.Kernel.ConnRecords, cache)
		default:
			s.Kernel.Conns = vfs.RestoreLazy(env, img.Kernel.ConnRecords)
		}
		return s.AcquireLogGrant()
	}}

	var tl *simtime.Timeline
	if zygote == nil {
		// Cold boot: construct the sandbox now.
		tl, err = sandbox.Construct(s, memory, kernel, io)
	} else {
		// Warm boot: specialize the cached Zygote.
		zygote.used = true
		tl, err = sandbox.Run(s, sandbox.Step{Name: sandbox.PhaseZygoteSpecialize, Run: func() error {
			env.Charge(env.Cost.ZygoteSpecialize)
			env.ChargeN(env.Cost.ZygoteImportBinary, importedBinaries(spec))
			env.Charge(env.Cost.MountFS) // app rootfs mount
			env.ChargeN(env.Cost.InstanceInterferenceLight, m.Live()-1)
			return nil
		}}, memory, kernel, io)
	}
	if err != nil {
		return nil, nil, nil, err
	}
	return s, mapping, tl, nil
}

// importedBinaries estimates the function-specific binaries/libraries a
// Zygote imports during specialization (§3.4): roughly one bundle per 20
// initialization files.
func importedBinaries(spec *workload.Spec) int {
	n := spec.InitFiles / 20
	if n < 1 {
		n = 1
	}
	return n
}

func catalyzerOptions(m *sandbox.Machine) sandbox.Options {
	return sandbox.Options{
		Profile:     sandbox.GVisorProfile(m.Env.Cost),
		SentryBoot:  true,
		HardwareVM:  true,
		GuestKernel: true,
		VCPUs:       1,
	}
}
