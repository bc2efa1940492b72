package core

import (
	"fmt"

	"catalyzer/internal/faults"
	"catalyzer/internal/host"
	"catalyzer/internal/sandbox"
	"catalyzer/internal/simtime"
	"catalyzer/internal/vfs"
	"catalyzer/internal/workload"
)

// Template is a running template sandbox (§4): a fully initialized
// instance, halted at its func-entry point, that has entered the
// transient single-thread state and is ready to sfork children. It never
// serves requests itself and holds no request state.
type Template struct {
	c     *Catalyzer
	s     *sandbox.Sandbox
	fs    *vfs.FSServer
	forks uint64

	// lineage tracks this template's sforked children; correlated child
	// failures raise the poisoning verdict against the template.
	lineage *sandbox.Lineage

	// poisoned marks latently bad template state (SiteTemplatePoison,
	// drawn once at build time): the template sforks fine, but every
	// child inherits the poison and fails at execution.
	poisoned bool
}

// MakeTemplate boots a template sandbox for spec (offline: template
// initialization is not on any request's critical path), merges it to
// the transient single-thread state and seals its guest kernel: nothing
// writes the kernel after the func-entry point, so the template and
// every child it sforks share one record region.
func (c *Catalyzer) MakeTemplate(spec *workload.Spec, fs *vfs.FSServer) (*Template, error) {
	s, _, err := sandbox.BootCold(c.M, spec, fs, catalyzerOptions(c.M))
	if err != nil {
		return nil, fmt.Errorf("core: template boot: %w", err)
	}
	if err := s.Runtime.EnterTransientSingleThread(); err != nil {
		return nil, fmt.Errorf("core: template merge: %w", err)
	}
	if err := s.Kernel.Seal(); err != nil {
		return nil, fmt.Errorf("core: template seal: %w", err)
	}
	t := &Template{c: c, s: s, fs: fs, lineage: sandbox.NewLineage()}
	// Latent-poison injection: the build "succeeds" but the captured
	// state is bad, and only the children's failures reveal it.
	if c.M.Faults.Check(faults.SiteTemplatePoison) != nil {
		t.poisoned = true
	}
	return t, nil
}

// Lineage exposes the template's sfork family bookkeeping. The platform
// compares a failing child's Lineage pointer against the function's
// current template, so verdicts never convict a successor template for
// a predecessor's children.
func (t *Template) Lineage() *sandbox.Lineage { return t.lineage }

// Probe performs one liveness check on the template sandbox (machine
// work). A retired template is unhealthy by definition.
func (t *Template) Probe() bool { return t.s.Probe() }

// Spec returns the template's workload.
func (t *Template) Spec() *workload.Spec { return t.s.Spec }

// Retire tears the template sandbox down. Subsequent Sfork calls fail
// with a released-template error; the platform's quarantine path retires
// a wedged template and rebuilds a fresh one.
func (t *Template) Retire() { t.s.Release() }

// Sandbox exposes the underlying template sandbox (read-only use:
// tests and memory accounting).
func (t *Template) Sandbox() *sandbox.Sandbox { return t.s }

// Sfork creates a new instance by forking the template (fork boot,
// Figure 7): namespaces are prepared so virtual PIDs survive, the
// address space clones copy-on-write, the in-memory overlay rootFS is
// cloned while read-only FS-server descriptors are inherited as-is, the
// guest kernel state is shared through the forked memory, and the Go
// runtime expands from the transient single thread back to
// multi-threaded.
func (t *Template) Sfork() (*sandbox.Sandbox, *simtime.Timeline, error) { return t.sfork(false) }

// sfork is the fork boot behind Sfork and SforkRandomized: one measured
// sfork phase, then send-rpc. With randomize set, the child's VMAs are
// relocated by the fork's ASLR offset inside the sfork phase.
func (t *Template) sfork(randomize bool) (*sandbox.Sandbox, *simtime.Timeline, error) {
	if t.s.Released() {
		return nil, nil, errReleasedTemplate
	}
	if !t.s.Runtime.IsSingleThreaded() {
		return nil, nil, errNotSingleThreaded
	}
	env := t.c.M.Env
	tl := simtime.NewTimeline(env.Clock)
	var child *sandbox.Sandbox
	var err error
	tl.Measure(sandbox.PhaseSfork, func() {
		if child, err = t.forkChild(); err != nil {
			return
		}
		t.forks++
		if randomize {
			env.ChargeN(env.Cost.MmapGVisor, len(child.AS.VMAs()))
			child.Rebase(aslrDelta(t.forks))
		}
	})
	if err != nil {
		return nil, nil, err
	}
	tl.Record(sandbox.PhaseSendRPC, env.Cost.RPCSend)
	child.AtEntry = true
	return child, tl, nil
}

// Shared sfork error values.
var (
	errReleasedTemplate  = fmt.Errorf("core: sfork from released template")
	errNotSingleThreaded = fmt.Errorf("core: sfork requires the template in transient single-thread state")
)

func (t *Template) forkChild() (*sandbox.Sandbox, error) {
	m := t.c.M
	env := m.Env
	parent := t.s

	// A template a probe has found wedged cannot fork; surface the typed
	// wedge so the recovery chain degrades and the supervisor
	// quarantines it.
	if parent.Wedged {
		return nil, fmt.Errorf("%w: sfork from template %s", sandbox.ErrWedged, parent.Spec.Name)
	}

	// Injection site: the fork itself (a wedged template, a clone that
	// dies mid-flight). Checked before any child state exists.
	if err := m.Faults.Check(faults.SiteSfork); err != nil {
		return nil, err
	}

	// Guard: template sandboxes may only have issued allowed/handled
	// syscalls (Table 1); the denied set was filtered at template
	// generation. Verify the representative handled set is permitted.
	for _, sc := range []string{"clone", "mmap", "openat", "getpid"} {
		if err := host.CheckTemplateSyscall(sc); err != nil {
			return nil, err
		}
	}

	// Fork boot shares the template's pages; only the CoW working set
	// becomes private, so admission is a small fraction of the footprint.
	if err := m.AdmitPages(parent.Spec.ExecPages/4 + 16); err != nil {
		return nil, err
	}
	child := sandbox.NewRestoredShell(m, parent.Spec, parent.Opts, t.fs)
	child.FromTemplate = true
	// Lineage adoption: the child joins the template's sfork family, and
	// latently poisoned template state rides along into the child.
	child.Lineage = t.lineage
	child.Poisoned = t.poisoned
	t.lineage.Adopt(child.HostPID)
	// A fork that dies mid-way must release the partial child.
	fail := func(err error) (*sandbox.Sandbox, error) {
		child.Release()
		return nil, err
	}

	// Namespace preparation: the child keeps the template's virtual PIDs
	// bound to its new host process (§4, Challenge-3).
	child.NS = parent.NS.CloneFor(env)
	child.VPID = parent.VPID
	if err := child.NS.PID.Rebind(child.VPID, child.HostPID); err != nil {
		return fail(err)
	}

	// Address space: CoW clone; cost is per-VMA.
	vmas := parent.AS.VMAs()
	env.ChargeN(env.Cost.SforkVMAClone, len(vmas))
	child.ReplaceAddressSpace(parent.AS.CloneCoW())

	// Stateless overlay rootFS: clone the in-memory upper layer;
	// read-only grants stay valid (§4.2).
	env.Charge(env.Cost.SforkOverlayFSClone)
	child.Overlay = parent.Overlay.Clone()

	// File descriptors are inherited.
	child.FDs = parent.FDs.Clone()

	// Guest kernel state rides along in the forked memory.
	child.Kernel = parent.Kernel.CloneShared()

	// Persistent files are the one class not inherited read-only: the
	// child gets its own read-write log grant from the FS server (§4.2).
	if err := child.AcquireLogGrant(); err != nil {
		return fail(err)
	}

	// Go runtime: clone in single-thread state, then expand.
	rt, err := parent.Runtime.CloneForChild()
	if err != nil {
		return fail(err)
	}
	if _, err := rt.Expand(); err != nil {
		return fail(err)
	}
	child.Runtime = rt
	return child, nil
}

// LanguageTemplate is a template sandbox for a whole language runtime
// (§4.3): it captures the initialized JVM/interpreter but no function
// code, so one template serves every function of that language. Booting
// a function from it sforks the runtime and then loads the
// function-specific class files/modules on the critical path.
type LanguageTemplate struct {
	t    *Template
	lang workload.Language
}

// languageBaseSpec synthesizes the runtime-only workload a language
// template initializes: the language runtime with no function code.
func languageBaseSpec(lang workload.Language) (*workload.Spec, error) {
	var base string
	switch lang {
	case workload.C, workload.Cpp:
		base = "c-hello"
	case workload.Java:
		base = "java-hello"
	case workload.Python:
		base = "python-hello"
	case workload.Ruby:
		base = "ruby-hello"
	case workload.Node:
		base = "nodejs-hello"
	default:
		return nil, fmt.Errorf("core: no language template for %q", lang)
	}
	return workload.Registry(base)
}

// MakeLanguageTemplate builds the runtime template for a language
// (offline).
func (c *Catalyzer) MakeLanguageTemplate(lang workload.Language, fs *vfs.FSServer) (*LanguageTemplate, error) {
	spec, err := languageBaseSpec(lang)
	if err != nil {
		return nil, err
	}
	t, err := c.MakeTemplate(spec, fs)
	if err != nil {
		return nil, err
	}
	return &LanguageTemplate{t: t, lang: lang}, nil
}

// BootFunction cold-boots a function of the template's language: sfork
// the runtime template, then load the function-specific portion of its
// initialization (class files, modules) on the critical path. Table 2
// reports this at 29.3 ms for a lightweight Java function — 22x faster
// than gVisor and 3x faster than native.
func (lt *LanguageTemplate) BootFunction(spec *workload.Spec) (*sandbox.Sandbox, *simtime.Timeline, error) {
	if spec.Language != lt.lang {
		return nil, nil, fmt.Errorf("core: language template %s cannot boot %s function %s", lt.lang, spec.Language, spec.Name)
	}
	if spec.ExecPages > lt.t.Spec().InitHeapPages {
		return nil, nil, fmt.Errorf("core: function %s working set exceeds the %s runtime template heap", spec.Name, lt.lang)
	}
	child, tl, err := lt.t.Sfork()
	if err != nil {
		return nil, nil, err
	}
	env := lt.t.c.M.Env
	// Function-specific loading: roughly a fifth of the function's
	// initialization is code the language template cannot capture
	// ("the major overhead ... is caused by loading Java class files of
	// requested functions", §6.2).
	tl.Measure("load-function-code", func() {
		p := child.Opts.Profile
		env.Charge(simtime.Duration(spec.InitComputeMS) * simtime.Millisecond / 5)
		env.ChargeN(p.FileOpen, spec.InitFiles/5)
		env.ChargeN(p.PageRead, spec.InitFilePages/5)
	})
	// The child now represents the requested function.
	child.Spec = spec
	return child, tl, nil
}
