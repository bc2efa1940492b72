package platform

import (
	"fmt"

	"catalyzer/internal/faults"
	"catalyzer/internal/sandbox"
	"catalyzer/internal/simtime"
	"catalyzer/internal/supervise"
)

// This file wires the runtime supervision layer (internal/supervise)
// into the platform: liveness probes over the Zygote pool and template
// sandboxes (the keep-warm cache registers its own probe), the
// hung-invocation watchdog, the sfork lineage poisoning verdict with
// deferred template regeneration, and the per-function crash-loop gate.
//
// Everything runs in virtual time. Probes and queued self-healing tasks
// run from PollSupervise, which the recovered invoke paths call on
// their way out, so their work is charged to the machine clock outside
// any invocation's measured latency — the virtual-time meaning of "off
// the critical path".

// registerProbes installs the platform's built-in probe groups
// (construction time; the keep-warm cache adds its own via
// RegisterProbe).
func (p *Platform) registerProbes() {
	p.sup.Register("zygotes", p.probeZygotes)
	p.sup.Register("templates", p.probeTemplates)
}

// RegisterProbe adds a named probe group to the platform's supervisor
// (the keep-warm cache uses this). fn returns how many targets it
// checked and how many wedged ones it evicted.
func (p *Platform) RegisterProbe(name string, fn func() (checked, evicted int)) {
	p.sup.Register(name, fn)
}

// PollSupervise runs every due probe group, then every queued
// self-healing task (template regens, image rebuilds). The recovered
// invoke paths call it on their way out; tests call it to force a
// supervision pass.
func (p *Platform) PollSupervise() { p.sup.Poll() }

// SuperviseStats returns the supervision accounting (probes run,
// evictions, crash-loop parks and rejects).
func (p *Platform) SuperviseStats() supervise.Stats { return p.sup.Stats() }

// ParkedFunctions lists crash-looping functions currently parked, with
// their remaining virtual park time.
func (p *Platform) ParkedFunctions() map[string]simtime.Duration { return p.sup.Parked() }

// ProbeSandbox runs one liveness probe on s under the machine lock
// (probe work is machine work), returning whether s is healthy.
func (p *Platform) ProbeSandbox(s *sandbox.Sandbox) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return s.Probe()
}

// probeZygotes prunes wedged Zygotes from the pool and tops it back up.
// The refill runs inline: Poll fires after the probing invocation's
// latency has been measured, so the construction cost lands on the
// machine clock off every request's critical path — and staying
// synchronous keeps same-seed runs identical (a backgrounded refill
// would charge the clock at a host-scheduling-dependent point). It only
// runs when the probe actually evicted something, so a platform that
// never warm-boots never grows a pool.
func (p *Platform) probeZygotes() (checked, evicted int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	checked, evicted = p.Zygotes.Prune()
	if evicted > 0 {
		p.Zygotes.Refill()
	}
	return checked, evicted
}

// probeTemplates probes every prepared template sandbox; a wedged
// template is retired immediately (children already forked keep their
// pages through their own references) and its regen is queued, so it
// runs later in the same Poll.
func (p *Platform) probeTemplates() (checked, evicted int) {
	for _, f := range p.registeredFunctions() {
		p.mu.Lock()
		t := f.Tmpl
		if t == nil {
			p.mu.Unlock()
			continue
		}
		checked++
		healthy := t.Probe()
		if !healthy {
			t.Retire()
			f.Tmpl = nil
		}
		p.mu.Unlock()
		if !healthy {
			evicted++
			p.startTemplateRegen(f)
		}
	}
	return checked, evicted
}

// executeWatched serves one request on s under the hung-invocation
// watchdog: if the invoke-hang site fires, the execution never returns
// on its own, the watchdog charges its kill budget (WatchdogMultiple ×
// the handler's expected compute) of virtual time, reaps the instance,
// and surfaces ErrInvocationHung. The caller's admission slot is
// released by the normal error return path.
func (p *Platform) executeWatched(name string, s *sandbox.Sandbox) (simtime.Duration, error) {
	p.mu.Lock()
	if ferr := p.M.Faults.Check(faults.SiteInvokeHang); ferr != nil {
		budget := s.Spec.ExecComputeCost() * simtime.Duration(p.sup.Config().WatchdogMultiple)
		if budget <= 0 {
			budget = simtime.Duration(p.sup.Config().WatchdogMultiple) * simtime.Millisecond
		}
		p.M.Env.Charge(budget)
		s.Release()
		p.mu.Unlock()
		p.rec.addStats(func(st *FailureStats) { st.WatchdogKills++ })
		return 0, fmt.Errorf("%w: %s killed after %v: %w", ErrInvocationHung, name, budget, ferr)
	}
	d, err := s.Execute()
	p.mu.Unlock()
	return d, err
}

// noteExecFailure is the platform's execution-stage failure hook: it
// feeds the function's crash-loop window and, for sfork children, the
// template's lineage bookkeeping. Reaching the poisoning verdict —
// PoisonThreshold *distinct* failed children of one template —
// quarantines the template (only if it still owns that lineage; a
// successor is never convicted for a predecessor's children) and queues
// its rebuild for the next Poll. Fork boots degrade through
// ErrNoTemplate to zygote/restore until the regen lands.
func (p *Platform) noteExecFailure(name string, s *sandbox.Sandbox) {
	p.sup.NoteFailure(name)
	lin := s.Lineage
	if lin == nil {
		return
	}
	if lin.NoteFailure(s.HostPID) < p.sup.Config().PoisonThreshold {
		return
	}
	if !lin.MarkPoisoned() {
		return // verdict already raised by a concurrent failure
	}
	f, err := p.Lookup(name)
	if err != nil {
		return
	}
	quarantined := false
	p.mu.Lock()
	if f.Tmpl != nil && f.Tmpl.Lineage() == lin {
		f.Tmpl.Retire()
		f.Tmpl = nil
		quarantined = true
	}
	p.mu.Unlock()
	if !quarantined {
		return
	}
	p.rec.addStats(func(st *FailureStats) {
		st.TemplatesPoisoned++
		st.TemplatesQuarantined++
	})
	p.startTemplateRegen(f)
}

// startTemplateRegen queues a rebuild of f's template sandbox (after a
// poisoning verdict or a wedged-template eviction) for the supervisor's
// next Poll, at most one per function. Nothing is queued after Close.
func (p *Platform) startTemplateRegen(f *Function) {
	p.sup.Defer("regen-template:"+f.Spec.Name, func() { p.regenTemplate(f) })
}

// regenTemplate rebuilds f's template under the machine lock. If some
// other path (PrepareTemplate, noteSforkFailure's Refresh) already
// installed one, the regen stands down.
func (p *Platform) regenTemplate(f *Function) {
	p.mu.Lock()
	if f.Tmpl != nil {
		p.mu.Unlock()
		return
	}
	tmpl, err := p.Cat.MakeTemplate(f.Spec, f.FS)
	if err == nil {
		f.Tmpl = tmpl
		f.tmplUse = p.M.Now()
		f.tmplBuilt = true
	}
	p.mu.Unlock()
	p.rec.addStats(func(st *FailureStats) {
		if err != nil {
			st.TemplateRegenFailures++
		} else {
			st.TemplateRegens++
		}
	})
}
