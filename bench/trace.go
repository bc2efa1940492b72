package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"catalyzer"
	"catalyzer/internal/core"
	"catalyzer/internal/costmodel"
	"catalyzer/internal/faults"
	"catalyzer/internal/fleet"
	"catalyzer/internal/image"
	"catalyzer/internal/memory"
	"catalyzer/internal/platform"
	"catalyzer/internal/sandbox"
	"catalyzer/internal/serial"
	"catalyzer/internal/simtime"
	specs "catalyzer/internal/workload"
)

// A span is one call into a layer's public entry point, timed from the
// benchmark's side of the call. Spans of one request share req, the
// request's invocation ordinal in the trace (-1 outside the replay).
type span struct {
	Workload string `json:"workload"`
	Layer    string `json:"layer"`
	Op       string `json:"op"`
	Req      int    `json:"req"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	// Allocs counts the call's heap allocations, or is -1 where they were
	// not counted (inner spans, so that counting never inflates an
	// enclosing span's time).
	Allocs int64 `json:"allocs"`
}

func (s span) us() float64 { return float64(s.EndNS-s.StartNS) / 1e3 }

// A tracer keeps spans in memory until the run writes them out.
type tracer struct {
	workload string
	epoch    time.Time

	// paused calls run without being recorded (warm-ups).
	paused atomic.Bool

	mu    sync.Mutex
	spans []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: now()}
}

// call runs fn as one span. With allocs it also counts fn's heap
// allocations, reading the allocator's counters outside the timed
// interval.
func (t *tracer) call(layer, op string, req int, allocs bool, fn func() error) error {
	if t.paused.Load() {
		return fn()
	}
	var m0, m1 runtime.MemStats
	if allocs {
		runtime.ReadMemStats(&m0)
	}
	start := now()
	err := fn()
	end := now()
	n := int64(-1)
	if allocs {
		runtime.ReadMemStats(&m1)
		n = int64(m1.Mallocs - m0.Mallocs)
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Workload: t.workload, Layer: layer, Op: op, Req: req,
		StartNS: start.Sub(t.epoch).Nanoseconds(), EndNS: end.Sub(t.epoch).Nanoseconds(), Allocs: n})
	t.mu.Unlock()
	return err
}

func (t *tracer) find(layer, op string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Layer == layer && s.Op == op {
			out = append(out, s)
		}
	}
	return out
}

func spanUS(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = s.us()
	}
	return out
}

func meanAllocs(spans []span) float64 {
	var v []float64
	for _, s := range spans {
		if s.Allocs >= 0 {
			v = append(v, float64(s.Allocs))
		}
	}
	return mean(v)
}

// inclusiveByReq sums each request's span durations in µs.
func inclusiveByReq(spans []span) map[int]float64 {
	out := map[int]float64{}
	for _, s := range spans {
		out[s.Req] += s.us()
	}
	return out
}

// selfTimes is, for every request the outer layer served, its inclusive
// time minus the next-inner layer's inclusive time for the same request;
// requests the inner layer did not see are skipped.
func selfTimes(outer, inner map[int]float64) []float64 {
	var out []float64
	for req, o := range outer {
		if in, ok := inner[req]; ok {
			out = append(out, o-in)
		}
	}
	return out
}

// tracedNode is a fleet machine whose invocations are recorded as
// platform spans of the request the fleet is serving.
type tracedNode struct {
	*platform.Platform
	tr  *tracer
	req *int
}

func (n *tracedNode) InvokeRecover(ctx context.Context, name string, sys platform.System) (*platform.Result, error) {
	var res *platform.Result
	err := n.tr.call("platform", "invoke_recover", *n.req, false, func() error {
		var err error
		res, err = n.Platform.InvokeRecover(ctx, name, sys)
		return err
	})
	return res, err
}

var systemOf = map[catalyzer.BootKind]platform.System{
	catalyzer.ForkBoot: platform.CatalyzerSfork,
	catalyzer.WarmBoot: platform.CatalyzerZygote,
	catalyzer.ColdBoot: platform.CatalyzerRestore,
}

// kindOf names the boot kind a platform system serves; the baselines'
// kinds share their systems' names.
func kindOf(sys platform.System) catalyzer.BootKind {
	for k, s := range systemOf {
		if s == sys {
			return k
		}
	}
	return catalyzer.BootKind(sys)
}

// tracedKinds are the boot kinds every platform-layer request is
// replayed with, so each workload reports all three.
var tracedKinds = []catalyzer.BootKind{catalyzer.ForkBoot, catalyzer.WarmBoot, catalyzer.ColdBoot}

// httpScrapeEvery is how often the traced replay scrapes the daemon's
// /metrics.
const httpScrapeEvery = 10

// imageInvokes caps the image pass, whose saves fsync.
const imageInvokes = 30

// traceRun holds one traced run's state while its passes execute.
type traceRun struct {
	e     *env
	w     *workload
	seed  uint64
	limit time.Duration // per pass
	tr    *tracer
	r     *report

	ops, failed int
	firstErr    error
	passes      []string // one line per pass: requests replayed and time taken
}

// covered records how many requests a pass replayed, and in what time.
func (t *traceRun) covered(pass string, n int, start time.Time) {
	t.passes = append(t.passes, fmt.Sprintf("%s %d in %.2fs", pass, n, since(start).Seconds()))
}

func (t *traceRun) fail(err error) {
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

// overdue reports whether a pass begun at start has outlasted the
// per-pass cap, and fails the run if so: the pass would otherwise report
// on a shorter prefix than every other run.
func (t *traceRun) overdue(pass string, start time.Time, n int) bool {
	if since(start) <= t.limit {
		return false
	}
	t.fail(fmt.Errorf("%s pass passed the %v cap after %d requests", pass, t.limit, n))
	return true
}

// runTraced replays the workload's request prefix once per layer, at
// that layer's public entry point, and reports per-layer metrics.
func (e *env) runTraced(ctx context.Context, w *workload, seed uint64, seconds int) (*result, error) {
	t := &traceRun{e: e, w: w, seed: seed, limit: time.Duration(seconds) * time.Second,
		tr: newTracer(w.name), r: newReport()}
	// Untraced passes on both sides of the traced one, so that drift in
	// the host's speed cancels out of the tracing overhead.
	var passes [3]*fleetStats
	for i := range passes {
		st, err := t.fleetPass(ctx, i == 1)
		if err != nil {
			return nil, fmt.Errorf("fleet pass %d: %w", i, err)
		}
		passes[i] = st
	}
	p, ps, err := t.platformPass(ctx)
	if err != nil {
		return nil, fmt.Errorf("platform pass: %w", err)
	}
	defer p.Close()
	for _, pass := range []func(*platform.Platform, *platformStats) error{t.corePass, t.memoryPass, t.serialPass, t.imagePass} {
		if err := pass(p, ps); err != nil {
			return nil, err
		}
	}
	t.layerMetrics(passes[0], passes[1], passes[2], ps)
	if err := t.writeSpans(); err != nil {
		return nil, err
	}
	t.r.note("passes", strings.Join(t.passes, "; "))
	if t.firstErr != nil {
		t.r.note("first_error", t.firstErr.Error())
	}
	return &result{Correct: t.failed == 0, Attempted: t.ops, Failed: t.failed, report: t.r}, nil
}

// fleetStats is what one fleet pass measured.
type fleetStats struct {
	invokes           int
	walls             []float64 // µs per invocation
	gcCycles          uint32
	gcPause           time.Duration
	before, after     fleet.Stats
	degraded          int
	warm, zygoteMiss  int
	advance, unattrib simtime.Duration
}

// fleetReplay is one fleet pass in progress. With tr nil it times each
// invocation only, as the end-to-end run does. With tr set it records
// fleet and platform spans, reads the serving machine's virtual clock
// around every invocation, and mirrors every operation to a daemon d.
type fleetReplay struct {
	t      *traceRun
	tr     *tracer
	d      *daemonTarget
	fl     *fleet.Fleet
	req    int
	st     fleetStats
	clones []string
}

func (f *fleetReplay) span(op string, req int, allocs bool, fn func() error) error {
	if f.tr == nil {
		return fn()
	}
	return f.tr.call("fleet", op, req, allocs, fn)
}

// newInternalFleet builds the workload's fleet as catalyzer.NewFleet
// does, over the internal package so that each machine can be wrapped in
// a tracedNode.
func (f *fleetReplay) newInternalFleet(storeDir string) (*fleet.Fleet, error) {
	w := f.t.w
	cfg := fleet.Config{Machines: w.machines, Replication: w.replication, Zones: w.zones, Seed: int64(f.t.seed)}
	return fleet.New(cfg, func(idx int) (platform.Node, error) {
		var p *platform.Platform
		var err error
		if w.store {
			st, serr := image.NewStore(filepath.Join(storeDir, fmt.Sprintf("m%d", idx)))
			if serr != nil {
				return nil, serr
			}
			p, err = platform.NewWithStoreConfig(costmodel.Default(), st, platform.DefaultConfig())
		} else {
			p, err = platform.NewWithConfig(costmodel.Default(), platform.DefaultConfig())
		}
		if err != nil || f.tr == nil {
			return p, err
		}
		return &tracedNode{Platform: p, tr: f.tr, req: &f.req}, nil
	})
}

// do serves an operation on the in-process fleet, then on the daemon
// when there is one: the two calls of a request run back to back, so
// their difference, the HTTP layer's self time, is not swamped by the
// host's speed drifting between them.
func (f *fleetReplay) do(ctx context.Context, o op) error {
	if err := f.serve(ctx, o); err != nil || f.d == nil {
		return err
	}
	switch o.kind {
	case opInvoke:
		return f.tr.call("http", "invoke", o.invoke, false, func() error {
			_, err := f.d.do(ctx, o)
			return err
		})
	case opKillRestart:
		_, err := f.d.do(ctx, o)
		return err
	}
	// The daemon has no custom-deploy endpoint.
	return nil
}

func (f *fleetReplay) serve(ctx context.Context, o op) error {
	switch o.kind {
	case opDeploy:
		if err := registerClone(o.fn); err != nil {
			return err
		}
		f.clones = append(f.clones, o.fn)
		return f.span("deploy", -1, false, func() error { return f.fl.Deploy(ctx, o.fn) })
	case opKillRestart:
		if o.restart >= 0 {
			if err := f.fl.Restart(o.restart); err != nil {
				return err
			}
		}
		return f.fl.Kill(o.kill)
	case opInvoke:
		return f.invoke(ctx, o)
	}
	return nil
}

// invoke serves one invocation on the fleet and checks the result. The
// serving machine's clock advance beyond the reported latency is time the
// fleet charged but did not attribute to the request.
func (f *fleetReplay) invoke(ctx context.Context, o op) error {
	sys := systemOf[o.boot]
	f.req = o.invoke
	var before []fleet.MemberInfo
	if f.tr != nil {
		before = f.fl.Members()
	}
	var res *platform.Result
	var machine int
	start := now()
	err := f.span("invoke", o.invoke, true, func() error {
		var err error
		res, machine, err = f.fl.Invoke(ctx, o.fn, sys)
		return err
	})
	wall := since(start)
	if err != nil {
		return err
	}
	r := reply{fn: res.Function, boot: string(o.boot), servedBy: string(kindOf(res.System)),
		bootMS: ms(res.BootLatency), execMS: ms(res.ExecLatency), totalMS: ms(res.Total()), machine: machine}
	for _, ph := range res.Phases {
		r.phasesMS += ms(ph.Duration)
	}
	if err := r.check(f.t.w, o); err != nil {
		return err
	}
	st := &f.st
	st.invokes++
	st.walls = append(st.walls, float64(wall)/1e3)
	if res.System != sys {
		st.degraded++
	}
	if sys == platform.CatalyzerZygote {
		st.warm++
		if res.System == platform.CatalyzerRestore {
			st.zygoteMiss++
		}
	}
	if before != nil {
		adv := f.fl.Members()[machine].Clock - before[machine].Clock
		st.advance += adv
		st.unattrib += adv - res.Total()
	}
	return nil
}

// registerClone registers a copy of the clone base's spec under name.
func registerClone(name string) error {
	spec, err := specs.Registry(cloneBase)
	if err != nil {
		return err
	}
	spec.Name = name
	return specs.RegisterCustom(spec)
}

// fleetPass replays the prefix through the fleet layer, after the same
// deploys, faults and warm-up as an end-to-end set-up.
func (t *traceRun) fleetPass(ctx context.Context, traced bool) (*fleetStats, error) {
	w := t.w
	f := &fleetReplay{t: t, req: -1}
	if traced {
		f.tr = t.tr
	}
	storeDir := t.e.scratch("trace-store")
	defer os.RemoveAll(storeDir)
	fl, err := f.newInternalFleet(storeDir)
	if err != nil {
		return nil, err
	}
	f.fl = fl
	defer func() {
		fl.Close()
		for _, c := range f.clones {
			specs.Unregister(c)
		}
	}()
	if traced {
		bin, err := t.e.daemonBin()
		if err != nil {
			return nil, err
		}
		daemonStore := t.e.scratch("trace-daemon-store")
		defer os.RemoveAll(daemonStore)
		if f.d, err = startDaemon(ctx, bin, w, 1, daemonStore); err != nil {
			return nil, err
		}
		defer f.d.close()
	}
	for _, fn := range w.functions {
		if err := f.span("deploy", -1, false, func() error { return fl.Deploy(ctx, fn) }); err != nil {
			return nil, fmt.Errorf("deploy %s: %w", fn, err)
		}
	}
	for _, af := range w.faults {
		fl.ArmFault(faults.Site(af.site), af.rate)
	}
	g := newGenerator(w, t.seed)
	t.tr.paused.Store(true)
	for g.invokeCount() < w.warmup {
		if o := g.next(); o.kind != opScrape {
			if err := f.do(ctx, o); err != nil {
				t.tr.paused.Store(false)
				return nil, fmt.Errorf("warm-up %s %s: %w", o.kind, o.fn, err)
			}
		}
	}
	t.tr.paused.Store(false)
	f.st = fleetStats{before: fl.Stats()}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := now()
	for f.st.invokes < w.traceInvokes && !t.overdue("fleet", start, f.st.invokes) {
		o := g.next()
		if o.kind == opScrape {
			continue
		}
		t.ops++
		if err := f.do(ctx, o); err != nil {
			t.fail(fmt.Errorf("fleet pass %s %s (req %d): %w", o.kind, o.fn, o.invoke, err))
		}
		if f.d != nil && o.kind == opInvoke && f.st.invokes%httpScrapeEvery == 0 {
			t.ops++
			if err := f.tr.call("http", "scrape", o.invoke, false, func() error {
				_, err := f.d.do(ctx, op{kind: opScrape})
				return err
			}); err != nil {
				t.fail(fmt.Errorf("fleet pass scrape: %w", err))
			}
		}
	}
	runtime.ReadMemStats(&ms1)
	f.st.gcCycles = ms1.NumGC - ms0.NumGC
	f.st.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	f.st.after = fl.Stats()
	if traced {
		t.covered("fleet", f.st.invokes, start)
		// Kill and restart cycles after the replay, on every workload.
		for i := 0; i < 3; i++ {
			idx := i % w.machines
			t.ops++
			if err := f.span("kill_restart", -1, false, func() error {
				if err := fl.Kill(idx); err != nil {
					return err
				}
				return fl.Restart(idx)
			}); err != nil {
				t.fail(fmt.Errorf("kill/restart machine %d: %w", idx, err))
			}
		}
	}
	return &f.st, nil
}

// prefix is the traced run's request prefix: the first traceInvokes
// timed invocations.
func (t *traceRun) prefix() []op {
	g := newGenerator(t.w, t.seed)
	var out []op
	for len(out) < t.w.traceInvokes {
		if o := g.next(); o.kind == opInvoke && o.invoke >= t.w.warmup {
			out = append(out, o)
		}
	}
	return out
}

// platformStats is what the standalone machine passes measured.
type platformStats struct {
	phases                  map[catalyzer.BootKind]map[string]simtime.Duration
	boots                   map[catalyzer.BootKind]int
	cowFaults, demandFaults int
	faultInvokes            int
	framesPeak              int
	pages                   []float64
	objects                 []float64
	imageBytes              []float64
}

// platformPass replays the prefix on one standalone machine, every
// request once per boot kind: through InvokeRecover, and through Boot,
// ExecuteSandbox and ReleaseSandbox.
func (t *traceRun) platformPass(ctx context.Context) (*platform.Platform, *platformStats, error) {
	p, err := platform.NewWithConfig(costmodel.Default(), platform.DefaultConfig())
	if err != nil {
		return nil, nil, err
	}
	for _, fn := range t.w.functions {
		if _, err := p.PrepareTemplate(fn); err != nil {
			p.Close()
			return nil, nil, fmt.Errorf("prepare %s: %w", fn, err)
		}
	}
	ps := &platformStats{phases: map[catalyzer.BootKind]map[string]simtime.Duration{}, boots: map[catalyzer.BootKind]int{}}
	start := now()
	n := 0
	for _, o := range t.prefix() {
		if t.overdue("platform", start, n) {
			break
		}
		n++
		for _, k := range tracedKinds {
			t.ops += 2
			if err := t.platformRequest(ctx, p, ps, o, k); err != nil {
				t.fail(fmt.Errorf("platform pass %s %s (req %d): %w", k, o.fn, o.invoke, err))
			}
		}
	}
	t.covered("platform", n, start)
	return p, ps, nil
}

func (t *traceRun) platformRequest(ctx context.Context, p *platform.Platform, ps *platformStats, o op, k catalyzer.BootKind) error {
	sys := systemOf[k]
	if err := t.tr.call("platform", "invoke_recover."+string(k), o.invoke, false, func() error {
		_, err := p.InvokeRecover(ctx, o.fn, sys)
		return err
	}); err != nil {
		return err
	}
	var r *platform.Result
	if err := t.tr.call("platform", "boot."+string(k), o.invoke, false, func() error {
		var err error
		r, err = p.Boot(o.fn, sys)
		return err
	}); err != nil {
		return err
	}
	if r.System != sys {
		p.ReleaseSandbox(r.Sandbox)
		return checkf("%s boot of %s served by %s", sys, o.fn, r.System)
	}
	if ps.phases[k] == nil {
		ps.phases[k] = map[string]simtime.Duration{}
	}
	for _, ph := range r.Phases {
		ps.phases[k][ph.Name] += ph.Duration
	}
	ps.boots[k]++
	ps.framesPeak = max(ps.framesPeak, p.LivePages())
	err := t.tr.call("platform", "execute", o.invoke, false, func() error {
		_, err := p.ExecuteSandbox(r.Sandbox)
		return err
	})
	if err == nil && k == o.boot {
		st := r.Sandbox.AS.Stats()
		ps.cowFaults += st.CoWFaults
		ps.demandFaults += st.DemandFaults
		ps.faultInvokes++
	}
	_ = t.tr.call("platform", "release", o.invoke, false, func() error {
		p.ReleaseSandbox(r.Sandbox)
		return nil
	})
	return err
}

// corePass replays the prefix at the core layer on the platform pass's
// machine: a Template.Sfork and a cold Catalyzer.BootRestore per request.
func (t *traceRun) corePass(p *platform.Platform, _ *platformStats) error {
	start := now()
	n := 0
	for _, o := range t.prefix() {
		if t.overdue("core", start, n) {
			break
		}
		f, err := p.Lookup(o.fn)
		if err != nil {
			return err
		}
		n++
		t.ops += 2
		var s *sandbox.Sandbox
		if err := t.tr.call("core", "sfork", o.invoke, true, func() error {
			var err error
			s, _, err = f.Tmpl.Sfork()
			return err
		}); err != nil {
			t.fail(fmt.Errorf("core pass sfork %s: %w", o.fn, err))
		} else {
			s.Release()
		}
		var mp *image.Mapping
		if err := t.tr.call("core", "boot_restore", o.invoke, true, func() error {
			var err error
			s, mp, _, err = p.Cat.BootRestore(f.Image, f.FS, nil, f.Mapping, f.Cache, core.AllFlags())
			return err
		}); err != nil {
			t.fail(fmt.Errorf("core pass restore %s: %w", o.fn, err))
		} else {
			// As the platform does after a restore: later restores share the
			// function's base mapping.
			f.Mapping = mp
			s.Release()
		}
	}
	t.covered("core", n, start)
	return nil
}

// memoryPass clones and releases each request's template address space.
func (t *traceRun) memoryPass(p *platform.Platform, ps *platformStats) error {
	start := now()
	n := 0
	for _, o := range t.prefix() {
		if t.overdue("memory", start, n) {
			break
		}
		f, err := p.Lookup(o.fn)
		if err != nil {
			return err
		}
		n++
		t.ops++
		as := f.Tmpl.Sandbox().AS
		ps.pages = append(ps.pages, float64(as.MappedPages()))
		var c *memory.AddressSpace
		_ = t.tr.call("memory", "clone_cow", o.invoke, true, func() error {
			c = as.CloneCoW()
			return nil
		})
		_ = t.tr.call("memory", "release", o.invoke, false, func() error {
			c.Release()
			return nil
		})
	}
	t.covered("memory", n, start)
	return nil
}

// serialPass fixes up and decodes a fresh copy of each request's
// func-image record region, as a restore maps it.
func (t *traceRun) serialPass(p *platform.Platform, ps *platformStats) error {
	start := now()
	n := 0
	for _, o := range t.prefix() {
		if t.overdue("serial", start, n) {
			break
		}
		f, err := p.Lookup(o.fn)
		if err != nil {
			return err
		}
		n++
		t.ops += 2
		src := f.Image.Kernel.Records
		rec := &serial.Records{Region: append([]byte(nil), src.Region...), Relations: src.Relations, Index: src.Index}
		if err := t.tr.call("serial", "fixup", o.invoke, false, func() error {
			_, err := serial.FixupRecords(rec)
			return err
		}); err != nil {
			t.fail(fmt.Errorf("serial pass fixup %s: %w", o.fn, err))
			continue
		}
		var objs []serial.Object
		if err := t.tr.call("serial", "decode_records", o.invoke, true, func() error {
			var err error
			objs, err = serial.DecodeRecords(rec)
			return err
		}); err != nil {
			t.fail(fmt.Errorf("serial pass decode %s: %w", o.fn, err))
			continue
		}
		if len(objs) != len(src.Index) {
			t.fail(checkf("serial pass %s: decoded %d of %d objects", o.fn, len(objs), len(src.Index)))
		}
		ps.objects = append(ps.objects, float64(len(objs)))
	}
	t.covered("serial", n, start)
	return nil
}

// imagePass encodes, decodes, saves and loads the first imageInvokes
// requests' func-images through a scratch store in the checkout.
func (t *traceRun) imagePass(p *platform.Platform, ps *platformStats) error {
	dir := t.e.scratch("trace-imagestore")
	defer os.RemoveAll(dir)
	st, err := image.NewStore(dir)
	if err != nil {
		return err
	}
	start := now()
	n := 0
	for _, o := range t.prefix() {
		if n == imageInvokes || t.overdue("image", start, n) {
			break
		}
		f, err := p.Lookup(o.fn)
		if err != nil {
			return err
		}
		n++
		t.ops += 4
		img := f.Image
		var b []byte
		err = t.tr.call("image", "encode", o.invoke, false, func() error {
			var err error
			b, err = img.Encode()
			return err
		})
		if err == nil {
			ps.imageBytes = append(ps.imageBytes, float64(len(b)))
			err = t.tr.call("image", "decode", o.invoke, false, func() error {
				dec, err := image.Decode(b)
				if err == nil && dec.Name != img.Name {
					err = checkf("decoded image of %s names %s", img.Name, dec.Name)
				}
				return err
			})
		}
		if err == nil {
			err = t.tr.call("image", "save", o.invoke, false, func() error { return st.Save(img) })
		}
		if err == nil {
			err = t.tr.call("image", "load", o.invoke, false, func() error {
				got, err := st.Load(img.Name)
				if err == nil && got.Mem != img.Mem {
					err = checkf("loaded image of %s differs", img.Name)
				}
				return err
			})
		}
		if err != nil {
			t.fail(fmt.Errorf("image pass %s: %w", o.fn, err))
		}
	}
	t.covered("image", n, start)
	return nil
}

// writeSpans writes the run's spans to bench/out/trace-<workload>.json.
func (t *traceRun) writeSpans() error {
	dir := filepath.Join(t.e.root, "bench", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.tr.mu.Lock()
	defer t.tr.mu.Unlock()
	b, err := json.Marshal(map[string]any{"workload": t.w.name, "seed": t.seed, "spans": t.tr.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+t.w.name+".json"), b, 0o644)
}
