package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// setups is how many times a run builds its serving state; setup_s is
// their median and the last one serves the timed window.
const setups = 3

// allocReplayInvokes is the size of the in-process replay that measures
// a daemon workload's fleet-side allocation.
const allocReplayInvokes = 4000

// env is what a run needs from its checkout.
type env struct {
	root   string // checkout root
	daemon string // catalyzerd binary, built on first use
}

// scratch names a per-process scratch path in the build directory.
func (e *env) scratch(name string) string {
	return filepath.Join(e.root, ".bench_build", fmt.Sprintf("%s-%d", name, os.Getpid()))
}

func (e *env) daemonBin() (string, error) {
	if e.daemon == "" {
		bin, err := buildDaemon(e.root)
		if err != nil {
			return "", err
		}
		e.daemon = bin
	}
	return e.daemon, nil
}

// newTarget builds one serving state for w: the fleet or daemon with the
// workload's functions deployed.
func (e *env) newTarget(ctx context.Context, w *workload, seed uint64) (target, error) {
	if w.daemon {
		bin, err := e.daemonBin()
		if err != nil {
			return nil, err
		}
		return startDaemon(ctx, bin, w, w.clients, e.scratch("store"))
	}
	return newFleetTarget(ctx, w, seed, e.scratch("store"))
}

// A sample is one timed invocation's reply.
type sample struct {
	invoke int // trace ordinal among invocations
	outcome
}

// A round is one quota of invocations driven to completion, with the
// reference loop's duration around it.
type round struct {
	dur, cpu time.Duration
	ref      time.Duration
	walls    []time.Duration
}

// A window is the outcome of the timed part of a run.
type window struct {
	samples  []sample
	rounds   []round
	ops      int // operations attempted, invocations included
	failed   int
	checks   int // failures that were failed checks
	firstErr error
}

// drive measures w.rounds rounds of w.round invocations, running the
// reference loop on ref between rounds. Each round's reference time is the
// mean of the loops before and after it. Every commit runs the same
// rounds, so the window's state at its end is the same too; limit is only
// a cap, and a window that outlasts it fails.
func drive(ctx context.Context, t target, g *generator, w *workload, ref *refProbe, limit time.Duration, cpu func() time.Duration) (*window, error) {
	win := &window{}
	start := now()
	before, err := ref.measure()
	if err != nil {
		return nil, err
	}
	for len(win.rounds) < w.rounds {
		rd := win.runRound(ctx, t, g, w, cpu)
		after, err := ref.measure()
		if err != nil {
			return nil, err
		}
		rd.ref = (before + after) / 2
		before = after
		win.rounds = append(win.rounds, rd)
		if since(start) > limit {
			return nil, fmt.Errorf("timed window passed the %v cap after %d of %d rounds", limit, len(win.rounds), w.rounds)
		}
	}
	return win, nil
}

// runRound runs closed-loop clients until the round's quota of
// invocations has been drawn from the shared trace and every reply is in.
func (win *window) runRound(ctx context.Context, t target, g *generator, w *workload, cpu func() time.Duration) round {
	var (
		mu    sync.Mutex
		drawn int
		rd    round
		wg    sync.WaitGroup
	)
	next := func() (op, bool) {
		mu.Lock()
		defer mu.Unlock()
		if drawn == w.round {
			return op{}, false
		}
		o := g.next()
		if o.kind == opInvoke {
			drawn++
		}
		return o, true
	}
	cpu0, start := cpu(), now()
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for o, ok := next(); ok; o, ok = next() {
				t0 := now()
				out, err := t.do(ctx, o)
				wall := since(t0)
				mu.Lock()
				win.ops++
				switch {
				case err != nil:
					win.failed++
					if errors.Is(err, errCheck) {
						win.checks++
					}
					if win.firstErr == nil {
						win.firstErr = fmt.Errorf("%s %s (op %d): %w", o.kind, o.fn, o.seq, err)
					}
				case o.kind == opInvoke:
					win.samples = append(win.samples, sample{invoke: o.invoke, outcome: out})
					rd.walls = append(rd.walls, wall)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	rd.dur, rd.cpu = since(start), cpu()-cpu0
	return rd
}

// setUp builds a target and runs the workload's warm-up on it, returning
// the target, the generator positioned after the warm-up, and the time
// both took.
func (e *env) setUp(ctx context.Context, w *workload, seed uint64) (target, *generator, time.Duration, error) {
	start := now()
	t, err := e.newTarget(ctx, w, seed)
	if err != nil {
		return nil, nil, 0, err
	}
	g := newGenerator(w, seed)
	for g.invokeCount() < w.warmup {
		o := g.next()
		if _, err := t.do(ctx, o); err != nil {
			t.close()
			return nil, nil, 0, fmt.Errorf("warm-up %s %s (op %d): %w", o.kind, o.fn, o.seq, err)
		}
	}
	return t, g, since(start), nil
}

// runE2E measures one workload with tracing off.
func (e *env) runE2E(ctx context.Context, w *workload, seed uint64, seconds int) (res *result, err error) {
	ref, err := startRefProbe()
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := ref.close(); err == nil && cerr != nil {
			err = fmt.Errorf("reference probe: %w", cerr)
		}
	}()
	var (
		t              target
		g              *generator
		setupS, setupR []float64
	)
	before, err := ref.measure()
	if err != nil {
		return nil, err
	}
	for i := 0; i < setups; i++ {
		if t != nil {
			t.close()
			runtime.GC()
			debug.FreeOSMemory()
		}
		var d time.Duration
		if t, g, d, err = e.setUp(ctx, w, seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		after, err := ref.measure()
		if err != nil {
			t.close()
			return nil, err
		}
		setupS = append(setupS, atReference(d, (before+after)/2)/1e9)
		setupR = append(setupR, d.Seconds())
		before = after
	}

	cpu := selfCPU
	peakRSS := func() (float64, error) { return peakRSSMB(0) }
	if d, ok := t.(*daemonTarget); ok {
		cpu = func() time.Duration {
			c, err := procCPU(d.pid())
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: daemon CPU: %v\n", err)
			}
			return c + selfCPU()
		}
		peakRSS = func() (float64, error) { return peakRSSMB(d.pid()) }
	}
	first := g.invokeCount()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	win, err := drive(ctx, t, g, w, ref, time.Duration(seconds)*time.Second, cpu)
	runtime.ReadMemStats(&ms1)
	rss, rssErr := peakRSS()
	t.close()
	if err != nil {
		return nil, err
	}
	if rssErr != nil {
		return nil, rssErr
	}
	invokes := len(win.samples)
	if invokes == 0 {
		return nil, fmt.Errorf("no invocation completed: %v", win.firstErr)
	}

	var rates, cpus, p50s, walls, refs []float64
	var rawDur, rawCPU time.Duration
	var rawWalls []float64
	for _, rd := range win.rounds {
		n := float64(len(rd.walls))
		rates = append(rates, n/(atReference(rd.dur, rd.ref)/1e9))
		cpus = append(cpus, atReference(rd.cpu, rd.ref)/1e6/n)
		ws := make([]float64, len(rd.walls))
		for i, wall := range rd.walls {
			ws[i] = atReference(wall, rd.ref) / 1e6
			rawWalls = append(rawWalls, float64(wall)/1e6)
		}
		p50s = append(p50s, median(ws))
		walls = append(walls, ws...)
		refs = append(refs, float64(rd.ref)/1e6)
		rawDur += rd.dur
		rawCPU += rd.cpu
	}
	r := newReport()
	r.note("host", fmt.Sprintf("reference loop %.2f ms median over %d rounds (%.0f%% of the %v nominal); wall-clock and CPU metrics are scaled to the nominal",
		median(refs), len(refs), 100*median(refs)/(float64(refNominal)/1e6), refNominal))
	r.add("setup_s", median(setupS), "s", fmt.Sprintf("median of %d set-ups: start, deploys, %d warm-up invocations; raw %.3f s", setups, w.warmup, setupR))
	r.add("throughput_rps", median(rates), "1/s", fmt.Sprintf("median over %d rounds of %d invocations, %d client(s); raw %.1f over the window",
		len(win.rounds), w.round, w.clients, float64(invokes)/rawDur.Seconds()))
	r.add("wall_p50_ms", median(p50s), "ms", fmt.Sprintf("median over rounds of the round's median; raw %.4g", median(rawWalls)))
	p99, used := tail(walls, 0.99)
	rawP99, _ := tail(rawWalls, 0.99)
	r.add("wall_p99_ms", p99, "ms", fmt.Sprintf("n=%d, percentile used %.4f; raw %.4g", invokes, used, rawP99))
	cpuNote := "process user+sys CPU / invocation"
	if w.daemon {
		cpuNote = "daemon (/proc/<pid>/stat) + load generator user+sys CPU / invocation"
	}
	r.add("cpu_ms_per_invoke", median(cpus), "ms", fmt.Sprintf("%s, median over rounds; raw %.4g", cpuNote, float64(rawCPU)/1e6/float64(invokes)))
	allocKB := float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / float64(invokes)
	allocNote := fmt.Sprintf("heap allocated in the window / %d invocations", invokes)
	if w.daemon {
		if allocKB, err = e.replayAlloc(ctx, w, seed); err != nil {
			return nil, fmt.Errorf("in-process alloc replay: %w", err)
		}
		allocNote = fmt.Sprintf("%d invocations of the trace replayed on an in-process fleet of the same shape; not the daemon's heap, which cannot be read from outside", allocReplayInvokes)
	}
	r.add("fleet_alloc_kb_per_invoke", allocKB, "KiB", allocNote)
	r.add("peak_rss_mb", rss, "MB", "VmHWM of the serving process")
	virtualMetrics(r, w, win.samples, first)

	degraded := 0
	for _, s := range win.samples {
		if s.degraded {
			degraded++
		}
	}
	r.note("error_rate", fmt.Sprintf("%.6f (%d of %d ops failed, %d of them failed checks)", float64(win.failed)/float64(win.ops), win.failed, win.ops, win.checks))
	r.note("degraded_rate", fmt.Sprintf("%.6f (%d of %d invocations served by another boot kind)", float64(degraded)/float64(invokes), degraded, invokes))
	if win.firstErr != nil {
		r.note("first_error", win.firstErr.Error())
	}
	return &result{Correct: win.failed == 0, Attempted: win.ops, Failed: win.failed, report: r}, nil
}

// virtualMetrics reports the virtual-time metrics over the first w.virt()
// timed invocations in trace order, whose latencies depend on the seed
// alone. first is the ordinal of the first timed invocation.
func virtualMetrics(r *report, w *workload, samples []sample, first int) {
	var boots, totals []float64
	for _, s := range samples {
		if s.invoke-first < w.virt() {
			boots = append(boots, s.bootMS)
			totals = append(totals, s.totalMS)
		}
	}
	note := fmt.Sprintf("first %d timed invocations in trace order", len(boots))
	bp99, bused := tail(boots, 0.99)
	ep99, eused := tail(totals, 0.99)
	r.add("virt_boot_mean_ms", mean(boots), "ms", fmt.Sprintf("%s; p50 %.4g, p%.2f %.4g", note, median(boots), 100*bused, bp99))
	r.add("virt_e2e_mean_ms", mean(totals), "ms", fmt.Sprintf("%s; p50 %.4g, p%.2f %.4g", note, median(totals), 100*eused, ep99))
}

// replayAlloc replays a daemon workload's trace, after its set-up, on an
// in-process fleet of the same shape and returns the heap KiB allocated
// per invocation.
func (e *env) replayAlloc(ctx context.Context, w *workload, seed uint64) (float64, error) {
	inproc := *w
	inproc.daemon = false
	t, g, _, err := e.setUp(ctx, &inproc, seed)
	if err != nil {
		return 0, err
	}
	defer t.close()
	end := g.invokeCount() + allocReplayInvokes
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for g.invokeCount() < end {
		if _, err := t.do(ctx, g.next()); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&ms1)
	return float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / allocReplayInvokes, nil
}
