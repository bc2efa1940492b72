package main

import (
	"bytes"
	"errors"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"

	"catalyzer"
)

func TestGeneratorIsSeeded(t *testing.T) {
	for _, w := range workloads {
		a, b, c := newGenerator(w, 7), newGenerator(w, 7), newGenerator(w, 8)
		differ := false
		for i := 0; i < 3*w.round; i++ {
			x, y, z := a.next(), b.next(), c.next()
			if x != y {
				t.Fatalf("%s: op %d differs under one seed: %+v vs %+v", w.name, i, x, y)
			}
			if x.invoke < w.warmup && x != z {
				t.Fatalf("%s: warm-up op %d depends on the seed: %+v vs %+v", w.name, i, x, z)
			}
			differ = differ || x != z
		}
		if !differ {
			t.Errorf("%s: seeds 7 and 8 gave the same timed trace", w.name)
		}
	}
}

// Every cycle of w.cards invocations deals each function its harmonic
// share and each boot kind its cards, whatever the seed.
func TestEveryCycleHasTheSameMix(t *testing.T) {
	for _, w := range workloads {
		want := map[string]int{}
		for i, n := range w.functionCards() {
			want[w.functions[i]] = n
		}
		kindCycle := 0
		for _, k := range w.kinds {
			kindCycle += k.cards
		}
		for _, seed := range []uint64{1, 2, 3} {
			g := newGenerator(w, seed)
			for cycle := 0; cycle < 3; cycle++ {
				fns, kinds := map[string]int{}, map[catalyzer.BootKind]int{}
				for n := 0; n < w.cards; {
					if o := g.next(); o.kind == opInvoke {
						fns[o.fn]++
						kinds[o.boot]++
						n++
					}
				}
				for fn, n := range want {
					if fns[fn] != n {
						t.Errorf("%s seed %d cycle %d: %s dealt %d times, want %d", w.name, seed, cycle, fn, fns[fn], n)
					}
				}
				for _, k := range w.kinds {
					if got, want := kinds[k.kind], k.cards*w.cards/kindCycle; got != want {
						t.Errorf("%s seed %d cycle %d: kind %s dealt %d times, want %d", w.name, seed, cycle, k.kind, got, want)
					}
				}
			}
		}
	}
}

// The warm-up and rounds are whole cycles and every round holds the same
// structural operations, so every round has the same mix; the virtual
// window fits in the timed one but is not whole cycles, so that seeds
// differ.
func TestWorkloadShapes(t *testing.T) {
	for _, w := range workloads {
		counts := w.functionCards()
		total := 0
		for i, n := range counts {
			total += n
			if n < 1 || (i > 0 && n > counts[i-1]) {
				t.Errorf("%s: function cards %v are not harmonic", w.name, counts)
			}
		}
		kindCycle := 0
		for _, k := range w.kinds {
			kindCycle += k.cards
		}
		switch {
		case total != w.cards:
			t.Errorf("%s: %d function cards, want %d", w.name, total, w.cards)
		case w.cards%kindCycle != 0:
			t.Errorf("%s: kind deck of %d does not divide %d cards", w.name, kindCycle, w.cards)
		case w.warmup%w.cards != 0 || w.round%w.cards != 0:
			t.Errorf("%s: warm-up %d or round %d is not whole cycles of %d", w.name, w.warmup, w.round, w.cards)
		case w.virt()%w.cards != virtExtra || w.virt() > w.rounds*w.round:
			t.Errorf("%s: virtual window %d is not whole cycles plus %d within %d rounds of %d", w.name, w.virt(), virtExtra, w.rounds, w.round)
		case w.clients < 1 || w.clients > 2:
			t.Errorf("%s: %d clients, want 1 or 2", w.name, w.clients)
		}
		for _, every := range []int{w.scrapeEvery, w.deployEvery, w.killEvery} {
			if every > 0 && w.round%every != 0 {
				t.Errorf("%s: a structural period of %d does not divide the round %d", w.name, every, w.round)
			}
		}
	}
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %s in BENCHMARK.json, %s here", i, spec.Workloads[i].Name, w.name)
		}
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(n - i) // unsorted on purpose
		}
		return v
	}
	for _, c := range []struct {
		n          int
		value, pct float64
	}{
		{1000, 990, 0.99},  // p99 has exactly 10 samples beyond it
		{500, 490, 0.98},   // p99 would have 5: lowered to p98
		{15, 8, 8.0 / 15},  // no tail with 10 beyond: the median
		{2000, 1980, 0.99}, // 20 beyond
	} {
		v, pct := tail(seq(c.n), 0.99)
		if v != c.value || math.Abs(pct-c.pct) > 1e-12 {
			t.Errorf("n=%d: tail = %v at %v, want %v at %v", c.n, v, pct, c.value, c.pct)
		}
		if beyond := c.n - int(v); c.n >= 2*minBeyond && beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond", c.n, beyond)
		}
	}
	if v, _ := tail(nil, 0.99); v != 0 {
		t.Errorf("tail of no samples = %v", v)
	}
}

// Quartiles match Python's statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{3, 9}, [3]float64{1.5, 6, 10.5}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestSelfTimeSubtractsTheInnerLayer(t *testing.T) {
	sp := func(req int, start, end int64) span { return span{Req: req, StartNS: start, EndNS: end} }
	outer := inclusiveByReq([]span{sp(1, 0, 100_000), sp(2, 200_000, 250_000), sp(3, 300_000, 330_000)})
	// Request 1 reached the inner layer twice (a hedge); request 3 never.
	inner := inclusiveByReq([]span{sp(1, 10_000, 30_000), sp(1, 40_000, 80_000), sp(2, 205_000, 245_000)})
	got := selfTimes(outer, inner)
	sort.Float64s(got)
	if want := []float64{10, 40}; len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("self times = %v µs, want %v", got, want)
	}
}

func TestJudge(t *testing.T) {
	lower := specMetric{Name: "wall_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := specMetric{Name: "throughput_rps", Unit: "1/s", Better: "higher", Bound: 0.10}
	base := []float64{10, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.1, 9.9, 10}
	scale := func(v []float64, f float64) []float64 {
		out := make([]float64, len(v))
		for i, x := range v {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name     string
		m        specMetric
		old, new []float64
		want     string
	}{
		{"slower beyond the bound", lower, base, scale(base, 1.2), "regression"},
		{"slower within the bound", lower, base, scale(base, 1.05), "ok"},
		{"unchanged", lower, base, base, "ok"},
		{"faster beyond the spread", lower, base, scale(base, 0.9), "better"},
		{"throughput drop", higher, base, scale(base, 0.8), "regression"},
		{"throughput gain", higher, base, scale(base, 1.15), "better"},
		{"noisy parent", lower, []float64{5, 8, 10, 12, 15}, []float64{9, 10, 11}, "unresolved"},
		{"noisy parent, every run better", lower, []float64{5, 8, 10, 12, 15}, []float64{1, 2, 3}, "better"},
	} {
		if got := judge(c.m, c.old, c.new).call; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// Exact metrics pair runs by seed and allow no change.
func TestJudgeExact(t *testing.T) {
	m := specMetric{Name: "virt_boot_mean_ms", Unit: "ms", Better: "lower", Bound: 0.02}
	if !exact(m) {
		t.Fatal("virt_boot_mean_ms is not exact")
	}
	old := map[uint64]float64{1: 5.0, 2: 5.5, 3: 4.5}
	for _, c := range []struct {
		name string
		new  map[uint64]float64
		want string
	}{
		{"same values", map[uint64]float64{1: 5.0, 2: 5.5, 3: 4.5}, "ok"},
		{"summed in another order", map[uint64]float64{1: 5.0 * (1 + 1e-14), 2: 5.5, 3: 4.5}, "ok"},
		{"one seed 0.1% worse", map[uint64]float64{1: 5.005, 2: 5.5, 3: 4.5}, "regression"},
		{"worse on one seed, better on another", map[uint64]float64{1: 5.1, 2: 5.0, 3: 4.5}, "regression"},
		{"better on one seed", map[uint64]float64{1: 4.9, 2: 5.5, 3: 4.5}, "better"},
		{"one seed in common", map[uint64]float64{3: 4.5, 9: 100}, "ok"},
		{"no seed in common", map[uint64]float64{7: 5.0, 8: 5.5}, "unpaired"},
	} {
		if got := judgeExact(m, old, c.new).call; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestReplyCheckRejectsEachFault(t *testing.T) {
	mix, _ := workloadNamed("fleet-mix")
	churn, _ := workloadNamed("fleet-churn")
	o := op{kind: opInvoke, fn: "c-hello", boot: catalyzer.ForkBoot}
	good := reply{fn: "c-hello", boot: "fork", servedBy: "fork", bootMS: 0.7, execMS: 0.5, totalMS: 1.2, phasesMS: 0.7, machine: 9}
	if err := good.check(mix, o); err != nil {
		t.Fatalf("a good reply failed: %v", err)
	}
	for name, mutate := range map[string]func(*reply){
		"other function":   func(r *reply) { r.fn = "c-nginx" },
		"other boot":       func(r *reply) { r.boot = "warm" },
		"unknown kind":     func(r *reply) { r.servedBy, r.boot = "teleport", "teleport" },
		"degraded":         func(r *reply) { r.servedBy = "cold" },
		"total mismatch":   func(r *reply) { r.totalMS += 0.001 },
		"phases mismatch":  func(r *reply) { r.phasesMS -= 0.001 },
		"no boot":          func(r *reply) { r.bootMS, r.phasesMS, r.totalMS = 0, 0, 0.5 },
		"machine too high": func(r *reply) { r.machine = 10 },
		"negative machine": func(r *reply) { r.machine = -1 },
	} {
		r := good
		mutate(&r)
		if err := r.check(mix, o); !errors.Is(err, errCheck) {
			t.Errorf("%s: check returned %v", name, err)
		}
	}
	degraded := good
	degraded.servedBy, degraded.machine = "cold", 5
	if err := degraded.check(churn, o); err != nil {
		t.Errorf("fleet-churn must allow degraded boots: %v", err)
	}
}

// The reference loop allocates nothing once running, so that it never
// waits on a garbage collection.
func TestReferenceDoesNotAllocate(t *testing.T) {
	reference()
	if n := testing.AllocsPerRun(3, func() { reference() }); n != 0 {
		t.Errorf("reference loop made %v allocations per run", n)
	}
}

// The probe child answers every line with one positive duration in
// nanoseconds and stops at the end of its input.
func TestServeReference(t *testing.T) {
	var out bytes.Buffer
	if err := serveReference(strings.NewReader("\n\n"), &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Fields(out.String())
	if len(lines) != 2 {
		t.Fatalf("two requests got %d replies: %q", len(lines), out.String())
	}
	for _, l := range lines {
		if ns, err := strconv.ParseInt(l, 10, 64); err != nil || ns <= 0 {
			t.Errorf("reply %q is not a positive duration", l)
		}
	}
}

func TestCheckNames(t *testing.T) {
	listed := []specMetric{{Name: "a", Unit: "ms"}, {Name: "b", Unit: "s"}}
	r := newReport()
	r.add("a", 1, "ms", "")
	if err := checkNames(r, listed); err == nil {
		t.Error("a missing metric passed")
	}
	r.add("b", 1, "ms", "")
	if err := checkNames(r, listed); err == nil {
		t.Error("a wrong unit passed")
	}
	r.add("b", 1, "s", "")
	if err := checkNames(r, listed); err != nil {
		t.Error(err)
	}
	r.add("c", 1, "s", "")
	if err := checkNames(r, listed); err == nil {
		t.Error("an unlisted metric passed")
	}
}
