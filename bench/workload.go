package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"

	"catalyzer"
)

// A workload is one seeded traffic mix against one serving surface. Every
// workload is a closed loop: a client sends its next request only after
// the previous reply, as a gateway waiting on each invocation does.
//
// Functions and boot kinds are dealt from decks (see deck), so every
// cycle of cards invocations has the same mix and seeds differ only in
// order. The warm-up, the rounds the timed window is measured in and the
// structural operations all fall on whole cycles.
type workload struct {
	name string

	// daemon selects the surface: the catalyzerd binary over loopback
	// HTTP instead of an in-process catalyzer.Fleet.
	daemon bool
	// clients is the number of closed-loop clients (goroutines, and
	// keep-alive connections on the daemon).
	clients int

	machines, replication, zones int
	// store gives every machine a crash-consistent on-disk store.
	store bool
	// faults are armed on the fleet's injector, which the seed drives.
	faults []armedFault

	// functions are invoked with harmonic popularity in this order, from
	// a deck of cards cards.
	functions []string
	cards     int
	kinds     []kindCards

	// Structural operations, every so many invocations (0 = never):
	// a GET /metrics scrape, the deploy of a fresh deathstar-text clone,
	// and a kill of the next machine with a restart of the previous one.
	scrapeEvery, deployEvery, killEvery int

	// warmup invocations run untimed in every set-up.
	warmup int
	// The timed window is rounds rounds of round invocations each, the
	// same on every commit; its throughput, CPU and median latency are
	// medians over the rounds.
	rounds, round int
	// traceInvokes is the request prefix each pass of a traced run replays.
	traceInvokes int
}

// virtExtra is how far past a whole number of cycles the virtual window
// reaches: the order of those extra cards is what makes seeds differ.
const virtExtra = 10

// virt is how many timed invocations, in trace order, the virtual
// metrics cover: every whole cycle of the window but the last, plus
// virtExtra cards.
func (w *workload) virt() int { return w.rounds*w.round - w.cards + virtExtra }

type kindCards struct {
	kind  catalyzer.BootKind
	cards int
}

type armedFault struct {
	site string
	rate float64
}

var forkOnly = []kindCards{{catalyzer.ForkBoot, 1}}

// workloads lists every workload in run order; BENCHMARK.json says why
// each was chosen. The sizes keep a full set of traced and untraced runs
// within the benchmark's time budget on a 2-core machine.
var workloads = []*workload{
	{
		name:         "sfork-large",
		clients:      1,
		machines:     1,
		replication:  1,
		zones:        1,
		functions:    []string{"java-specjbb", "python-django", "ecom-report", "pillow-filters", "ecom-advertisement", "nodejs-web", "ruby-sinatra"},
		cards:        70,
		kinds:        forkOnly,
		warmup:       70,
		rounds:       12,
		round:        70,
		traceInvokes: 35,
	},
	{
		name:        "fleet-mix",
		clients:     1,
		machines:    10,
		replication: 3,
		zones:       3,
		functions: []string{"c-hello", "c-nginx", "java-hello", "python-hello", "ruby-hello", "nodejs-hello", "nodejs-web",
			"deathstar-text", "deathstar-media", "deathstar-composepost", "deathstar-uniqueid", "deathstar-timeline"},
		cards:        240,
		kinds:        []kindCards{{catalyzer.ForkBoot, 12}, {catalyzer.WarmBoot, 5}, {catalyzer.ColdBoot, 3}},
		warmup:       480,
		rounds:       12,
		round:        720,
		traceInvokes: 2*240 + virtExtra,
	},
	{
		name:         "http-tiny",
		daemon:       true,
		clients:      2,
		machines:     10,
		replication:  3,
		zones:        3,
		functions:    []string{"c-hello", "c-memread", "c-memread-late"},
		cards:        60,
		kinds:        forkOnly,
		scrapeEvery:  1000,
		warmup:       3000,
		rounds:       13,
		round:        6000,
		traceInvokes: 20*60 + virtExtra,
	},
	{
		name:        "fleet-churn",
		clients:     1,
		machines:    6,
		replication: 3,
		zones:       3,
		store:       true,
		faults:      []armedFault{{"sfork", 0.02}, {"machine-slow", 0.01}},
		functions: []string{"c-hello", "deathstar-text", "python-hello", "nodejs-hello",
			"deathstar-media", "ruby-hello", "deathstar-uniqueid", "c-nginx"},
		cards:        160,
		kinds:        []kindCards{{catalyzer.ForkBoot, 2}, {catalyzer.WarmBoot, 1}, {catalyzer.ColdBoot, 1}},
		deployEvery:  80,
		killEvery:    640,
		warmup:       320,
		rounds:       13,
		round:        640,
		traceInvokes: 2*160 + virtExtra,
	},
}

// functionCards deals the function deck: each function's share of the
// cards is harmonic in its rank, and the most popular function takes the
// rounding slack so the deck holds exactly w.cards cards.
func (w *workload) functionCards() []int {
	harmonic := 0.0
	for i := range w.functions {
		harmonic += 1 / float64(i+1)
	}
	counts := make([]int, len(w.functions))
	rest := 0
	for i := 1; i < len(counts); i++ {
		counts[i] = max(1, int(math.Round(float64(w.cards)/float64(i+1)/harmonic)))
		rest += counts[i]
	}
	counts[0] = w.cards - rest
	return counts
}

func workloadNamed(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

// cloneBase is the function whose spec every churn deploy copies.
const cloneBase = "deathstar-text"

type opKind int

const (
	opInvoke opKind = iota
	opScrape
	opDeploy
	opKillRestart
)

func (k opKind) String() string {
	return [...]string{"invoke", "scrape", "deploy", "kill-restart"}[k]
}

// An op is one client request. seq numbers every op of a trace; invoke
// numbers invocations only.
type op struct {
	seq    int
	kind   opKind
	invoke int

	fn   string             // opInvoke, opDeploy
	boot catalyzer.BootKind // opInvoke

	kill, restart int // opKillRestart; restart is -1 on the first kill
}

// A generator yields a workload's operations in a fixed order derived
// from the seed alone. It is safe for concurrent use: clients draw the
// next op in turn, so two clients split one trace between them.
//
// The warm-up is dealt from warmupSeed whatever the seed, so every run
// enters its timed window from the same state; the seed takes over at the
// first timed invocation. The state matters: on fleet-mix the warm-up
// history decides the fleet's hedging regime, which then persists, and
// seeds otherwise split between a regime hedging ~45 and one hedging ~7
// requests per thousand, 9% apart in allocation per invocation.
type generator struct {
	w    *workload
	seed uint64

	mu      sync.Mutex
	fns     *deck[string]
	kinds   *deck[catalyzer.BootKind]
	seq     int
	invokes int
	clones  int
	victim  int
	pending []op
}

const warmupSeed = 1

func newGenerator(w *workload, seed uint64) *generator {
	g := &generator{w: w, seed: seed, victim: -1}
	g.deal(warmupSeed)
	return g
}

// deal starts fresh decks shuffled by seed.
func (g *generator) deal(seed uint64) {
	w := g.w
	rng := rand.New(rand.NewPCG(seed, 0x6361746c))
	kinds := make([]catalyzer.BootKind, len(w.kinds))
	kindCounts := make([]int, len(w.kinds))
	for i, k := range w.kinds {
		kinds[i], kindCounts[i] = k.kind, k.cards
	}
	g.fns = newDeck(rng, w.functions, w.functionCards())
	g.kinds = newDeck(rng, kinds, kindCounts)
}

// A deck deals items in fixed proportions: every pass through it holds
// each item count times in an order shuffled by the seed. Seeds then
// differ in request order, not in the mix, so seeded metrics vary across
// seeds without the sampling noise of independent draws.
type deck[T any] struct {
	rng   *rand.Rand
	cards []T
	next  int
}

func newDeck[T any](rng *rand.Rand, items []T, counts []int) *deck[T] {
	d := &deck[T]{rng: rng}
	for i, it := range items {
		for c := 0; c < counts[i]; c++ {
			d.cards = append(d.cards, it)
		}
	}
	return d
}

func (d *deck[T]) deal() T {
	if d.next == 0 {
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
	}
	c := d.cards[d.next]
	d.next = (d.next + 1) % len(d.cards)
	return c
}

func (g *generator) next() op {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.pending) == 0 {
		g.fill()
	}
	o := g.pending[0]
	g.pending = g.pending[1:]
	o.seq = g.seq
	g.seq++
	return o
}

// invokeCount is the ordinal the next invocation drawn will carry.
func (g *generator) invokeCount() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := g.invokes
	for _, o := range g.pending {
		if o.kind == opInvoke {
			n--
		}
	}
	return n
}

// fill queues the structural ops due before the next invocation, then
// the invocation itself.
func (g *generator) fill() {
	w, i := g.w, g.invokes
	if i > 0 && w.scrapeEvery > 0 && i%w.scrapeEvery == 0 {
		g.pending = append(g.pending, op{kind: opScrape})
	}
	if i > 0 && w.deployEvery > 0 && i%w.deployEvery == 0 {
		g.pending = append(g.pending, op{kind: opDeploy, fn: cloneName(g.clones)})
		g.clones++
	}
	if i > 0 && w.killEvery > 0 && i%w.killEvery == 0 {
		next := (i / w.killEvery) % w.machines
		g.pending = append(g.pending, op{kind: opKillRestart, kill: next, restart: g.victim})
		g.victim = next
	}
	if i == w.warmup {
		g.deal(g.seed)
	}
	g.pending = append(g.pending, op{kind: opInvoke, invoke: i, fn: g.fns.deal(), boot: g.kinds.deal()})
	g.invokes++
}

func cloneName(i int) string { return fmt.Sprintf("text-clone-%04d", i) }
