// Package supervise is the platform's runtime supervision layer: it
// watches what happens to sandboxes *after* they boot. The boot chain
// (internal/platform's recovery machinery) handles failures on the way
// up; this package handles instances that come up fine and go bad later
// — wedged keep-warm instances, stale pooled Zygotes, poisoned
// templates, hung invocations, and functions stuck in crash loops.
//
// Everything is virtual-time driven. The supervisor owns no timer and
// starts no goroutine: probes are declared with a cadence and executed
// by Poll, which the platform calls at natural quiescent points (the end
// of each recovered invocation). A probe whose interval has elapsed on
// the virtual clock runs; the rest wait. This keeps the whole layer
// deterministic under the repo's wallclock invariant (no host clock
// reads outside internal/simtime) while still modelling "background"
// health loops: probe work is charged to the machine clock outside any
// invocation's measured latency, which is exactly what off-critical-path
// means in a virtual-time system.
//
// The supervisor also tracks per-function crash loops in a sliding
// virtual-time window and parks repeat offenders with exponential
// backoff (typed ErrCrashLooping), and keeps the queue of self-healing
// work (template regeneration, image rebuilds) that Defer schedules:
// Poll runs the queued tasks on the calling goroutine right after the
// due probes, and Close runs whatever is still queued. After Close returns,
// no probe fires and no task runs.
package supervise

import (
	"errors"
	"fmt"
	"sync"

	"catalyzer/internal/simtime"
)

// ErrCrashLooping is returned (wrapped, with the function name and the
// remaining park time) when a function has failed often enough inside
// the sliding window that the supervisor refuses to boot it until its
// backoff expires.
var ErrCrashLooping = errors.New("supervise: function is crash-looping")

// Config tunes the supervision layer. Zero values select the defaults;
// negative values are rejected by Validate.
type Config struct {
	// ProbeInterval is the virtual-time cadence of each liveness probe
	// group (keep-warm, templates, zygotes).
	ProbeInterval simtime.Duration
	// WatchdogMultiple is the hung-invocation kill threshold, as a
	// multiple of the invocation's expected execution cost: a hung
	// execution is killed after WatchdogMultiple × expected-exec of
	// virtual time.
	WatchdogMultiple int
	// PoisonThreshold is the number of *distinct* failed sfork children
	// that convicts their template as poisoned (see sandbox.Lineage).
	PoisonThreshold int
	// CrashLoopWindow is the sliding virtual-time window over which
	// per-function failures are counted.
	CrashLoopWindow simtime.Duration
	// CrashLoopThreshold is the failure count within the window that
	// parks the function.
	CrashLoopThreshold int
	// ParkBase is the first park duration; each consecutive park doubles
	// it, capped at ParkMax.
	ParkBase simtime.Duration
	// ParkMax caps the exponential park backoff.
	ParkMax simtime.Duration
}

// DefaultConfig returns the supervision defaults: 100ms probe cadence,
// watchdog kill at 8× the expected execution cost, poisoning verdict at
// 3 distinct failed children, crash-loop parking at 5 failures inside a
// 1s window with 100ms..10s exponential backoff.
func DefaultConfig() Config {
	return Config{
		ProbeInterval:      100 * simtime.Millisecond,
		WatchdogMultiple:   8,
		PoisonThreshold:    3,
		CrashLoopWindow:    simtime.Second,
		CrashLoopThreshold: 5,
		ParkBase:           100 * simtime.Millisecond,
		ParkMax:            10 * simtime.Second,
	}
}

// Validate rejects nonsensical tunings (negative durations or counts).
func (c Config) Validate() error {
	if c.ProbeInterval < 0 || c.CrashLoopWindow < 0 || c.ParkBase < 0 || c.ParkMax < 0 {
		return fmt.Errorf("supervise: negative duration in config: %+v", c)
	}
	if c.WatchdogMultiple < 0 || c.PoisonThreshold < 0 || c.CrashLoopThreshold < 0 {
		return fmt.Errorf("supervise: negative threshold in config: %+v", c)
	}
	return nil
}

// withDefaults fills zero fields from DefaultConfig.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.ProbeInterval == 0 {
		c.ProbeInterval = d.ProbeInterval
	}
	if c.WatchdogMultiple == 0 {
		c.WatchdogMultiple = d.WatchdogMultiple
	}
	if c.PoisonThreshold == 0 {
		c.PoisonThreshold = d.PoisonThreshold
	}
	if c.CrashLoopWindow == 0 {
		c.CrashLoopWindow = d.CrashLoopWindow
	}
	if c.CrashLoopThreshold == 0 {
		c.CrashLoopThreshold = d.CrashLoopThreshold
	}
	if c.ParkBase == 0 {
		c.ParkBase = d.ParkBase
	}
	if c.ParkMax == 0 {
		c.ParkMax = d.ParkMax
	}
	return c
}

// Stats is the supervisor's accounting, re-exported as
// catalyzer.SuperviseStats. The daemon encodes it as the "supervise"
// section of /metrics; the json tags are the wire names.
type Stats struct {
	// ProbesRun counts probe-group executions; TargetsProbed counts the
	// individual instances those probes inspected.
	ProbesRun     int `json:"probes_run"`
	TargetsProbed int `json:"targets_probed"`
	// WedgedEvicted counts instances a probe found wedged and evicted
	// (keep-warm instances, pooled Zygotes, template sandboxes).
	WedgedEvicted int `json:"wedged_evicted"`
	// CrashLoopsParked counts park events; CrashLoopRejects counts
	// boots refused with ErrCrashLooping while parked.
	CrashLoopsParked int `json:"crash_loops_parked"`
	CrashLoopRejects int `json:"crash_loop_rejects"`
	// ParkedFunctions is the current number of parked functions (gauge).
	ParkedFunctions int `json:"parked_functions"`
}

// probeEntry is one registered probe group.
type probeEntry struct {
	name     string
	fn       func() (checked, evicted int)
	interval simtime.Duration
	nextDue  simtime.Duration
	running  bool
}

// fnHealth is one function's crash-loop state.
type fnHealth struct {
	fails       []simtime.Duration // failure timestamps inside the window
	parkedUntil simtime.Duration
	parks       int // consecutive park count, drives the backoff exponent
}

// task is one unit of deferred self-healing work, deduplicated by key.
type task struct {
	key string
	fn  func()
}

// Supervisor runs liveness probes on a virtual-time cadence, tracks
// per-function crash loops, and queues the platform's self-healing work
// (template regeneration, image rebuilds) for the next Poll. Safe for
// concurrent use.
type Supervisor struct {
	now func() simtime.Duration
	cfg Config

	mu     sync.Mutex
	probes []*probeEntry
	health map[string]*fnHealth
	stats  Stats
	queue  []task
	closed bool

	polls sync.WaitGroup // in-flight Polls, which Close waits out
}

// New builds a supervisor reading virtual time through now. Zero config
// fields take defaults; invalid configs are the caller's to Validate.
func New(now func() simtime.Duration, cfg Config) *Supervisor {
	return &Supervisor{
		now:    now,
		cfg:    cfg.withDefaults(),
		health: make(map[string]*fnHealth),
	}
}

// Config returns the effective (defaulted) tuning.
func (s *Supervisor) Config() Config { return s.cfg }

// Register adds a named probe group on the default ProbeInterval
// cadence. fn inspects its targets and returns how many it checked and
// how many wedged ones it evicted; the supervisor does the cadence
// bookkeeping and stats. The first run is due one interval after
// registration.
func (s *Supervisor) Register(name string, fn func() (checked, evicted int)) {
	s.RegisterEvery(name, 0, fn)
}

// RegisterEvery adds a named probe group with its own virtual-time
// cadence (≤ 0 selects the supervisor's ProbeInterval), so slow
// background sweeps and fast recovery probes can coexist on one
// supervisor.
func (s *Supervisor) RegisterEvery(name string, every simtime.Duration, fn func() (checked, evicted int)) {
	if every <= 0 {
		every = s.cfg.ProbeInterval
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.probes = append(s.probes, &probeEntry{
		name:     name,
		fn:       fn,
		interval: every,
		nextDue:  s.now() + every,
	})
}

// Poll runs every probe group whose interval has elapsed on the virtual
// clock, then every queued task, all on the calling goroutine. Probes
// and tasks run outside the supervisor's mutex (they take the
// platform's machine lock); a group already running in another Poll is
// skipped, and nothing runs after Close. Tasks queued by this Poll's
// probes run in this Poll. The platform calls Poll at the end of each
// recovered invocation, so probe and task work is charged off every
// request's measured latency.
func (s *Supervisor) Poll() {
	now := s.now()
	var due []*probeEntry
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	for _, p := range s.probes {
		if !p.running && now >= p.nextDue {
			p.running = true
			due = append(due, p)
		}
	}
	s.polls.Add(1)
	s.mu.Unlock()
	defer s.polls.Done()

	for _, p := range due {
		checked, evicted := p.fn()
		s.mu.Lock()
		p.running = false
		p.nextDue = s.now() + p.interval
		s.stats.ProbesRun++
		s.stats.TargetsProbed += checked
		s.stats.WedgedEvicted += evicted
		s.mu.Unlock()
	}
	s.runQueued()
}

// Defer queues fn to run at the next Poll (or at Close), after every
// task queued before it. A task whose key is already queued is not
// queued again. Defer never runs fn itself, and it reports false
// (dropping fn) once the supervisor is closed.
func (s *Supervisor) Defer(key string, fn func()) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	for _, t := range s.queue {
		if t.key == key {
			return true
		}
	}
	s.queue = append(s.queue, task{key: key, fn: fn})
	return true
}

// runQueued takes the whole queue and runs it in FIFO order.
func (s *Supervisor) runQueued() {
	s.mu.Lock()
	q := s.queue
	s.queue = nil
	s.mu.Unlock()
	for _, t := range q {
		t.fn()
	}
}

// Close stops the supervisor: it refuses new tasks, runs the ones
// still queued, and waits for any in-flight Poll, so no probe fires and
// no task runs after Close returns. Idempotent.
func (s *Supervisor) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.runQueued()
	s.polls.Wait()
}

// Stats returns a snapshot of the supervisor's accounting. The
// ParkedFunctions gauge is computed against the current virtual time.
func (s *Supervisor) Stats() Stats {
	now := s.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.stats
	for _, h := range s.health {
		if now < h.parkedUntil {
			out.ParkedFunctions++
		}
	}
	return out
}

// Parked lists the currently parked functions with their remaining park
// time, for /health.
func (s *Supervisor) Parked() map[string]simtime.Duration {
	now := s.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]simtime.Duration)
	for name, h := range s.health {
		if now < h.parkedUntil {
			out[name] = h.parkedUntil - now
		}
	}
	return out
}

// Allow gates a function's boot on its crash-loop state: a parked
// function is refused with a wrapped ErrCrashLooping carrying the
// remaining park time.
func (s *Supervisor) Allow(fn string) error {
	now := s.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	h := s.health[fn]
	if h == nil || now >= h.parkedUntil {
		return nil
	}
	s.stats.CrashLoopRejects++
	return fmt.Errorf("%w: %s parked for another %v", ErrCrashLooping, fn, h.parkedUntil-now)
}

// NoteFailure records one failed invocation of fn at the current
// virtual time. Crossing CrashLoopThreshold failures inside
// CrashLoopWindow parks the function for ParkBase doubled per
// consecutive park (capped at ParkMax). It reports whether this call
// parked the function.
func (s *Supervisor) NoteFailure(fn string) bool {
	now := s.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	h := s.health[fn]
	if h == nil {
		h = &fnHealth{}
		s.health[fn] = h
	}
	if now < h.parkedUntil {
		// Already parked: failures of in-flight stragglers don't extend
		// or re-trigger the park.
		return false
	}
	h.fails = append(h.fails, now)
	// Slide the window.
	cut := 0
	for cut < len(h.fails) && h.fails[cut]+s.cfg.CrashLoopWindow < now {
		cut++
	}
	h.fails = h.fails[cut:]
	if len(h.fails) < s.cfg.CrashLoopThreshold {
		return false
	}
	park := s.cfg.ParkBase << h.parks
	if park > s.cfg.ParkMax || park <= 0 {
		park = s.cfg.ParkMax
	}
	h.parkedUntil = now + park
	h.parks++
	h.fails = nil
	s.stats.CrashLoopsParked++
	return true
}

// NoteSuccess records a successful invocation of fn: the failure window
// clears and the park backoff resets.
func (s *Supervisor) NoteSuccess(fn string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if h := s.health[fn]; h != nil {
		h.fails = nil
		h.parks = 0
	}
}
