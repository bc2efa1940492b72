// Package admission is the platform's overload-protection front door: a
// concurrency-limiting admission controller with a bounded, deadline-aware
// FIFO queue.
//
// Every invocation passes through a Controller before it may touch the
// machine. The controller enforces a global in-flight cap and a
// per-function in-flight cap; requests over capacity wait in a bounded
// FIFO queue. A full queue sheds the newcomer immediately with
// ErrOverloaded (fast, bounded degradation — never unbounded queueing),
// and a queued request whose context deadline expires is shed with
// ErrDeadlineExceeded the moment it would otherwise be granted (or when
// its own wait aborts). Draining stops new admissions while letting the
// queue finish or shed by deadline.
//
// The controller is deliberately independent of the simulation: waits are
// real-time (context-driven), because overload is a property of the real
// serving process, not of virtual boot latency.
package admission

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// Typed admission errors. Callers branch with errors.Is; the daemon maps
// them to HTTP statuses (429 Retry-After, 503 draining, 504 deadline).
var (
	// ErrOverloaded: the request was shed — capacity and queue are full.
	ErrOverloaded = errors.New("catalyzer: overloaded (concurrency limit and queue full)")
	// ErrDraining: the controller is draining and admits nothing new.
	ErrDraining = errors.New("catalyzer: draining (not admitting new work)")
	// ErrDeadlineExceeded: the request's deadline expired (before
	// admission, while queued, or mid-boot between fallback stages).
	ErrDeadlineExceeded = errors.New("catalyzer: deadline exceeded")
	// ErrCanceled: the request's context was canceled.
	ErrCanceled = errors.New("catalyzer: canceled")
)

// CtxErr maps a context's error to the typed admission sentinel, wrapping
// the original so errors.Is sees both (e.g. both ErrDeadlineExceeded and
// context.DeadlineExceeded hold). It returns nil while ctx is live.
func CtxErr(ctx context.Context) error {
	switch err := ctx.Err(); {
	case err == nil:
		return nil
	case errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("%w: %w", ErrDeadlineExceeded, err)
	default:
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	}
}

// Config bounds the controller. Zero values mean "unlimited" for the two
// concurrency caps and "no queue" (immediate shedding at capacity) for
// QueueDepth.
type Config struct {
	// MaxConcurrent is the global in-flight invocation cap (0 =
	// unlimited).
	MaxConcurrent int
	// MaxPerFunction caps in-flight invocations of any single function
	// (0 = unlimited).
	MaxPerFunction int
	// QueueDepth bounds the FIFO wait queue; a request arriving with the
	// queue full is shed immediately (0 = shed as soon as capacity is
	// exceeded).
	QueueDepth int
}

// Stats is a snapshot of the controller's accounting, re-exported as
// catalyzer.OverloadStats. The daemon encodes it as the "overload"
// section of /metrics; the json tags are the wire names.
type Stats struct {
	// Admitted counts requests granted a slot (immediately or after
	// queueing).
	Admitted int `json:"admitted"`
	// Shed counts requests rejected over capacity (queue full) or during
	// drain.
	Shed int `json:"shed"`
	// Expired counts requests whose deadline passed before they could be
	// admitted (on arrival or while queued).
	Expired int `json:"expired"`
	// Canceled counts requests whose context was canceled while queued.
	Canceled int `json:"canceled"`
	// InFlight is the current number of admitted, unreleased requests.
	InFlight int `json:"in_flight"`
	// QueueDepth is the current queue length; QueuePeak its high-water
	// mark.
	QueueDepth int `json:"queue_depth"`
	QueuePeak  int `json:"queue_peak"`
	// PerFunction is the current in-flight gauge per function.
	PerFunction map[string]int `json:"in_flight_per_function"`
	// Draining reports whether the controller has stopped admitting.
	Draining bool `json:"draining"`
}

// waiter is one queued request.
type waiter struct {
	fn    string
	ready chan struct{} // closed when decided
	err   error         // nil = granted; otherwise the shed/expiry error
	done  bool          // decided (granted or shed) or abandoned
}

// Controller enforces the admission policy. The zero value is not usable;
// construct with New.
type Controller struct {
	mu       sync.Mutex
	cfg      Config
	inflight map[string]int
	total    int
	queue    []*waiter
	draining bool
	idle     chan struct{} // closed when draining hits zero in-flight + empty queue

	admitted, shed, expired, canceled, queuePeak int
}

// New builds a controller. Negative limits are treated as zero
// (unlimited / no queue).
func New(cfg Config) *Controller {
	if cfg.MaxConcurrent < 0 {
		cfg.MaxConcurrent = 0
	}
	if cfg.MaxPerFunction < 0 {
		cfg.MaxPerFunction = 0
	}
	if cfg.QueueDepth < 0 {
		cfg.QueueDepth = 0
	}
	return &Controller{
		cfg:      cfg,
		inflight: make(map[string]int),
		idle:     make(chan struct{}),
	}
}

// admissible reports whether fn fits both caps right now (c.mu held).
func (c *Controller) admissible(fn string) bool {
	if c.cfg.MaxConcurrent > 0 && c.total >= c.cfg.MaxConcurrent {
		return false
	}
	if c.cfg.MaxPerFunction > 0 && c.inflight[fn] >= c.cfg.MaxPerFunction {
		return false
	}
	return true
}

// grant admits fn (c.mu held).
func (c *Controller) grant(fn string) {
	c.total++
	c.inflight[fn]++
	c.admitted++
}

// Acquire admits one invocation of fn, queueing if over capacity. On
// success it returns a release function that MUST be called exactly once
// when the invocation finishes. On failure it returns one of the typed
// errors: ErrOverloaded (shed), ErrDraining, ErrDeadlineExceeded or
// ErrCanceled.
func (c *Controller) Acquire(ctx context.Context, fn string) (release func(), err error) {
	if cerr := CtxErr(ctx); cerr != nil {
		c.mu.Lock()
		c.countCtx(cerr)
		c.mu.Unlock()
		return nil, cerr
	}

	c.mu.Lock()
	if c.draining {
		c.shed++
		c.mu.Unlock()
		return nil, ErrDraining
	}
	// Fast path: capacity available and nobody queued ahead.
	if len(c.queue) == 0 && c.admissible(fn) {
		c.grant(fn)
		c.mu.Unlock()
		return c.releaseFunc(fn), nil
	}
	// Bounded queue: a full queue sheds the newcomer immediately.
	if len(c.queue) >= c.cfg.QueueDepth {
		c.shed++
		c.mu.Unlock()
		return nil, ErrOverloaded
	}
	w := &waiter{fn: fn, ready: make(chan struct{})}
	c.queue = append(c.queue, w)
	if len(c.queue) > c.queuePeak {
		c.queuePeak = len(c.queue)
	}
	// A newly queued request may be immediately grantable (e.g. the head
	// is blocked on its per-function cap but this one is not).
	c.pump()
	c.mu.Unlock()

	select {
	case <-w.ready:
		if w.err != nil {
			return nil, w.err
		}
		return c.releaseFunc(fn), nil
	case <-ctx.Done():
		cerr := CtxErr(ctx)
		c.mu.Lock()
		if w.done {
			// Decided concurrently with our ctx firing. If granted,
			// honour the grant was-too-late: give the slot back.
			if w.err == nil {
				c.releaseLocked(fn)
			}
			c.countCtx(cerr)
			c.mu.Unlock()
			return nil, cerr
		}
		w.done = true
		c.removeWaiter(w)
		c.countCtx(cerr)
		c.mu.Unlock()
		return nil, cerr
	}
}

// countCtx attributes a context failure to the right counter (c.mu held).
func (c *Controller) countCtx(err error) {
	if errors.Is(err, ErrDeadlineExceeded) {
		c.expired++
	} else {
		c.canceled++
	}
}

// releaseFunc returns the once-only release closure for an admitted fn.
func (c *Controller) releaseFunc(fn string) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			c.mu.Lock()
			c.releaseLocked(fn)
			c.mu.Unlock()
		})
	}
}

// releaseLocked frees fn's slot and pumps the queue (c.mu held).
func (c *Controller) releaseLocked(fn string) {
	c.total--
	if c.inflight[fn]--; c.inflight[fn] <= 0 {
		delete(c.inflight, fn)
	}
	c.pump()
	c.checkIdle()
}

// pump grants every currently-admissible queued waiter in FIFO order,
// dropping abandoned entries (c.mu held). A waiter blocked only by its
// per-function cap does not block later waiters of other functions.
func (c *Controller) pump() {
	kept := c.queue[:0]
	for _, w := range c.queue {
		if w.done {
			continue // abandoned by its ctx; already counted
		}
		if c.admissible(w.fn) {
			c.grant(w.fn)
			w.done = true
			close(w.ready)
			continue
		}
		kept = append(kept, w)
	}
	c.queue = kept
}

// removeWaiter drops w from the queue (c.mu held).
func (c *Controller) removeWaiter(w *waiter) {
	for i, q := range c.queue {
		if q == w {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			return
		}
	}
}

// checkIdle closes the idle channel once a draining controller has no
// in-flight work and an empty queue (c.mu held).
func (c *Controller) checkIdle() {
	if !c.draining || c.total != 0 || len(c.queue) != 0 {
		return
	}
	select {
	case <-c.idle:
	default:
		close(c.idle)
	}
}

// BeginDrain stops admitting new work. Queued requests keep their place
// and are still granted as slots free; use Drain to also bound how long
// that takes.
func (c *Controller) BeginDrain() {
	c.mu.Lock()
	c.draining = true
	c.checkIdle()
	c.mu.Unlock()
}

// Draining reports whether the controller has stopped admitting.
func (c *Controller) Draining() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.draining
}

// Drain stops admissions and waits for in-flight work and the queue to
// finish. When ctx expires first, every still-queued request is shed with
// ErrOverloaded and Drain returns ctx's typed error; in-flight work is
// not interrupted (its own contexts govern that).
func (c *Controller) Drain(ctx context.Context) error {
	c.BeginDrain()
	select {
	case <-c.idle:
		return nil
	case <-ctx.Done():
		c.mu.Lock()
		for _, w := range c.queue {
			if w.done {
				continue
			}
			w.done = true
			w.err = ErrOverloaded
			c.shed++
			close(w.ready)
		}
		c.queue = c.queue[:0]
		c.checkIdle()
		c.mu.Unlock()
		return CtxErr(ctx)
	}
}

// Snapshot returns the controller's current accounting.
func (c *Controller) Snapshot() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Stats{
		Admitted:    c.admitted,
		Shed:        c.shed,
		Expired:     c.expired,
		Canceled:    c.canceled,
		InFlight:    c.total,
		QueueDepth:  len(c.queue),
		QueuePeak:   c.queuePeak,
		PerFunction: make(map[string]int, len(c.inflight)),
		Draining:    c.draining,
	}
	for fn, n := range c.inflight {
		st.PerFunction[fn] = n
	}
	return st
}
