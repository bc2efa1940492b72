package platform

import (
	"sync"

	"catalyzer/internal/simtime"
)

// Priority is the per-function boot-priority hint of §6.9: private
// platforms assign priorities so the platform can dedicate fork boot to
// high-priority functions, while public platforms rely on developer hints
// and invocation-frequency heuristics.
type Priority uint8

const (
	// PriorityAuto lets invocation frequency drive the choice.
	PriorityAuto Priority = iota
	// PriorityHigh always uses fork boot (template pinned in memory).
	PriorityHigh
	// PriorityLow never keeps a template; cold/warm boots only.
	PriorityLow
)

// RouterConfig tunes the adaptive policy.
type RouterConfig struct {
	// Window is the sliding window over which invocation frequency is
	// measured (virtual time).
	Window simtime.Duration
	// HotThreshold promotes a function to fork boot once it sees this
	// many invocations within Window ("fork boot is more suitable for
	// frequently invoked (hot) functions", §2.3).
	HotThreshold int
	// WarmThreshold selects Zygote warm boot below HotThreshold.
	WarmThreshold int
}

// DefaultRouterConfig mirrors the deployment guidance of §6.9.
func DefaultRouterConfig() RouterConfig {
	return RouterConfig{
		Window:        10 * simtime.Second,
		HotThreshold:  8,
		WarmThreshold: 2,
	}
}

type fnStats struct {
	invocations []simtime.Duration // virtual timestamps within the window
	priority    Priority
}

// Router is the boot-switching policy engine (§6.9): it picks cold, warm
// or fork boot per invocation from priorities and recent frequency, and
// lazily prepares the more expensive artifacts (templates) only for
// functions that earn them. Safe for concurrent use; the mutex guards
// only the frequency bookkeeping, never machine work.
type Router struct {
	p   *Platform
	cfg RouterConfig

	mu    sync.Mutex
	stats map[string]*fnStats
}

// NewRouter builds a router over a platform.
func NewRouter(p *Platform, cfg RouterConfig) *Router {
	if cfg.Window <= 0 {
		cfg = DefaultRouterConfig()
	}
	return &Router{p: p, cfg: cfg, stats: make(map[string]*fnStats)}
}

// SetPriority pins a function's priority (§6.9 hints).
func (r *Router) SetPriority(name string, prio Priority) error {
	if _, err := r.p.Register(name); err != nil {
		return err
	}
	r.mu.Lock()
	r.fn(name).priority = prio
	r.mu.Unlock()
	return nil
}

// fn returns (lazily creating) name's stats entry (r.mu held).
func (r *Router) fn(name string) *fnStats {
	st, ok := r.stats[name]
	if !ok {
		st = &fnStats{}
		r.stats[name] = st
	}
	return st
}

// frequency returns the number of invocations within the window ending
// now (r.mu held; the clock read is atomic and needs no machine lock).
func (r *Router) frequency(st *fnStats) int {
	now := r.p.M.Now()
	cutoff := now - r.cfg.Window
	keep := st.invocations[:0]
	for _, ts := range st.invocations {
		if ts >= cutoff {
			keep = append(keep, ts)
		}
	}
	st.invocations = keep
	return len(keep)
}

// Route decides the boot strategy for the next invocation of name.
func (r *Router) Route(name string) (System, error) {
	if _, err := r.p.Register(name); err != nil {
		return "", err
	}
	r.mu.Lock()
	st := r.fn(name)
	freq := r.frequency(st)
	prio := st.priority
	r.mu.Unlock()
	switch prio {
	case PriorityHigh:
		return CatalyzerSfork, nil
	case PriorityLow:
		if freq >= r.cfg.WarmThreshold {
			return CatalyzerZygote, nil
		}
		return CatalyzerRestore, nil
	}
	switch {
	case freq >= r.cfg.HotThreshold:
		return CatalyzerSfork, nil
	case freq >= r.cfg.WarmThreshold:
		return CatalyzerZygote, nil
	default:
		return CatalyzerRestore, nil
	}
}

// Invoke routes and serves one request, preparing whatever offline
// artifact the chosen strategy needs (charged to the offline clock of a
// scratch machine for images; template construction happens on the
// platform machine but off any request's critical path).
//
//lint:allow ctxflow context-first-entry waived: policy router drives synchronous virtual-time machine work (experiment harness, not a serving path)
func (r *Router) Invoke(name string) (*Result, error) {
	sys, err := r.Route(name)
	if err != nil {
		return nil, err
	}
	switch sys {
	case CatalyzerSfork:
		if _, err := r.p.PrepareTemplate(name); err != nil {
			return nil, err
		}
	default:
		if _, err := r.p.PrepareImage(name); err != nil {
			return nil, err
		}
	}
	res, err := r.p.Invoke(name, sys)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	st := r.fn(name)
	st.invocations = append(st.invocations, r.p.Now())
	r.mu.Unlock()
	return res, nil
}

// Frequency reports the function's current windowed invocation count.
func (r *Router) Frequency(name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.stats[name]
	if !ok {
		return 0
	}
	return r.frequency(st)
}
