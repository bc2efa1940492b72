package catalyzer

import (
	"slices"
	"sync"

	"catalyzer/internal/obs"
)

// KindStats summarizes the invocations a fleet has served with one boot
// kind. Count, MeanBoot and MaxBoot are exact. The percentiles come from
// a fixed-size histogram: each is never below the exact nearest-rank
// value and exceeds it by less than 1/128 of it, so recording costs the
// same memory however long the fleet serves. Batch code that needs exact
// percentiles keeps its own samples (platform.Metrics).
type KindStats struct {
	Count    int
	MeanBoot Duration
	P50Boot  Duration
	P95Boot  Duration
	P99Boot  Duration
	MaxBoot  Duration
}

// statsCollector accumulates a Fleet's per-kind boot latency histograms.
// It has its own mutex so stats never contend with the machines' locks.
type statsCollector struct {
	mu     sync.Mutex
	byKind map[BootKind]*obs.Histogram
}

func newStatsCollector() *statsCollector {
	return &statsCollector{byKind: make(map[BootKind]*obs.Histogram)}
}

func (sc *statsCollector) observe(kind BootKind, boot Duration) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	h, ok := sc.byKind[kind]
	if !ok {
		h = new(obs.Histogram)
		sc.byKind[kind] = h
	}
	h.Observe(boot)
}

// snapshot returns the per-kind boot latency distributions collected so
// far.
func (sc *statsCollector) snapshot() map[BootKind]KindStats {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	out := make(map[BootKind]KindStats, len(sc.byKind))
	for kind, h := range sc.byKind {
		out[kind] = KindStats{
			Count:    h.Count(),
			MeanBoot: h.Mean(),
			P50Boot:  h.Percentile(50),
			P95Boot:  h.Percentile(95),
			P99Boot:  h.Percentile(99),
			MaxBoot:  h.Max(),
		}
	}
	return out
}

// kinds returns the kinds with recorded invocations, sorted.
func (sc *statsCollector) kinds() []BootKind {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	out := make([]BootKind, 0, len(sc.byKind))
	for k := range sc.byKind {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}
