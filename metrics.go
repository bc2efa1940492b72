package catalyzer

import (
	"slices"
	"sync"

	"catalyzer/internal/platform"
)

// KindStats summarizes the invocations a fleet has served with one boot
// kind.
type KindStats struct {
	Count    int
	MeanBoot Duration
	P50Boot  Duration
	P95Boot  Duration
	P99Boot  Duration
	MaxBoot  Duration
}

// statsCollector accumulates a Fleet's per-kind boot metrics. It has its
// own mutex so stats never contend with the machines' locks.
type statsCollector struct {
	mu     sync.Mutex
	byKind map[BootKind]*platform.Metrics
}

func newStatsCollector() *statsCollector {
	return &statsCollector{byKind: make(map[BootKind]*platform.Metrics)}
}

func (sc *statsCollector) observe(kind BootKind, boot Duration) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	m, ok := sc.byKind[kind]
	if !ok {
		m = platform.NewMetrics(string(kind))
		sc.byKind[kind] = m
	}
	m.ObserveDuration(boot)
}

// snapshot returns the per-kind boot latency distributions collected so
// far.
func (sc *statsCollector) snapshot() map[BootKind]KindStats {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	out := make(map[BootKind]KindStats, len(sc.byKind))
	for kind, m := range sc.byKind {
		p := m.Percentiles(50, 95, 99)
		out[kind] = KindStats{
			Count:    m.Count(),
			MeanBoot: m.Mean(),
			P50Boot:  p[0],
			P95Boot:  p[1],
			P99Boot:  p[2],
			MaxBoot:  m.Max(),
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
