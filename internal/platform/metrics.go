package platform

import (
	"fmt"
	"slices"

	"catalyzer/internal/simtime"
)

// Metrics aggregates invocation latencies for one label (a system, a
// policy, a function — caller's choice). It keeps every sample, so its
// percentiles are exact and its memory grows with the run: it is for
// batch code (experiments, load generation, examples). Recorders that
// live as long as the process use obs.Histogram instead.
type Metrics struct {
	Label   string
	samples []simtime.Duration
	byBoot  map[System]int
}

// NewMetrics returns an empty aggregator.
func NewMetrics(label string) *Metrics {
	return &Metrics{Label: label, byBoot: make(map[System]int)}
}

// Observe records one result's boot latency.
func (m *Metrics) Observe(r *Result) {
	m.samples = append(m.samples, r.BootLatency)
	m.byBoot[r.System]++
}

// ObserveDuration records a raw latency sample.
func (m *Metrics) ObserveDuration(d simtime.Duration) {
	m.samples = append(m.samples, d)
}

// Count returns the number of samples.
func (m *Metrics) Count() int { return len(m.samples) }

// BootMix returns how many invocations used each strategy.
func (m *Metrics) BootMix() map[System]int {
	out := make(map[System]int, len(m.byBoot))
	for k, v := range m.byBoot {
		out[k] = v
	}
	return out
}

// Percentile returns the p-th percentile (0 < p <= 100) of observed
// latency.
func (m *Metrics) Percentile(p float64) simtime.Duration {
	return m.Percentiles(p)[0]
}

// Percentiles returns Percentile for each of ps, sorting the samples
// once.
func (m *Metrics) Percentiles(ps ...float64) []simtime.Duration {
	out := make([]simtime.Duration, len(ps))
	if len(m.samples) == 0 {
		return out
	}
	sorted := slices.Clone(m.samples)
	slices.Sort(sorted)
	for i, p := range ps {
		idx := int(float64(len(sorted))*p/100+0.5) - 1
		out[i] = sorted[max(0, min(idx, len(sorted)-1))]
	}
	return out
}

// Mean returns the average latency.
func (m *Metrics) Mean() simtime.Duration {
	if len(m.samples) == 0 {
		return 0
	}
	var sum simtime.Duration
	for _, s := range m.samples {
		sum += s
	}
	return sum / simtime.Duration(len(m.samples))
}

// Max returns the worst latency.
func (m *Metrics) Max() simtime.Duration {
	var max simtime.Duration
	for _, s := range m.samples {
		if s > max {
			max = s
		}
	}
	return max
}

// String summarizes the distribution.
func (m *Metrics) String() string {
	p := m.Percentiles(50, 95, 99)
	return fmt.Sprintf("%s: n=%d mean=%v p50=%v p95=%v p99=%v max=%v",
		m.Label, m.Count(), m.Mean(), p[0], p[1], p[2], m.Max())
}
