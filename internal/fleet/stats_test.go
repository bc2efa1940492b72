package fleet

import (
	"fmt"
	"math/rand"
	"testing"

	"catalyzer/internal/simtime"
)

// observeLatencies feeds n effective invocation latencies between 0.5 ms
// and 40 ms into f's latency histogram, as Invoke would.
func observeLatencies(f *Fleet, n int) {
	rng := rand.New(rand.NewSource(int64(n)))
	for i := 0; i < n; i++ {
		f.lat.Observe(simtime.Duration(500_000 + rng.Int63n(39_500_000)))
	}
}

// TestStatsCostIndependentOfHistory holds Stats to the same allocations
// after a million invocations as after a thousand: the latency digest is
// a fixed histogram, not a history that Stats copies and sorts.
func TestStatsCostIndependentOfHistory(t *testing.T) {
	allocsAfter := func(n int) float64 {
		f, _ := stubFleet(10, 0)
		observeLatencies(f, n)
		return testing.AllocsPerRun(10, func() { _ = f.Stats() })
	}
	if few, many := allocsAfter(1_000), allocsAfter(1_000_000); few != many {
		t.Fatalf("Stats allocates %v times after 10^3 invocations but %v after 10^6", few, many)
	}
}

// statsSink keeps BenchmarkStats's result live.
var statsSink Stats

// BenchmarkStats times one Stats read on a 10-machine stub fleet after
// 10^3 and after 10^6 recorded invocations; the two cost the same.
func BenchmarkStats(b *testing.B) {
	for _, n := range []int{1_000, 1_000_000} {
		b.Run(fmt.Sprintf("observations=%d", n), func(b *testing.B) {
			f, _ := stubFleet(10, 0)
			observeLatencies(f, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				statsSink = f.Stats()
			}
		})
	}
}
