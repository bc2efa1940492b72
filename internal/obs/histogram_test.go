package obs

import (
	"math/rand"
	"testing"

	"catalyzer/internal/platform"
	"catalyzer/internal/simtime"
)

// percentiles is the set every comparison reads: the nearest-rank
// extremes, the quartiles and the tails.
var percentiles = []float64{0.1, 1, 5, 25, 50, 75, 90, 95, 99, 99.9, 100}

// within reports whether got is within the bound Histogram documents
// of the exact value want: never below it, and above it by less than
// 1/128 of it.
func within(got, want simtime.Duration) bool {
	return got >= want && got-want <= want/128
}

// compare observes samples into a Histogram and a platform.Metrics and
// checks every percentile against the exact one, and count, mean and
// max for equality.
func compare(t *testing.T, name string, samples []simtime.Duration) {
	t.Helper()
	var h Histogram
	exact := platform.NewMetrics(name)
	for _, s := range samples {
		h.Observe(s)
		exact.ObserveDuration(s)
	}
	if h.Count() != exact.Count() || h.Mean() != exact.Mean() || h.Max() != exact.Max() {
		t.Fatalf("%s: count/mean/max %d/%v/%v, exact %d/%v/%v",
			name, h.Count(), h.Mean(), h.Max(), exact.Count(), exact.Mean(), exact.Max())
	}
	want := exact.Percentiles(percentiles...)
	for i, p := range percentiles {
		if got := h.Percentile(p); !within(got, want[i]) {
			t.Fatalf("%s: p%v = %d, exact %d (off by %d, bound %d)",
				name, p, got, want[i], got-want[i], want[i]/128)
		}
	}
}

func TestPercentilesWithinBoundOfExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(2000)
		samples := make([]simtime.Duration, n)
		// Log-uniform magnitudes up to 2^62, so every bucket scale is
		// exercised, plus a narrow cluster to fill single buckets.
		for i := range samples {
			if rng.Intn(4) == 0 {
				samples[i] = simtime.Duration(700_000 + rng.Intn(5_000))
			} else {
				samples[i] = simtime.Duration(rng.Int63n(1 << uint(1+rng.Intn(62))))
			}
		}
		compare(t, "random", samples)
	}
}

func TestPercentilesEdgeCases(t *testing.T) {
	var pow2, edges, top []simtime.Duration
	for e := 0; e < 63; e++ {
		v := simtime.Duration(1) << e
		pow2 = append(pow2, v)
		// Bucket edges: each power of two and its neighbours, and the
		// last value of the first sub-bucket above it.
		edges = append(edges, v-1, v, v+1, v+v/subCount)
	}
	for i := 0; i < 100; i++ {
		top = append(top, simtime.Duration(1)<<62-simtime.Duration(i*977), simtime.Duration(1)<<62+simtime.Duration(i*977))
	}
	allEqual := make([]simtime.Duration, 1000)
	for i := range allEqual {
		allEqual[i] = 1_234_567
	}
	compare(t, "all equal", allEqual)
	compare(t, "zeros", make([]simtime.Duration, 50))
	compare(t, "single zero", []simtime.Duration{0})
	compare(t, "single", []simtime.Duration{987_654_321})
	compare(t, "exact range", []simtime.Duration{0, 1, 2, 127, 128, 129, 255})
	compare(t, "powers of two", pow2)
	compare(t, "bucket edges", edges)
	compare(t, "near 2^62", top)
	compare(t, "max int64", []simtime.Duration{1<<63 - 1, 1<<63 - 2, 1 << 62})
}

// TestMaxBucketReadsExactly checks the clamp: a percentile whose bucket
// holds only the max reports the max itself, not the bucket's edge.
func TestMaxBucketReadsExactly(t *testing.T) {
	var h Histogram
	for i := 0; i < 99; i++ {
		h.Observe(1_000_000)
	}
	h.Observe(41_306_220)
	if got := h.Percentile(100); got != 41_306_220 {
		t.Fatalf("p100 = %d, want the exact max 41306220", got)
	}
	if got := h.Percentile(50); !within(got, 1_000_000) {
		t.Fatalf("p50 = %d, want within bound of 1000000", got)
	}
}

func TestEmptyHistogramReadsZero(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Max() != 0 || h.Percentile(50) != 0 {
		t.Fatalf("empty histogram: count %d mean %v max %v p50 %v", h.Count(), h.Mean(), h.Max(), h.Percentile(50))
	}
}

func TestObserveAllocatesNothing(t *testing.T) {
	h := new(Histogram)
	d := simtime.Duration(1)
	if allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(d)
		d = d*3 + 7
	}); allocs != 0 {
		t.Fatalf("Observe allocates %v times per call, want 0", allocs)
	}
}

// TestMillionObservationsKeepMemoryConstant observes a million distinct
// values: nothing is allocated, so the histogram's memory is its fixed
// bucket array however long it records.
func TestMillionObservationsKeepMemoryConstant(t *testing.T) {
	h := new(Histogram)
	rng := rand.New(rand.NewSource(2))
	if allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 1_000_000; i++ {
			h.Observe(simtime.Duration(rng.Int63n(1 << 40)))
		}
	}); allocs != 0 {
		t.Fatalf("a million observations allocated %v times, want 0", allocs)
	}
	// AllocsPerRun runs the function once to warm up and once measured.
	if h.Count() != 2_000_000 {
		t.Fatalf("Count = %d, want 2000000", h.Count())
	}
}

func BenchmarkObserve(b *testing.B) {
	h := new(Histogram)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(simtime.Duration(i) * 977)
	}
}
