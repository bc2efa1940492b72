// Package obs holds the bounded-memory statistics that live serving
// records: a fixed-bucket latency histogram whose size does not grow
// with the number of observations.
//
// Batch code (experiments, load generators, examples) keeps exact
// samples in platform.Metrics instead; a Histogram is for recorders
// that live as long as the process.
package obs

import (
	"math/bits"

	"catalyzer/internal/simtime"
)

// subBits is the number of mantissa bits each power-of-two range is
// split by. Values below 1<<(subBits+1) get a bucket each; above that a
// bucket spans at most 1/(1<<subBits) of its lower edge.
const subBits = 7

const (
	subCount = 1 << subBits
	// numBuckets covers every non-negative int64: the largest value has
	// bit length 63, so its shift is 63-(subBits+1) and its bucket
	// index shift*subCount + (2*subCount-1).
	numBuckets = (63-subBits-1)*subCount + 2*subCount
)

// Histogram is a log-linear histogram of virtual durations. Values
// below 256 ns are recorded exactly; larger values fall in buckets at
// most 1/128 of their lower edge wide, and a percentile reports its
// bucket's highest value, so it is never below the exact nearest-rank
// sample and exceeds it by less than 1/128 of it. Count, sum (so the
// mean) and max are exact. Observe is O(1) and allocates nothing, a
// percentile walks at most the 57 power-of-two range sums and one
// range's 128 buckets, and the memory is fixed (about 57 KiB).
// The zero value is empty and ready to use; a Histogram is not safe for
// concurrent use.
type Histogram struct {
	counts [numBuckets]uint64
	// groups[g] sums counts[g*subCount:(g+1)*subCount], so a percentile
	// skips whole power-of-two ranges before it walks one's buckets.
	groups [numBuckets / subCount]uint64
	n      int
	sum    simtime.Duration
	max    simtime.Duration
}

// bucketOf returns the bucket index of v (v >= 0).
func bucketOf(v uint64) int {
	shift := max(0, bits.Len64(v)-subBits-1)
	return shift*subCount + int(v>>shift)
}

// highest returns the value a bucket reports: the largest value in it.
func highest(idx int) simtime.Duration {
	shift := max(0, idx/subCount-1)
	return simtime.Duration((uint64(idx-shift*subCount+1) << shift) - 1)
}

// Observe records one duration. A negative duration counts toward the
// sum but is bucketed as 0; virtual latencies are never negative.
func (h *Histogram) Observe(d simtime.Duration) {
	h.n++
	h.sum += d
	h.max = max(h.max, d)
	idx := bucketOf(uint64(max(d, 0)))
	h.counts[idx]++
	h.groups[idx/subCount]++
}

// Count returns the number of observations.
func (h *Histogram) Count() int { return h.n }

// Mean returns the exact average duration (0 when empty).
func (h *Histogram) Mean() simtime.Duration {
	if h.n == 0 {
		return 0
	}
	return h.sum / simtime.Duration(h.n)
}

// Max returns the exact largest duration (0 when empty).
func (h *Histogram) Max() simtime.Duration { return h.max }

// Percentile returns the p-th percentile (0 < p <= 100) by the
// nearest-rank rule platform.Metrics uses, as the highest value of the
// bucket holding that rank, clamped to the exact max (so a bucket
// holding only the max reads exactly). It returns 0 when empty.
func (h *Histogram) Percentile(p float64) simtime.Duration {
	if h.n == 0 {
		return 0
	}
	rank := uint64(max(0, min(int(float64(h.n)*p/100+0.5)-1, h.n-1))) + 1
	var seen uint64
	for g, gc := range h.groups {
		if seen+gc < rank {
			seen += gc
			continue
		}
		for idx := g * subCount; ; idx++ {
			if seen += h.counts[idx]; seen >= rank {
				return min(highest(idx), h.max)
			}
		}
	}
	return h.max
}
