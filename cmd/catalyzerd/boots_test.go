package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"catalyzer"
	"catalyzer/internal/platform"
	"catalyzer/internal/simtime"
)

// nsOf converts a wire millisecond value back to whole nanoseconds.
func nsOf(ms float64) simtime.Duration { return simtime.Duration(math.Round(ms * 1e6)) }

// TestMetricsBootsMatchResponses serves 2,000 mixed invocations through
// Handler and holds every /metrics "boots" row to the exact statistics
// of the boot_ms values the responses carried: count, mean and max are
// exact, and each percentile is never below the exact nearest-rank value
// and above it by less than 1/128 of it.
func TestMetricsBootsMatchResponses(t *testing.T) {
	h := Handler(newFleet(t, catalyzer.FleetConfig{Machines: 3}))
	do := func(method, path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", method, path, rec.Code, rec.Body)
		}
		return rec
	}
	fns := []string{"c-hello", "python-hello", "nodejs-hello"}
	for _, fn := range fns {
		do(http.MethodPost, "/deploy?fn="+fn)
	}

	kinds := []string{"fork", "fork", "fork", "warm", "cold"}
	rng := rand.New(rand.NewSource(1))
	exact := map[string]*platform.Metrics{}
	for i := 0; i < 2000; i++ {
		path := "/invoke?fn=" + fns[rng.Intn(len(fns))] + "&boot=" + kinds[rng.Intn(len(kinds))]
		var resp invokeResponse
		if err := json.NewDecoder(do(http.MethodPost, path).Body).Decode(&resp); err != nil {
			t.Fatal(err)
		}
		m, ok := exact[resp.ServedBy]
		if !ok {
			m = platform.NewMetrics(resp.ServedBy)
			exact[resp.ServedBy] = m
		}
		m.ObserveDuration(nsOf(resp.BootMS))
	}

	var out struct {
		Boots map[string]kindStats `json:"boots"`
	}
	if err := json.NewDecoder(do(http.MethodGet, "/metrics").Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Boots) != len(exact) {
		t.Fatalf("/metrics has %d boot kinds, responses served %d", len(out.Boots), len(exact))
	}
	for kind, m := range exact {
		got, ok := out.Boots[kind]
		if !ok {
			t.Fatalf("/metrics lacks boot kind %q", kind)
		}
		if got.Count != m.Count() || nsOf(got.MeanMS) != m.Mean() || nsOf(got.MaxMS) != m.Max() {
			t.Fatalf("%s: count/mean/max %d/%v/%v, exact %d/%v/%v", kind,
				got.Count, nsOf(got.MeanMS), nsOf(got.MaxMS), m.Count(), m.Mean(), m.Max())
		}
		want := m.Percentiles(50, 95, 99)
		for i, ms := range []float64{got.P50MS, got.P95MS, got.P99MS} {
			if g := nsOf(ms); g < want[i] || g-want[i] > want[i]/128 {
				t.Fatalf("%s: percentile %d = %v, exact %v: outside the 1/128 bound", kind, i, g, want[i])
			}
		}
	}
}
