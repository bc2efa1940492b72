package main

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sync"
	"testing"
	"time"

	"catalyzer"
)

// overloadSection decodes /metrics' overload block.
type overloadSection struct {
	Admitted   int            `json:"admitted"`
	Shed       int            `json:"shed"`
	Expired    int            `json:"expired"`
	Canceled   int            `json:"canceled"`
	InFlight   int            `json:"in_flight"`
	QueueDepth int            `json:"queue_depth"`
	QueuePeak  int            `json:"queue_peak"`
	PerFn      map[string]int `json:"in_flight_per_function"`
	Draining   bool           `json:"draining"`
}

func getOverload(t *testing.T, url string) overloadSection {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Overload overloadSection `json:"overload"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Overload
}

func TestWrongMethodIs405WithAllow(t *testing.T) {
	srv := newTestServer(t)
	resp, err := http.Get(srv.URL + "/invoke?fn=c-hello")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /invoke = %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); allow != "POST" {
		t.Fatalf("Allow = %q, want POST", allow)
	}
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/health", nil)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /health = %d, want 405", resp2.StatusCode)
	}
}

func TestShedRequestGets429WithRetryAfter(t *testing.T) {
	forEachSize(t, func(t *testing.T, machines int) {
		f := newFleet(t, catalyzer.FleetConfig{Machines: machines},
			catalyzer.WithAdmission(catalyzer.AdmissionConfig{MaxConcurrent: 1}))
		srv := serve(t, f)
		post(t, srv, "/deploy?fn=c-hello")

		// Keep the only slot busy with invocations driven through the fleet
		// (the daemon shares it), then invoke over HTTP until one is shed.
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := f.Invoke(context.Background(), "c-hello", catalyzer.ForkBoot); err != nil && !errors.Is(err, catalyzer.ErrOverloaded) {
					t.Errorf("background invoke: %v", err)
					return
				}
			}
		}()
		code, retryAfter := 0, ""
		for deadline := time.Now().Add(10 * time.Second); code != http.StatusTooManyRequests && time.Now().Before(deadline); {
			resp, err := http.Post(srv.URL+"/invoke?fn=c-hello&boot=fork", "", nil)
			if err != nil {
				t.Error(err)
				break
			}
			resp.Body.Close()
			code, retryAfter = resp.StatusCode, resp.Header.Get("Retry-After")
			if code != http.StatusOK && code != http.StatusTooManyRequests {
				t.Errorf("invoke = %d, want 200 or 429", code)
				break
			}
		}
		close(stop)
		wg.Wait()
		if code != http.StatusTooManyRequests {
			t.Fatalf("no invoke was shed at capacity (last status %d)", code)
		}
		if retryAfter == "" {
			t.Fatal("429 without Retry-After")
		}

		ov := getOverload(t, srv.URL)
		if ov.Shed < 1 {
			t.Fatalf("overload metrics after shed: %+v", ov)
		}
		if ov.InFlight != 0 {
			t.Fatalf("in-flight after completion: %+v", ov)
		}
	})
}

func TestDeadlineParameter(t *testing.T) {
	forEachSize(t, func(t *testing.T, machines int) {
		srv := serve(t, newFleet(t, catalyzer.FleetConfig{Machines: machines}))
		post(t, srv, "/deploy?fn=c-hello")

		// A nanosecond deadline expires before admission: 504.
		resp := post(t, srv, "/invoke?fn=c-hello&boot=fork&deadline_ms=0.000001")
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("expired deadline = %d, want 504", resp.StatusCode)
		}
		// A generous deadline serves normally.
		resp2 := post(t, srv, "/invoke?fn=c-hello&boot=fork&deadline_ms=30000")
		if resp2.StatusCode != http.StatusOK {
			t.Fatalf("generous deadline = %d, want 200", resp2.StatusCode)
		}
		// Malformed deadlines are the caller's 400.
		for _, bad := range []string{"nope", "-5", "0", "NaN"} {
			resp := post(t, srv, "/invoke?fn=c-hello&boot=fork&deadline_ms="+bad)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("deadline_ms=%s = %d, want 400", bad, resp.StatusCode)
			}
		}
		ov := getOverload(t, srv.URL)
		if ov.Expired < 1 {
			t.Fatalf("overload metrics after expiry: %+v", ov)
		}
	})
}

func TestDrainFlipsHealthAndRejectsWork(t *testing.T) {
	forEachSize(t, func(t *testing.T, machines int) {
		c := newFleet(t, catalyzer.FleetConfig{Machines: machines})
		srv := serve(t, c)
		post(t, srv, "/deploy?fn=c-hello")
		if resp := post(t, srv, "/invoke?fn=c-hello&boot=fork"); resp.StatusCode != http.StatusOK {
			t.Fatalf("pre-drain invoke = %d", resp.StatusCode)
		}

		c.BeginDrain()

		code, h := getHealth(t, srv.URL)
		if code != http.StatusServiceUnavailable || h.Status != "draining" {
			t.Fatalf("draining health = %d %+v", code, h)
		}
		if resp := post(t, srv, "/invoke?fn=c-hello&boot=fork"); resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("invoke during drain = %d, want 503", resp.StatusCode)
		}
		ov := getOverload(t, srv.URL)
		if !ov.Draining {
			t.Fatalf("overload metrics not draining: %+v", ov)
		}
		// With nothing in flight the drain completes immediately.
		if err := c.Drain(nil); err != nil {
			t.Fatalf("drain: %v", err)
		}
	})
}

func TestOverloadMetricsGauges(t *testing.T) {
	forEachSize(t, func(t *testing.T, machines int) {
		srv := serve(t, newFleet(t, catalyzer.FleetConfig{Machines: machines},
			catalyzer.WithAdmission(catalyzer.AdmissionConfig{
				MaxConcurrent: 4, MaxPerFunction: 2, QueueDepth: 8,
			})))
		post(t, srv, "/deploy?fn=c-hello")
		for i := 0; i < 3; i++ {
			if resp := post(t, srv, "/invoke?fn=c-hello&boot=fork"); resp.StatusCode != http.StatusOK {
				t.Fatalf("invoke %d = %d", i, resp.StatusCode)
			}
		}
		ov := getOverload(t, srv.URL)
		if ov.Admitted < 3 || ov.InFlight != 0 || ov.QueueDepth != 0 {
			t.Fatalf("overload metrics = %+v", ov)
		}
		if len(ov.PerFn) != 0 {
			t.Fatalf("per-function gauge should be empty at rest: %+v", ov.PerFn)
		}
	})
}
