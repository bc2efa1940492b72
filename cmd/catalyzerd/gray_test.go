package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"catalyzer"
)

// TestValidateFlags pins the daemon's flag validation: a negative
// zygote pool, fewer than one machine, a zone count outside
// 0..machines and a relative -fleet-store-dir are rejected before any
// machine is built.
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name       string
		zygotePool int
		machines   int
		zones      int
		storeDir   string
		wantErr    bool
	}{
		{"defaults", 4, 1, 0, "", false},
		{"single machine with store", 4, 1, 0, "/tmp/fleet", false},
		{"fleet with store", 4, 5, 0, "/tmp/fleet", false},
		{"relative store", 4, 5, 0, "fleet-store", true},
		{"negative zygote pool", -1, 1, 0, "", true},
		{"no machines", 4, 0, 0, "", true},
		{"fleet with zones", 4, 6, 3, "", false},
		{"negative zones", 4, 6, -1, "", true},
		{"more zones than machines", 4, 2, 3, "", true},
	}
	for _, c := range cases {
		err := validateFlags(c.zygotePool, c.machines, c.zones, c.storeDir)
		if (err != nil) != c.wantErr {
			t.Errorf("%s: validateFlags(%d, %d, %d, %q) = %v, wantErr=%v",
				c.name, c.zygotePool, c.machines, c.zones, c.storeDir, err, c.wantErr)
		}
	}
}

// TestFleetErrorStatusMapping pins the error → HTTP status table for
// the fleet's typed errors, including the gray-failure ones, and that
// fail() marks every retryable fleet 503 (and shed 429s) with a
// Retry-After hint.
func TestFleetErrorStatusMapping(t *testing.T) {
	cases := []struct {
		err        error
		code       int
		retryAfter bool
	}{
		{catalyzer.ErrBrownout, http.StatusServiceUnavailable, true},
		{catalyzer.ErrBudgetExhausted, http.StatusServiceUnavailable, true},
		{catalyzer.ErrMachineFlaky, http.StatusServiceUnavailable, true},
		{catalyzer.ErrNoSurvivors, http.StatusServiceUnavailable, true},
		{catalyzer.ErrMachineDown, http.StatusServiceUnavailable, true},
		{catalyzer.ErrMachineUnreachable, http.StatusServiceUnavailable, true},
		{catalyzer.ErrZoneDegraded, http.StatusServiceUnavailable, true},
		{catalyzer.ErrOverloaded, http.StatusTooManyRequests, true},
		{catalyzer.ErrNotDeployed, http.StatusNotFound, false},
		{catalyzer.ErrNotRegistered, http.StatusNotFound, false},
		{catalyzer.ErrUnknownSystem, http.StatusBadRequest, false},
	}
	for _, c := range cases {
		wrapped := fmt.Errorf("serving c-hello: %w", c.err)
		if got := statusOf(wrapped); got != c.code {
			t.Errorf("statusOf(%v) = %d, want %d", c.err, got, c.code)
		}
		rec := httptest.NewRecorder()
		fail(rec, wrapped)
		if rec.Code != c.code {
			t.Errorf("fail(%v) wrote %d, want %d", c.err, rec.Code, c.code)
		}
		if hasRetry := rec.Header().Get("Retry-After") != ""; hasRetry != c.retryAfter {
			t.Errorf("fail(%v) Retry-After present = %v, want %v", c.err, hasRetry, c.retryAfter)
		}
	}
}

// TestFleetInvokeBudgetExhaustedOverHTTP drives a real budget
// exhaustion through the fleet handler: with a one-token budget and a
// fully flaky fleet, /invoke answers a retryable 503 carrying
// Retry-After, and /metrics surfaces the budget accounting.
func TestFleetInvokeBudgetExhaustedOverHTTP(t *testing.T) {
	f := newFleet(t, catalyzer.FleetConfig{
		Machines: 3, Replication: 2, BudgetBurst: 1, BudgetRatio: 0.001,
	}, catalyzer.WithFaultSeed(11))
	srv := serve(t, f)

	if resp := post(t, srv, "/deploy?fn=c-hello"); resp.StatusCode != http.StatusOK {
		t.Fatalf("deploy status = %d", resp.StatusCode)
	}
	if err := f.ArmFault("machine-flaky", 1); err != nil {
		t.Fatal(err)
	}
	resp := post(t, srv, "/invoke?fn=c-hello")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("flaky invoke status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("retryable 503 is missing Retry-After")
	}

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var body struct {
		Fleet catalyzer.FleetStats `json:"fleet"`
	}
	if err := json.NewDecoder(mresp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Fleet.FlakyDispatches == 0 || body.Fleet.BudgetDenials == 0 {
		t.Fatalf("metrics missing gray counters: %+v", body.Fleet)
	}
}

// TestFleetHealthReportsBrownout ejects a gray machine under traffic
// and checks /health downgrades to 200 "brownout" with the ejected
// member listed, and /machines carries its ejected flag and score.
func TestFleetHealthReportsBrownout(t *testing.T) {
	f := newFleet(t, catalyzer.FleetConfig{
		Machines: 5, Replication: 2, MinEjectSamples: 3, ScoreWarmup: 4,
	}, catalyzer.WithFaultSeed(42))

	ctx := context.Background()
	funcs := []string{"c-hello", "java-hello", "nodejs-hello", "python-hello"}
	for _, fn := range funcs {
		if err := f.Deploy(ctx, fn); err != nil {
			t.Fatal(err)
		}
	}
	victim := f.Replicas("c-hello")[0]
	if err := f.ArmMachineFault(victim, "machine-gray-slow", 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400 && f.FleetStats().Ejections == 0; i++ {
		if _, err := f.Invoke(ctx, funcs[i%len(funcs)], catalyzer.ForkBoot); err != nil {
			t.Fatalf("invoke %d: %v", i, err)
		}
	}
	if f.FleetStats().Ejections == 0 {
		t.Fatalf("victim %d never ejected: %+v", victim, f.FleetStats())
	}

	srv := serve(t, f)
	hresp, err := http.Get(srv.URL + "/health")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("brownout health status = %d, want 200", hresp.StatusCode)
	}
	var health struct {
		Status  string `json:"status"`
		Ejected []int  `json:"ejected_machines"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "brownout" {
		t.Fatalf("health status = %q, want brownout", health.Status)
	}
	if len(health.Ejected) != 1 || health.Ejected[0] != victim {
		t.Fatalf("ejected_machines = %v, want [%d]", health.Ejected, victim)
	}

	mresp, err := http.Get(srv.URL + "/machines")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var machines []struct {
		Index   int     `json:"index"`
		Ejected bool    `json:"ejected"`
		ScoreMS float64 `json:"score_ms"`
	}
	if err := json.NewDecoder(mresp.Body).Decode(&machines); err != nil {
		t.Fatal(err)
	}
	if !machines[victim].Ejected || machines[victim].ScoreMS <= 0 {
		t.Fatalf("machine %d = %+v, want ejected with a positive score", victim, machines[victim])
	}
}
