package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"catalyzer"
)

// TestFleetNoSurvivorsOverHTTPRetryAfter pins the daemon's behavior
// when the whole fleet is gone: /invoke answers a retryable 503 that
// carries Retry-After, not a bare 503, so well-behaved clients back off
// instead of hammering a fleet that is mid-restart.
func TestFleetNoSurvivorsOverHTTPRetryAfter(t *testing.T) {
	f, err := catalyzer.NewFleet(catalyzer.FleetConfig{Machines: 2, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	srv := httptest.NewServer(FleetHandler(f))
	t.Cleanup(srv.Close)

	if resp := post(t, srv, "/deploy?fn=c-hello"); resp.StatusCode != http.StatusOK {
		t.Fatalf("deploy status = %d", resp.StatusCode)
	}
	if resp := post(t, srv, "/machines/kill?idx=0"); resp.StatusCode != http.StatusOK {
		t.Fatalf("kill 0 status = %d", resp.StatusCode)
	}
	if resp := post(t, srv, "/machines/kill?idx=1"); resp.StatusCode != http.StatusOK {
		t.Fatalf("kill 1 status = %d", resp.StatusCode)
	}
	resp := post(t, srv, "/invoke?fn=c-hello")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("no-survivors invoke status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("no-survivors 503 is missing Retry-After")
	}
}

// TestFleetZoneDegradedOverHTTP drives a scripted whole-fleet zone
// outage through the daemon: /invoke answers the retryable 503 with
// Retry-After while the fleet heals, /machines labels every member with
// its zone, /health summarizes membership per zone, and /metrics
// carries the zone and repair-budget counters.
func TestFleetZoneDegradedOverHTTP(t *testing.T) {
	f, err := catalyzer.NewFleet(catalyzer.FleetConfig{
		Machines: 4, Replication: 2, Zones: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	srv := httptest.NewServer(FleetHandler(f))
	t.Cleanup(srv.Close)

	if resp := post(t, srv, "/deploy?fn=c-hello"); resp.StatusCode != http.StatusOK {
		t.Fatalf("deploy status = %d", resp.StatusCode)
	}

	sc := catalyzer.NewScenario()
	sc.At(0).ZoneDown("z0", "z1")
	sc.At(time.Hour).Heal()
	if err := f.InstallScenario(sc); err != nil {
		t.Fatal(err)
	}

	resp := post(t, srv, "/invoke?fn=c-hello")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("zone-degraded invoke status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("zone-degraded 503 is missing Retry-After")
	}

	mresp, err := http.Get(srv.URL + "/machines")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var machines []struct {
		Index int    `json:"index"`
		Zone  string `json:"zone"`
		State string `json:"state"`
	}
	if err := json.NewDecoder(mresp.Body).Decode(&machines); err != nil {
		t.Fatal(err)
	}
	for _, m := range machines {
		if want := []string{"z0", "z1"}[m.Index%2]; m.Zone != want {
			t.Fatalf("machine %d zone = %q, want %q", m.Index, m.Zone, want)
		}
		if m.State != "down" {
			t.Fatalf("machine %d state = %q after full-fleet zone kill, want down", m.Index, m.State)
		}
	}

	hresp, err := http.Get(srv.URL + "/health")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("health status = %d with both zones down, want 503", hresp.StatusCode)
	}
	var health struct {
		Status string `json:"status"`
		Zones  []struct {
			Zone string `json:"zone"`
			Up   int    `json:"up"`
			Down int    `json:"down"`
		} `json:"zones"`
		ZonesDown int `json:"zones_down"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "degraded" || health.ZonesDown != 2 {
		t.Fatalf("health = %+v, want degraded with 2 zones down", health)
	}
	if len(health.Zones) != 2 || health.Zones[0].Zone != "z0" || health.Zones[0].Down != 2 || health.Zones[1].Down != 2 {
		t.Fatalf("per-zone summary = %+v, want z0/z1 each with 2 down", health.Zones)
	}

	xresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer xresp.Body.Close()
	var body struct {
		Fleet catalyzer.FleetStats `json:"fleet"`
	}
	if err := json.NewDecoder(xresp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Fleet.Zones != 2 || body.Fleet.ZonesDown != 2 || body.Fleet.ScenarioSteps != 1 {
		t.Fatalf("metrics missing zone counters: %+v", body.Fleet)
	}
	if body.Fleet.ZoneDegradedErrors == 0 {
		t.Fatalf("zone-degraded 503 not counted in metrics: %+v", body.Fleet)
	}
}
