package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"catalyzer"
)

func newFleetTestServer(t *testing.T) (*httptest.Server, *catalyzer.Fleet) {
	t.Helper()
	f := newFleet(t, catalyzer.FleetConfig{Machines: 3, Replication: 2})
	return serve(t, f), f
}

func TestFleetDeployInvokeAndMachines(t *testing.T) {
	srv, _ := newFleetTestServer(t)

	if resp := post(t, srv, "/deploy?fn=c-hello"); resp.StatusCode != http.StatusOK {
		t.Fatalf("deploy status = %d", resp.StatusCode)
	}
	resp := post(t, srv, "/invoke?fn=c-hello&boot=cold")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("invoke status = %d", resp.StatusCode)
	}
	var inv invokeResponse
	if err := json.NewDecoder(resp.Body).Decode(&inv); err != nil {
		t.Fatal(err)
	}
	if inv.Function != "c-hello" || inv.Boot != "cold" {
		t.Fatalf("body = %+v", inv)
	}
	if inv.Machine < 0 || inv.Machine >= 3 {
		t.Fatalf("machine = %d, want in [0,3)", inv.Machine)
	}

	// Invoking a never-deployed (but known) function is the caller's 404.
	if resp := post(t, srv, "/invoke?fn=java-hello"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("undeployed invoke = %d, want 404", resp.StatusCode)
	}

	mresp, err := http.Get(srv.URL + "/machines")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var machines []struct {
		Index int    `json:"index"`
		State string `json:"state"`
	}
	if err := json.NewDecoder(mresp.Body).Decode(&machines); err != nil {
		t.Fatal(err)
	}
	if len(machines) != 3 {
		t.Fatalf("machines = %+v", machines)
	}
	for _, m := range machines {
		if m.State != "up" {
			t.Fatalf("machine %d state = %s", m.Index, m.State)
		}
	}
}

func TestFleetKillDegradesHealthAndFailsOver(t *testing.T) {
	srv, f := newFleetTestServer(t)
	post(t, srv, "/deploy?fn=c-hello")

	if resp := post(t, srv, "/machines/kill"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("kill without idx = %d", resp.StatusCode)
	}
	if resp := post(t, srv, "/machines/kill?idx=9"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("kill out of range = %d", resp.StatusCode)
	}
	if resp := post(t, srv, "/machines/kill?idx=0"); resp.StatusCode != http.StatusOK {
		t.Fatalf("kill = %d", resp.StatusCode)
	}

	hresp, err := http.Get(srv.URL + "/health")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("health with a dead machine = %d, want 503", hresp.StatusCode)
	}
	var health struct {
		Status       string `json:"status"`
		Up           int    `json:"up"`
		DownMachines []int  `json:"down_machines"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "degraded" || health.Up != 2 || len(health.DownMachines) != 1 || health.DownMachines[0] != 0 {
		t.Fatalf("health body = %+v", health)
	}

	// Survivors keep serving: k=1 < R=2 lost no function.
	if resp := post(t, srv, "/invoke?fn=c-hello&boot=cold"); resp.StatusCode != http.StatusOK {
		t.Fatalf("invoke after kill = %d", resp.StatusCode)
	}

	// Kill everything: machine-level exhaustion is a retryable 503.
	post(t, srv, "/machines/kill?idx=1")
	post(t, srv, "/machines/kill?idx=2")
	if resp := post(t, srv, "/invoke?fn=c-hello&boot=cold"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("invoke with no survivors = %d, want 503", resp.StatusCode)
	}

	// Restart the fleet: health recovers and serving resumes.
	for i := 0; i < 3; i++ {
		if resp := post(t, srv, "/machines/restart?idx="+string(rune('0'+i))); resp.StatusCode != http.StatusOK {
			t.Fatalf("restart %d = %d", i, resp.StatusCode)
		}
	}
	hresp2, err := http.Get(srv.URL + "/health")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp2.Body.Close()
	if hresp2.StatusCode != http.StatusOK {
		t.Fatalf("health after restart = %d, want 200", hresp2.StatusCode)
	}
	if resp := post(t, srv, "/invoke?fn=c-hello&boot=cold"); resp.StatusCode != http.StatusOK {
		t.Fatalf("invoke after restart = %d", resp.StatusCode)
	}
	if st := f.FleetStats(); st.Up != 3 || st.Crashes < 3 || st.Rejoins < 3 {
		t.Fatalf("fleet stats after restart: %+v", st)
	}
}

func TestFleetMetricsCarriesFleetSection(t *testing.T) {
	srv, _ := newFleetTestServer(t)
	post(t, srv, "/deploy?fn=c-hello")
	post(t, srv, "/invoke?fn=c-hello&boot=fork")
	post(t, srv, "/machines/kill?idx=2")

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Boots map[string]struct {
			Count int `json:"count"`
		} `json:"boots"`
		Fleet catalyzer.FleetStats `json:"fleet"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Boots["fork"].Count != 1 {
		t.Fatalf("boots = %+v", body.Boots)
	}
	fm := body.Fleet
	if fm.Machines != 3 || fm.Up != 2 || fm.Down != 1 || fm.Deployed != 1 || fm.Crashes != 1 {
		t.Fatalf("fleet metrics = %+v", fm)
	}
	if len(fm.Served) != 3 || len(fm.Live) != 3 {
		t.Fatalf("per-machine vectors = %+v", fm)
	}
	total := 0
	for _, s := range fm.Served {
		total += s
	}
	if total != 1 {
		t.Fatalf("served vector %v does not sum to 1", fm.Served)
	}
}
