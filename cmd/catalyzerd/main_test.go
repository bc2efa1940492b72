package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"catalyzer"
	"catalyzer/internal/simtime"
	"catalyzer/internal/workload"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(Handler(catalyzer.NewClient()))
	t.Cleanup(srv.Close)
	return srv
}

func post(t *testing.T, srv *httptest.Server, path string) *http.Response {
	t.Helper()
	resp, err := http.Post(srv.URL+path, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestDeployAndInvoke(t *testing.T) {
	srv := newTestServer(t)

	if resp := post(t, srv, "/deploy?fn=c-hello"); resp.StatusCode != http.StatusOK {
		t.Fatalf("deploy status = %d", resp.StatusCode)
	}
	resp := post(t, srv, "/invoke?fn=c-hello&boot=fork")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("invoke status = %d", resp.StatusCode)
	}
	var body invokeResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Function != "c-hello" || body.Boot != "fork" {
		t.Fatalf("body = %+v", body)
	}
	if body.BootMS <= 0 || body.BootMS >= 1 {
		t.Fatalf("fork boot = %.3fms, want sub-millisecond", body.BootMS)
	}
	if body.TotalMS < body.BootMS+body.ExecMS-0.001 {
		t.Fatalf("total %.3f != boot %.3f + exec %.3f", body.TotalMS, body.BootMS, body.ExecMS)
	}
	if len(body.PhasesMS) == 0 {
		t.Fatal("no phases reported")
	}
}

func TestInvokeDefaultsToFork(t *testing.T) {
	srv := newTestServer(t)
	post(t, srv, "/deploy?fn=c-hello")
	resp := post(t, srv, "/invoke?fn=c-hello")
	var body invokeResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Boot != string(catalyzer.ForkBoot) {
		t.Fatalf("default boot = %s", body.Boot)
	}
}

func TestErrorStatuses(t *testing.T) {
	srv := newTestServer(t)
	if resp := post(t, srv, "/deploy"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("deploy without fn = %d", resp.StatusCode)
	}
	if resp := post(t, srv, "/deploy?fn=not-a-function"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("deploy unknown fn = %d", resp.StatusCode)
	}
	// An unknown function is the caller's 404, not a generic 400.
	if resp := post(t, srv, "/invoke?fn=c-hello&boot=fork"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("invoke before deploy = %d", resp.StatusCode)
	}
	if resp := post(t, srv, "/invoke"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invoke without fn = %d", resp.StatusCode)
	}
	post(t, srv, "/deploy?fn=c-hello")
	if resp := post(t, srv, "/invoke?fn=c-hello&boot=nonsense"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invoke bogus boot = %d", resp.StatusCode)
	}
}

func TestFunctionsEndpoint(t *testing.T) {
	srv := newTestServer(t)
	resp, err := http.Get(srv.URL + "/functions")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var fns []string
	if err := json.NewDecoder(resp.Body).Decode(&fns); err != nil {
		t.Fatal(err)
	}
	if len(fns) < 25 {
		t.Fatalf("functions = %d", len(fns))
	}
	found := false
	for _, f := range fns {
		if f == "java-specjbb" {
			found = true
		}
	}
	if !found {
		t.Fatal("java-specjbb missing from /functions")
	}
}

func TestStatsEndpoint(t *testing.T) {
	srv := newTestServer(t)
	post(t, srv, "/deploy?fn=c-hello")
	post(t, srv, "/invoke?fn=c-hello&boot=fork")

	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats map[string]float64
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats["virtual_clock_ms"] <= 0 {
		t.Fatalf("stats = %v", stats)
	}
	// Templates stay alive; transient request instances are released.
	if stats["live_instances"] < 1 {
		t.Fatalf("live = %v, want template running", stats["live_instances"])
	}
}

func TestMetricsEndpoint(t *testing.T) {
	srv := newTestServer(t)
	post(t, srv, "/deploy?fn=c-hello")
	post(t, srv, "/invoke?fn=c-hello&boot=fork")
	post(t, srv, "/invoke?fn=c-hello&boot=fork")
	post(t, srv, "/invoke?fn=c-hello&boot=cold")

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Boots map[string]struct {
			Count  int     `json:"count"`
			MeanMS float64 `json:"mean_ms"`
			P99MS  float64 `json:"p99_ms"`
		} `json:"boots"`
		Failures struct {
			BootFailures map[string]int    `json:"boot_failures"`
			Retries      int               `json:"retries"`
			Breakers     map[string]string `json:"breakers"`
		} `json:"failures"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Boots["fork"].Count != 2 || out.Boots["cold"].Count != 1 {
		t.Fatalf("metrics = %+v", out)
	}
	if out.Boots["fork"].MeanMS <= 0 || out.Boots["fork"].MeanMS >= out.Boots["cold"].MeanMS {
		t.Fatalf("fork mean %.3f vs cold mean %.3f", out.Boots["fork"].MeanMS, out.Boots["cold"].MeanMS)
	}
	// A clean run reports an untouched failure section.
	if out.Failures.Retries != 0 || len(out.Failures.BootFailures) != 0 {
		t.Fatalf("failure metrics dirty on clean run: %+v", out.Failures)
	}
}

type healthResponse struct {
	Status               string   `json:"status"`
	LiveInstances        int      `json:"live_instances"`
	OpenBreakers         []string `json:"open_breakers"`
	TemplatesQuarantined int      `json:"templates_quarantined"`
	ImagesQuarantined    int      `json:"images_quarantined"`
}

func getHealth(t *testing.T, url string) (int, healthResponse) {
	t.Helper()
	resp, err := http.Get(url + "/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h healthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, h
}

func TestHealthEndpoint(t *testing.T) {
	srv := newTestServer(t)
	code, h := getHealth(t, srv.URL)
	if code != http.StatusOK || h.Status != "ok" {
		t.Fatalf("fresh daemon health = %d %+v", code, h)
	}
}

func TestHealthDegradesWithOpenBreaker(t *testing.T) {
	c := catalyzer.NewClient(catalyzer.WithFaultSeed(1))
	cfg := catalyzer.DefaultRecoveryConfig()
	cfg.MaxRetries = 0
	cfg.BreakerThreshold = 2
	cfg.QuarantineThreshold = 100
	c.SetRecoveryConfig(cfg)
	srv := httptest.NewServer(Handler(c))
	t.Cleanup(srv.Close)

	post(t, srv, "/deploy?fn=c-hello")
	if err := c.ArmFault("sfork", 1); err != nil {
		t.Fatal(err)
	}
	// Two failing sfork stages open the fork breaker; the invocations
	// themselves still succeed via fallback.
	for i := 0; i < 2; i++ {
		if resp := post(t, srv, "/invoke?fn=c-hello&boot=fork"); resp.StatusCode != http.StatusOK {
			t.Fatalf("invoke under faults = %d", resp.StatusCode)
		}
	}
	code, h := getHealth(t, srv.URL)
	if code != http.StatusServiceUnavailable || h.Status != "degraded" {
		t.Fatalf("health with open breaker = %d %+v", code, h)
	}
	if len(h.OpenBreakers) == 0 {
		t.Fatalf("degraded health lists no open breakers: %+v", h)
	}

	// A degraded invocation reports who actually served it.
	resp := post(t, srv, "/invoke?fn=c-hello&boot=fork")
	var body invokeResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Boot != "fork" || body.ServedBy == "fork" || body.ServedBy == "" {
		t.Fatalf("degraded invoke reporting: %+v", body)
	}
}

func TestDeployCustomAndTrain(t *testing.T) {
	srv := newTestServer(t)
	doc := `{
	  "name": "daemon-custom-fn", "language": "c",
	  "configKB": 4, "taskImagePages": 400, "rootMounts": 1,
	  "initComputeMS": 2, "initSyscalls": 200, "initMmaps": 20,
	  "initFiles": 8, "initFilePages": 100, "initHeapPages": 300,
	  "kernelObjects": 3500, "kernelThreads": 10, "kernelTimers": 4,
	  "conns": {"total": 6, "hot": 4, "sockets": 1},
	  "execComputeUS": 400, "execSyscalls": 50, "execPages": 40,
	  "execConns": 2
	}`
	resp, err := http.Post(srv.URL+"/deploy-custom", "application/json", strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deploy-custom status = %d", resp.StatusCode)
	}
	defer workload.Unregister("daemon-custom-fn")
	inv := post(t, srv, "/invoke?fn=daemon-custom-fn&boot=fork")
	if inv.StatusCode != http.StatusOK {
		t.Fatalf("invoke custom = %d", inv.StatusCode)
	}

	// Training the built-in function produces an invocable variant.
	post(t, srv, "/deploy?fn=deathstar-text")
	tr := post(t, srv, "/train?fn=deathstar-text&fraction=0.5")
	if tr.StatusCode != http.StatusOK {
		t.Fatalf("train status = %d", tr.StatusCode)
	}
	defer workload.Unregister("deathstar-text@pretrained")
	got := post(t, srv, "/invoke?fn=deathstar-text@pretrained&boot=fork")
	if got.StatusCode != http.StatusOK {
		t.Fatalf("invoke trained = %d", got.StatusCode)
	}
	// Bad inputs rejected.
	if r := post(t, srv, "/train"); r.StatusCode != http.StatusBadRequest {
		t.Fatalf("train without fn = %d", r.StatusCode)
	}
	if r := post(t, srv, "/train?fn=deathstar-text&fraction=nope"); r.StatusCode != http.StatusBadRequest {
		t.Fatalf("train bad fraction = %d", r.StatusCode)
	}
	badDoc, err := http.Post(srv.URL+"/deploy-custom", "application/json", strings.NewReader("junk"))
	if err != nil {
		t.Fatal(err)
	}
	badDoc.Body.Close()
	if badDoc.StatusCode != http.StatusBadRequest {
		t.Fatalf("deploy-custom junk = %d", badDoc.StatusCode)
	}
}

// TestRestartRecovery is the daemon half of the restart-recovery
// contract: a second daemon over the same store directory serves the
// first daemon's functions without a fresh /deploy, and /metrics and
// /health expose the recovery outcome.
func TestRestartRecovery(t *testing.T) {
	dir := t.TempDir()

	// Daemon 1: deploy + invoke, then shut down.
	c1, err := catalyzer.NewClientWithStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(Handler(c1))
	if resp := post(t, srv1, "/deploy?fn=c-hello"); resp.StatusCode != http.StatusOK {
		t.Fatalf("deploy = %d", resp.StatusCode)
	}
	if resp := post(t, srv1, "/invoke?fn=c-hello&boot=fork"); resp.StatusCode != http.StatusOK {
		t.Fatalf("invoke = %d", resp.StatusCode)
	}
	srv1.Close()
	c1.Close()

	// Daemon 2 ("restarted") over the same store: recover, then serve
	// WITHOUT a /deploy.
	c2, err := catalyzer.NewClientWithStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c2.Recover(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Recovered) != 1 || rep.Recovered[0] != "c-hello" {
		t.Fatalf("recovered = %v (failed %v)", rep.Recovered, rep.Failed)
	}
	srv2 := httptest.NewServer(Handler(c2))
	t.Cleanup(func() { srv2.Close(); c2.Close() })
	resp := post(t, srv2, "/invoke?fn=c-hello&boot=cold")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("invoke after restart without re-deploy = %d", resp.StatusCode)
	}
	var inv invokeResponse
	if err := json.NewDecoder(resp.Body).Decode(&inv); err != nil {
		t.Fatal(err)
	}
	if inv.Function != "c-hello" || inv.BootMS <= 0 {
		t.Fatalf("recovered invocation = %+v", inv)
	}

	// /metrics exposes the recovery outcome and durability counters.
	mresp, err := http.Get(srv2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var m struct {
		Failures map[string]any `json:"failures"`
		Recovery struct {
			RecoveredFunctions int      `json:"recovered_functions"`
			Recovered          []string `json:"recovered"`
		} `json:"recovery"`
	}
	if err := json.NewDecoder(mresp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Recovery.RecoveredFunctions != 1 || len(m.Recovery.Recovered) != 1 {
		t.Fatalf("metrics recovery section = %+v", m.Recovery)
	}
	for _, key := range []string{"rollbacks", "scrub_repaired", "scrub_quarantined", "orphans_swept", "image_rebuilds", "image_save_failures"} {
		if _, ok := m.Failures[key]; !ok {
			t.Fatalf("metrics failures missing durability counter %q: %v", key, m.Failures)
		}
	}

	// /health carries the recovered-function count and rollback gauge.
	hresp, err := http.Get(srv2.URL + "/health")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var h map[string]any
	if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if got, ok := h["recovered_functions"].(float64); !ok || got != 1 {
		t.Fatalf("health recovered_functions = %v", h["recovered_functions"])
	}
	if _, ok := h["rollbacks"]; !ok {
		t.Fatalf("health missing rollbacks: %v", h)
	}
}

// TestMetricsSuperviseSection: /metrics carries the full supervision
// counter set (the daemon encodes supervise.Stats directly, and
// TestMetricsKeySetSingleMachine pins every key).
func TestMetricsSuperviseSection(t *testing.T) {
	srv := newTestServer(t)
	post(t, srv, "/deploy?fn=c-hello")
	post(t, srv, "/invoke?fn=c-hello&boot=fork")

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Supervise map[string]any `json:"supervise"`
		Failures  map[string]any `json:"failures"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"probes_run", "targets_probed", "wedged_evicted", "crash_loops_parked", "crash_loop_rejects", "parked_functions"} {
		if _, ok := out.Supervise[key]; !ok {
			t.Fatalf("metrics supervise section missing %q: %v", key, out.Supervise)
		}
	}
	for _, key := range []string{"watchdog_kills", "templates_poisoned", "template_regens", "template_regen_failures"} {
		if _, ok := out.Failures[key]; !ok {
			t.Fatalf("metrics failures section missing %q", key)
		}
	}
}

// TestHealthReportsParkedFunctions: a crash-looping function degrades
// /health and is listed with its remaining park time, alongside the
// watchdog and poisoning gauges.
func TestHealthReportsParkedFunctions(t *testing.T) {
	c := catalyzer.NewClient(
		catalyzer.WithFaultSeed(2),
		catalyzer.WithSupervision(catalyzer.SuperviseConfig{
			CrashLoopThreshold: 1, // first kill parks
			ParkBase:           10 * simtime.Second,
		}),
	)
	srv := httptest.NewServer(Handler(c))
	t.Cleanup(func() { srv.Close(); c.Close() })

	post(t, srv, "/deploy?fn=c-hello")
	if err := c.ArmFault("invoke-hang", 1); err != nil {
		t.Fatal(err)
	}
	if resp := post(t, srv, "/invoke?fn=c-hello&boot=fork"); resp.StatusCode == http.StatusOK {
		t.Fatal("hung invocation reported success")
	}
	// The function is parked now; the crash-loop rejection is a 503.
	if resp := post(t, srv, "/invoke?fn=c-hello&boot=fork"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("parked invoke status = %d, want 503", resp.StatusCode)
	}

	resp, err := http.Get(srv.URL + "/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || h["status"] != "degraded" {
		t.Fatalf("health with parked function = %d %v", resp.StatusCode, h)
	}
	parked, ok := h["parked_functions"].([]any)
	if !ok || len(parked) != 1 || !strings.HasPrefix(parked[0].(string), "c-hello") {
		t.Fatalf("health parked_functions = %v", h["parked_functions"])
	}
	if got, ok := h["watchdog_kills"].(float64); !ok || got < 1 {
		t.Fatalf("health watchdog_kills = %v", h["watchdog_kills"])
	}
	if _, ok := h["templates_poisoned"]; !ok {
		t.Fatalf("health missing templates_poisoned: %v", h)
	}
}

// TestShutdownDrainsSupervision is the drain contract the daemon's
// shutdown path relies on (run under -race in CI): after Close, no
// supervision probe fires, however much traffic still arrives.
func TestShutdownDrainsSupervision(t *testing.T) {
	c := catalyzer.NewClient()
	srv := httptest.NewServer(Handler(c))
	t.Cleanup(srv.Close)

	post(t, srv, "/deploy?fn=c-hello")
	for i := 0; i < 5; i++ {
		post(t, srv, "/invoke?fn=c-hello&boot=warm")
	}
	c.Close()
	snapshot := c.SuperviseStats().ProbesRun

	for i := 0; i < 5; i++ {
		post(t, srv, "/invoke?fn=c-hello&boot=cold")
	}
	if got := c.SuperviseStats().ProbesRun; got != snapshot {
		t.Fatalf("supervision probe fired after Close: %d -> %d", snapshot, got)
	}
}

func TestMethodRouting(t *testing.T) {
	srv := newTestServer(t)
	resp, err := http.Get(srv.URL + "/deploy?fn=c-hello")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("GET /deploy accepted")
	}
	body := strings.NewReader("")
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/stats", body)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode == http.StatusOK {
		t.Fatal("DELETE /stats accepted")
	}
}
