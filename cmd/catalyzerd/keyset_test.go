package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"catalyzer"
)

// mapPaths are the JSON objects whose keys are data (boot kinds, system
// names, breaker names, fault sites, function names), not schema.
var mapPaths = map[string]bool{
	"boots":                           true,
	"failures.boot_failures":          true,
	"failures.fallbacks":              true,
	"failures.breakers":               true,
	"failures.injected_faults":        true,
	"overload.in_flight_per_function": true,
	"recovery.failed":                 true,
}

// keyPaths flattens a decoded JSON document into its sorted set of key
// paths ("failures.retries"). The keys of an object in mapPaths collapse
// to "*", so what is pinned is the key set of the map's values; array
// elements collapse to "[]".
func keyPaths(doc any) []string {
	set := map[string]bool{}
	var walk func(path string, v any)
	walk = func(path string, v any) {
		switch x := v.(type) {
		case map[string]any:
			for k, child := range x {
				if mapPaths[path] {
					k = "*"
				}
				if path != "" {
					k = path + "." + k
				}
				set[k] = true
				walk(k, child)
			}
		case []any:
			for _, child := range x {
				walk(path+"[]", child)
			}
		}
	}
	walk("", doc)
	out := make([]string, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// checkKeys fetches path from srv and compares its key paths with want.
func checkKeys(t *testing.T, srv *httptest.Server, path string, want []string) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	got := keyPaths(doc)
	wantSet := map[string]bool{}
	for _, p := range want {
		wantSet[p] = true
	}
	var missing, extra []string
	for _, p := range got {
		if !wantSet[p] {
			extra = append(extra, p)
		}
		delete(wantSet, p)
	}
	for p := range wantSet {
		missing = append(missing, p)
	}
	sort.Strings(missing)
	if len(missing) > 0 || len(extra) > 0 {
		t.Fatalf("%s key paths changed\nmissing: %v\nextra:   %v\ngot:\n%s", path, missing, extra, strings.Join(got, "\n"))
	}
}

// TestMetricsKeySetSingleMachine pins every JSON key path of /metrics
// and /health in single-machine mode, with every map-valued section
// populated: a store-backed client that ran Recover, and a fault armed
// so breakers, fallbacks and injection counts have entries.
func TestMetricsKeySetSingleMachine(t *testing.T) {
	c, err := catalyzer.NewClientWithStore(t.TempDir(), catalyzer.WithFaultSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Recover(context.Background()); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(c))
	t.Cleanup(func() { srv.Close(); c.Close() })
	post(t, srv, "/deploy?fn=c-hello")
	if err := c.ArmFault("sfork", 1); err != nil {
		t.Fatal(err)
	}
	for _, boot := range []string{"fork", "warm", "cold"} {
		if resp := post(t, srv, "/invoke?fn=c-hello&boot="+boot); resp.StatusCode != http.StatusOK {
			t.Fatalf("invoke %s = %d", boot, resp.StatusCode)
		}
	}

	checkKeys(t, srv, "/metrics", []string{
		"boots",
		"boots.*",
		"boots.*.count",
		"boots.*.max_ms",
		"boots.*.mean_ms",
		"boots.*.p50_ms",
		"boots.*.p95_ms",
		"boots.*.p99_ms",
		"failures",
		"failures.aborted",
		"failures.backoff_total_ms",
		"failures.boot_failures",
		"failures.boot_failures.*",
		"failures.breaker_skips",
		"failures.breaker_trips",
		"failures.breakers",
		"failures.breakers.*",
		"failures.exhausted",
		"failures.fallbacks",
		"failures.fallbacks.*",
		"failures.image_load_faults",
		"failures.image_rebuild_failures",
		"failures.image_rebuilds",
		"failures.image_save_failures",
		"failures.images_quarantined",
		"failures.injected_faults",
		"failures.injected_faults.*",
		"failures.injected_faults.*.checks",
		"failures.injected_faults.*.injected",
		"failures.keep_warm_evictions",
		"failures.memory_reclaims",
		"failures.orphans_swept",
		"failures.retries",
		"failures.rollbacks",
		"failures.scrub_quarantined",
		"failures.scrub_repaired",
		"failures.template_rebuild_failures",
		"failures.template_regen_failures",
		"failures.template_regens",
		"failures.templates_poisoned",
		"failures.templates_quarantined",
		"failures.templates_retired",
		"failures.watchdog_kills",
		"overload",
		"overload.admitted",
		"overload.canceled",
		"overload.draining",
		"overload.expired",
		"overload.in_flight",
		"overload.in_flight_per_function",
		"overload.queue_depth",
		"overload.queue_peak",
		"overload.shed",
		"recovery",
		"recovery.failed",
		"recovery.recovered",
		"recovery.recovered_functions",
		"supervise",
		"supervise.crash_loop_rejects",
		"supervise.crash_loops_parked",
		"supervise.parked_functions",
		"supervise.probes_run",
		"supervise.targets_probed",
		"supervise.wedged_evicted",
	})
	checkKeys(t, srv, "/health", []string{
		"exhausted_boots",
		"images_quarantined",
		"live_instances",
		"open_breakers",
		"parked_functions",
		"recovered_functions",
		"rollbacks",
		"status",
		"templates_poisoned",
		"templates_quarantined",
		"watchdog_kills",
	})
}

// TestMetricsKeySetFleet pins every JSON key path of /metrics and
// /health in fleet mode.
func TestMetricsKeySetFleet(t *testing.T) {
	f, err := catalyzer.NewFleet(catalyzer.FleetConfig{Machines: 3, Replication: 2, Zones: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	srv := httptest.NewServer(FleetHandler(f))
	t.Cleanup(srv.Close)
	post(t, srv, "/deploy?fn=c-hello")
	for _, boot := range []string{"fork", "warm", "cold"} {
		if resp := post(t, srv, "/invoke?fn=c-hello&boot="+boot); resp.StatusCode != http.StatusOK {
			t.Fatalf("invoke %s = %d", boot, resp.StatusCode)
		}
	}

	checkKeys(t, srv, "/metrics", []string{
		"boots",
		"boots.*",
		"boots.*.count",
		"boots.*.max_ms",
		"boots.*.mean_ms",
		"boots.*.p50_ms",
		"boots.*.p95_ms",
		"boots.*.p99_ms",
		"fleet",
		"fleet.brownout_serves",
		"fleet.budget_denials",
		"fleet.budget_spent",
		"fleet.crashes",
		"fleet.deployed",
		"fleet.divergent_quarantined",
		"fleet.down",
		"fleet.ejected_machines",
		"fleet.ejection_probes",
		"fleet.ejections",
		"fleet.ejections_deferred",
		"fleet.failovers",
		"fleet.flaky_dispatches",
		"fleet.functions_recovered",
		"fleet.gray_dispatches",
		"fleet.hedge_losers_lingered",
		"fleet.hedge_wins",
		"fleet.hedges",
		"fleet.image_pulls",
		"fleet.invoke_max_ms",
		"fleet.invoke_p50_ms",
		"fleet.invoke_p99_ms",
		"fleet.live_per_machine",
		"fleet.local_builds",
		"fleet.machines",
		"fleet.membership_probes",
		"fleet.partitions",
		"fleet.readmissions",
		"fleet.recover_failures",
		"fleet.rejoins",
		"fleet.repair_failures",
		"fleet.repair_peak_in_flight",
		"fleet.repair_queue_depth",
		"fleet.repairs_deferred",
		"fleet.replays",
		"fleet.replicas_lost",
		"fleet.rereplications",
		"fleet.retries",
		"fleet.rolling_crashes",
		"fleet.scenario_steps",
		"fleet.served_per_machine",
		"fleet.slow_dispatches",
		"fleet.spills",
		"fleet.split_dispatches",
		"fleet.stale_repulls",
		"fleet.stores_recovered",
		"fleet.template_forks",
		"fleet.torn_stores",
		"fleet.unreachable_dispatches",
		"fleet.up",
		"fleet.zone_degraded_errors",
		"fleet.zone_down_dispatches",
		"fleet.zone_spread_violations",
		"fleet.zones",
		"fleet.zones_down",
	})
	checkKeys(t, srv, "/health", []string{
		"crashes",
		"down_machines",
		"ejected_machines",
		"functions_recovered",
		"live_instances",
		"machines",
		"recover_failures",
		"rejoins",
		"replicas_lost",
		"status",
		"stores_recovered",
		"torn_stores",
		"up",
		"zones",
		"zones[].down",
		"zones[].up",
		"zones[].zone",
		"zones_down",
	})
}
