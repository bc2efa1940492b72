// Command catalyzerd runs the gateway daemon of §2.1 as an HTTP service:
// it accepts "invoke function" requests, dispatches them to a fleet of
// simulated machines (the multi-server deployment of §6.9), boots
// sandboxes through the configured strategy, and reports per-invocation
// latency breakdowns. There is one serving mode: a single machine is a
// one-machine fleet, which is the default.
//
//	catalyzerd -addr :8080 -max-concurrent 64 -queue-depth 128
//	catalyzerd -addr :8080 -fleet-machines 6 -fleet-replication 3 -fleet-zones 3
//
// Endpoints:
//
//	POST /deploy?fn=<workload>            prepare func-image + template on R machines
//	POST /deploy-custom                   register and deploy a JSON workload document
//	POST /train?fn=<workload>&fraction=F  deploy the pre-initialized variant (§6.7)
//	POST /invoke?fn=<workload>&boot=fork  serve one request (boot: cold|warm|fork|gvisor|...)
//	GET  /functions                       list deployable workloads
//	GET  /stats                           machines, live instances, deployed functions, virtual clock
//	GET  /metrics                         boot latencies + failure/overload/supervision/fleet counters
//	GET  /health                          liveness/degradation/draining probe
//	GET  /machines                        membership view
//	POST /machines/kill?idx=<i>           chaos hook: crash machine i
//	POST /machines/restart?idx=<i>        re-admit machine i
//
// Errors map to statuses by type: an unknown or undeployed function is
// 404, a bad parameter (including an unknown boot kind) is 400, a shed
// request is 429 with a Retry-After hint, a request arriving during
// drain is 503, an expired deadline is 504, a canceled request is 499,
// and a boot whose whole fallback chain failed is 500. Machine-level
// failures (ErrMachineDown, ErrMachineUnreachable, ErrNoSurvivors,
// ErrZoneDegraded and the gray-failure errors) are retryable 503s with
// a Retry-After hint. A request with the wrong method gets 405 with an
// Allow header.
//
// Admission (-max-concurrent, -max-per-function, -queue-depth) is the
// fleet's front door: every invocation takes a slot before placement,
// so the caps bound the whole fleet. Invocations honour an optional
// deadline_ms query parameter (and the HTTP request context): the
// deadline bounds admission queueing and the recovery boot chain, which
// aborts between fallback stages.
//
// /deploy replicates func-images R ways (-fleet-replication), and
// /invoke reports the serving machine and fails over off dead machines.
// With -fleet-zones Z the machines stripe across Z failure domains
// ("z0".."zN-1", machine i in zone i % Z) and /deploy spreads each
// replica set across distinct zones, so a whole-zone outage cannot take
// every copy of a function. -fleet-repair-budget caps concurrent
// re-replications after machine losses; the excess queues
// deterministically. The gray-failure defense (adaptive timeouts,
// hedging, outlier ejection, the retry/hedge budget) runs with its
// library defaults.
//
// GET /health answers 503 "draining" once shutdown has begun; else 503
// "degraded" while a machine is down, a circuit breaker is open or a
// crash-looping function is parked (each listed); else 200 "brownout"
// while a soft-ejected gray machine is out of rotation; else 200 "ok".
// The body also carries live-instance, quarantine, per-zone membership
// and restart-recovery counts, so an orchestrator can alert on
// template/image churn or partial fleet loss before requests fail.
//
// With -fleet-store-dir ROOT every machine owns a crash-consistent
// func-image store (journaled manifest, per-image generations with a
// last-known-good fallback) in ROOT/m0 .. ROOT/mN-1, so a single machine
// keeps its store in ROOT/m0. Replica pulls are acknowledged only after
// a journaled fsync, and a daemon restarted over the same root recovers
// every deployed function from disk before it serves: each store scrubs
// and rehydrates, a deterministic reconciliation pass settles replica
// divergence (highest verified generation wins, stale copies re-pull,
// byte-divergent ones are quarantined and re-pulled), placement
// re-derives, and replica sets top back up to R. /metrics carries the
// recovery outcome and the stores' durability counters, and /health the
// recovered-function count.
//
// The daemon serves real HTTP over net/http; the sandboxes behind it run
// on simulated machines, so responses carry virtual-time latencies.
// SIGINT/SIGTERM shut the daemon down gracefully: admission stops
// (health flips to draining and new work gets 503), queued and
// in-flight work finishes or is shed by the -grace deadline, and then
// the listener stops and the machines close.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"syscall"
	"time"

	"catalyzer"
)

// statusClientClosedRequest is the de-facto status (nginx's 499) for a
// request whose client went away before the response.
const statusClientClosedRequest = 499

// server exposes a Fleet over HTTP. The Fleet is internally
// synchronized, so handlers need no additional locking.
type server struct {
	fleet *catalyzer.Fleet
}

// statusOf maps a fleet error to an HTTP status by its type: unknown
// and undeployed functions are the caller's 404, unknown boot kinds the
// caller's 400, shed requests 429, drain rejections and retryable
// machine-level failures 503, expired deadlines 504, canceled requests
// 499, and everything else — including an exhausted recovery chain —
// is the server's 500.
func statusOf(err error) int {
	switch {
	case errors.Is(err, catalyzer.ErrNotRegistered),
		errors.Is(err, catalyzer.ErrNotDeployed):
		return http.StatusNotFound
	case errors.Is(err, catalyzer.ErrUnknownSystem):
		return http.StatusBadRequest
	case errors.Is(err, catalyzer.ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, catalyzer.ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, catalyzer.ErrCrashLooping):
		// The function is parked with backoff; the condition clears on its
		// own, so it is a retryable 503, not a permanent failure.
		return http.StatusServiceUnavailable
	case errors.Is(err, catalyzer.ErrDeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, catalyzer.ErrCanceled):
		return statusClientClosedRequest
	case errors.Is(err, catalyzer.ErrNoSurvivors),
		errors.Is(err, catalyzer.ErrMachineDown),
		errors.Is(err, catalyzer.ErrMachineUnreachable),
		errors.Is(err, catalyzer.ErrMachineFlaky),
		errors.Is(err, catalyzer.ErrBrownout),
		errors.Is(err, catalyzer.ErrBudgetExhausted),
		errors.Is(err, catalyzer.ErrZoneDegraded):
		// Machine-level fleet failures are retryable: survivors heal,
		// partitions clear, crashed machines restart, ejected gray
		// members are re-admitted, downed zones rejoin as repairs drain,
		// and the retry/hedge budget refills.
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// fail writes err with its mapped status; shed requests and retryable
// 503s carry a Retry-After hint so well-behaved clients back off.
func fail(w http.ResponseWriter, err error) {
	code := statusOf(err)
	if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	http.Error(w, err.Error(), code)
}

// requestCtx derives the invocation context from the HTTP request: the
// request's own context (canceled when the client disconnects) bounded
// by an optional deadline_ms query parameter.
func requestCtx(r *http.Request) (context.Context, context.CancelFunc, error) {
	ctx := r.Context()
	v := r.URL.Query().Get("deadline_ms")
	if v == "" {
		return ctx, func() {}, nil
	}
	ms, err := strconv.ParseFloat(v, 64)
	if err != nil || !(ms > 0) {
		return nil, nil, fmt.Errorf("bad deadline_ms %q", v)
	}
	ctx, cancel := context.WithTimeout(ctx, time.Duration(ms*float64(time.Millisecond)))
	return ctx, cancel, nil
}

// invokeResponse is the wire form of one served invocation, including
// the index of the machine that served it after placement and failover.
type invokeResponse struct {
	Function string             `json:"function"`
	Boot     string             `json:"boot"`
	ServedBy string             `json:"served_by"`
	BootMS   float64            `json:"boot_ms"`
	ExecMS   float64            `json:"exec_ms"`
	TotalMS  float64            `json:"total_ms"`
	PhasesMS map[string]float64 `json:"phases_ms"`
	Machine  int                `json:"machine"`
}

func invokeResponseOf(inv *catalyzer.Invocation) invokeResponse {
	resp := invokeResponse{
		Function: inv.Function,
		Boot:     string(inv.Kind),
		ServedBy: string(inv.ServedBy),
		BootMS:   float64(inv.BootLatency) / 1e6,
		ExecMS:   float64(inv.ExecLatency) / 1e6,
		TotalMS:  float64(inv.Total()) / 1e6,
		PhasesMS: map[string]float64{},
		Machine:  inv.Machine,
	}
	for _, ph := range inv.Phases {
		resp.PhasesMS[ph.Name] += float64(ph.Duration) / 1e6
	}
	return resp
}

// kindStats is one boot kind's row in the "boots" section of /metrics.
type kindStats struct {
	Count  int     `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
	MaxMS  float64 `json:"max_ms"`
}

// bootsOf is the "boots" section of /metrics: one row per boot kind.
func bootsOf(stats map[catalyzer.BootKind]catalyzer.KindStats) map[string]kindStats {
	boots := make(map[string]kindStats, len(stats))
	for kind, st := range stats {
		boots[string(kind)] = kindStats{
			Count:  st.Count,
			MeanMS: float64(st.MeanBoot) / 1e6,
			P50MS:  float64(st.P50Boot) / 1e6,
			P95MS:  float64(st.P95Boot) / 1e6,
			P99MS:  float64(st.P99Boot) / 1e6,
			MaxMS:  float64(st.MaxBoot) / 1e6,
		}
	}
	return boots
}

// functions lists the deployable workloads.
func functions(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(catalyzer.Functions())
}

func (s *server) deploy(w http.ResponseWriter, r *http.Request) {
	fn := r.URL.Query().Get("fn")
	if fn == "" {
		http.Error(w, "missing fn parameter", http.StatusBadRequest)
		return
	}
	if err := s.fleet.Deploy(r.Context(), fn); err != nil {
		fail(w, err)
		return
	}
	fmt.Fprintf(w, "deployed %s to machines %v\n", fn, s.fleet.Replicas(fn))
}

func (s *server) invoke(w http.ResponseWriter, r *http.Request) {
	fn := r.URL.Query().Get("fn")
	boot := r.URL.Query().Get("boot")
	if boot == "" {
		boot = string(catalyzer.ForkBoot)
	}
	if fn == "" {
		http.Error(w, "missing fn parameter", http.StatusBadRequest)
		return
	}
	ctx, cancel, err := requestCtx(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	defer cancel()
	inv, err := s.fleet.Invoke(ctx, fn, catalyzer.BootKind(boot))
	if err != nil {
		fail(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(invokeResponseOf(inv)); err != nil {
		log.Printf("encode: %v", err)
	}
}

// deployCustom registers a user-defined function from the JSON workload
// document in the request body.
func (s *server) deployCustom(w http.ResponseWriter, r *http.Request) {
	doc, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	name, err := s.fleet.DeployCustom(r.Context(), doc)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	fmt.Fprintf(w, "deployed custom function %s\n", name)
}

// train deploys a function's pre-initialized variant (§6.7).
func (s *server) train(w http.ResponseWriter, r *http.Request) {
	fn := r.URL.Query().Get("fn")
	if fn == "" {
		http.Error(w, "missing fn parameter", http.StatusBadRequest)
		return
	}
	fraction := 0.5
	if v := r.URL.Query().Get("fraction"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			http.Error(w, "bad fraction", http.StatusBadRequest)
			return
		}
		fraction = f
	}
	name, err := s.fleet.Train(r.Context(), fn, fraction)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	fmt.Fprintf(w, "trained variant %s\n", name)
}

// metrics encodes each section's stats struct directly (its json tags
// are the wire names), adding only the virtual-time durations as float
// milliseconds.
func (s *server) metrics(w http.ResponseWriter, _ *http.Request) {
	st := s.fleet.FailureStats()
	fs := s.fleet.FleetStats()
	body := map[string]any{
		"boots": bootsOf(s.fleet.Stats()),
		"failures": struct {
			catalyzer.FailureStats
			BackoffTotalMS float64 `json:"backoff_total_ms"`
		}{st, float64(st.BackoffTotal) / 1e6},
		"overload":  s.fleet.OverloadStats(),
		"supervise": s.fleet.SuperviseStats(),
		"fleet": struct {
			catalyzer.FleetStats
			InvokeP50MS float64 `json:"invoke_p50_ms"`
			InvokeP99MS float64 `json:"invoke_p99_ms"`
			InvokeMaxMS float64 `json:"invoke_max_ms"`
		}{fs, float64(fs.InvokeP50) / 1e6, float64(fs.InvokeP99) / 1e6, float64(fs.InvokeMax) / 1e6},
	}
	if rep := s.fleet.RecoveryReport(); rep != nil {
		body["recovery"] = map[string]any{
			"recovered_functions": len(rep.Recovered),
			"recovered":           rep.Recovered,
			"failed":              rep.Failed,
		}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(body)
}

// health reports liveness, degradation and drain; see the package
// comment for the status rules.
func (s *server) health(w http.ResponseWriter, _ *http.Request) {
	down := make([]int, 0)
	ejected := make([]int, 0)
	zoneUp := map[string]int{}
	zoneDown := map[string]int{}
	for _, m := range s.fleet.Machines() {
		if m.State != "up" {
			down = append(down, m.Index)
			zoneDown[m.Zone]++
		} else {
			zoneUp[m.Zone]++
			if m.Ejected {
				ejected = append(ejected, m.Index)
			}
		}
	}
	// Per-zone membership summary, in zone index order: an orchestrator
	// can tell a correlated whole-zone outage from scattered machine
	// loss at a glance.
	type zoneJSON struct {
		Zone string `json:"zone"`
		Up   int    `json:"up"`
		Down int    `json:"down"`
	}
	zones := make([]zoneJSON, 0)
	for _, z := range s.fleet.ZoneNames() {
		zones = append(zones, zoneJSON{Zone: z, Up: zoneUp[z], Down: zoneDown[z]})
	}
	st := s.fleet.FailureStats()
	open := make([]string, 0)
	for k, state := range st.Breakers {
		if state != "closed" {
			open = append(open, k+"="+state)
		}
	}
	sort.Strings(open)
	// Parked (crash-looping) functions degrade health like open breakers:
	// a boot path is shut off until the supervisor un-parks them.
	parked := make([]string, 0)
	for fn, remaining := range s.fleet.ParkedFunctions() {
		parked = append(parked, fmt.Sprintf("%s (%v left)", fn, remaining))
	}
	sort.Strings(parked)
	status, code := "ok", http.StatusOK
	switch {
	case s.fleet.Draining():
		status, code = "draining", http.StatusServiceUnavailable
	case len(down) > 0 || len(open) > 0 || len(parked) > 0:
		status, code = "degraded", http.StatusServiceUnavailable
	case len(ejected) > 0:
		// Capacity is reduced but the fleet still serves, and the
		// ejection probes re-admit members as they recover.
		status = "brownout"
	}
	fs := s.fleet.FleetStats()
	body := map[string]any{
		"status":                status,
		"live_instances":        s.fleet.Running(),
		"open_breakers":         open,
		"parked_functions":      parked,
		"templates_quarantined": st.TemplatesQuarantined,
		"templates_poisoned":    st.TemplatesPoisoned,
		"watchdog_kills":        st.WatchdogKills,
		"images_quarantined":    st.ImagesQuarantined,
		"rollbacks":             st.Rollbacks,
		"exhausted_boots":       st.Exhausted,
		"machines":              fs.Machines,
		"up":                    fs.Up,
		"down_machines":         down,
		"ejected_machines":      ejected,
		"zones":                 zones,
		"zones_down":            fs.ZonesDown,
		"replicas_lost":         fs.ReplicasLost,
		"crashes":               fs.Crashes,
		"rejoins":               fs.Rejoins,
		// Restart-recovery outcome: how much the per-machine stores brought
		// back at the last cold start, and what was torn or failed.
		"functions_recovered": fs.FunctionsRecovered,
		"stores_recovered":    fs.StoresRecovered,
		"torn_stores":         fs.TornStores,
		"recover_failures":    fs.RecoverFailures,
	}
	if rep := s.fleet.RecoveryReport(); rep != nil {
		body["recovered_functions"] = len(rep.Recovered)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(body)
}

func (s *server) stats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"machines":         s.fleet.Size(),
		"live_instances":   s.fleet.Running(),
		"deployed":         s.fleet.Deployed(),
		"virtual_clock_ms": float64(s.fleet.Now()) / 1e6,
	})
}

// Handler builds the HTTP mux (exported shape for tests). Method
// patterns mean a wrong-method request gets 405 with an Allow header.
// Machine kill/restart are chaos hooks mirroring
// Fleet.KillMachine/RestartMachine.
func Handler(f *catalyzer.Fleet) http.Handler {
	s := &server{fleet: f}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /deploy", s.deploy)
	mux.HandleFunc("POST /deploy-custom", s.deployCustom)
	mux.HandleFunc("POST /train", s.train)
	mux.HandleFunc("POST /invoke", s.invoke)
	mux.HandleFunc("GET /functions", functions)
	mux.HandleFunc("GET /stats", s.stats)
	mux.HandleFunc("GET /metrics", s.metrics)
	mux.HandleFunc("GET /health", s.health)
	mux.HandleFunc("GET /machines", s.machines)
	mux.HandleFunc("POST /machines/kill", s.kill)
	mux.HandleFunc("POST /machines/restart", s.restart)
	return mux
}

// validateFlags rejects flag values the daemon cannot honor before any
// machine is built.
func validateFlags(zygotePool, machines, zones int, storeDir string) error {
	if zygotePool < 0 {
		return fmt.Errorf("-zygote-pool must be >= 0, got %d", zygotePool)
	}
	if machines < 1 {
		return fmt.Errorf("-fleet-machines must be >= 1, got %d", machines)
	}
	if zones < 0 || zones > machines {
		return fmt.Errorf("-fleet-zones must be in 0..%d (a zone needs at least one machine), got %d", machines, zones)
	}
	if storeDir != "" && !filepath.IsAbs(storeDir) {
		return fmt.Errorf("-fleet-store-dir must be an absolute path, got %q", storeDir)
	}
	return nil
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	serverMachine := flag.Bool("server-machine", false, "use the 96-core server cost model")
	grace := flag.Duration("grace", 10*time.Second, "shutdown grace period for in-flight requests")
	maxConcurrent := flag.Int("max-concurrent", 0, "fleet-wide in-flight invocation cap (0 = unlimited)")
	maxPerFunction := flag.Int("max-per-function", 0, "per-function in-flight invocation cap (0 = unlimited)")
	queueDepth := flag.Int("queue-depth", 0, "admission queue depth; beyond it requests are shed with 429 (0 = shed at capacity)")
	memoryBudget := flag.Int("memory-budget", 0, "per-machine memory budget in pages; boots under pressure evict idle instances (0 = unlimited)")
	zygotePool := flag.Int("zygote-pool", 4, "Zygote pool target size per machine: pre-booted sandboxes kept ready for warm boots and refilled by the supervisor (0 = disabled)")
	machines := flag.Int("fleet-machines", 1, "number of machines behind placement and failover (1 = a single machine)")
	storeDir := flag.String("fleet-store-dir", "", "absolute root for per-machine crash-consistent func-image stores (m0..mN-1); a daemon restarted over the same root recovers its deployed functions from disk (empty = in-memory machines)")
	replication := flag.Int("fleet-replication", 0, "func-image replication factor (0 = default 2, capped at the machine count)")
	zones := flag.Int("fleet-zones", 0, "failure-domain count: machines stripe across zones and replicas spread over distinct zones (0 = default 1, a single zone)")
	repairBudget := flag.Int("fleet-repair-budget", 0, "cap on concurrent re-replications after machine losses; excess repairs queue deterministically (0 = default 4)")
	flag.Parse()
	if err := validateFlags(*zygotePool, *machines, *zones, *storeDir); err != nil {
		log.Fatal(err)
	}

	opts := []catalyzer.Option{
		catalyzer.WithAdmission(catalyzer.AdmissionConfig{
			MaxConcurrent:  *maxConcurrent,
			MaxPerFunction: *maxPerFunction,
			QueueDepth:     *queueDepth,
		}),
		catalyzer.WithZygotePool(*zygotePool),
	}
	if *serverMachine {
		opts = append(opts, catalyzer.WithServerMachine())
	}
	if *memoryBudget > 0 {
		opts = append(opts, catalyzer.WithMemoryBudget(*memoryBudget))
	}
	f, err := catalyzer.NewFleet(catalyzer.FleetConfig{
		Machines:     *machines,
		Replication:  *replication,
		Zones:        *zones,
		RepairBudget: *repairBudget,
		StoreDir:     *storeDir,
	}, opts...)
	if err != nil {
		log.Fatalf("build fleet: %v", err)
	}
	log.Printf("serving %d machine(s)", f.Size())
	if *storeDir != "" {
		// Rebuild the serving state from the per-machine stores: functions
		// deployed before a restart serve again without a fresh /deploy.
		rep, err := f.Recover(context.Background())
		if err != nil {
			log.Fatalf("recover from %s: %v", *storeDir, err)
		}
		log.Printf("recovered %d function(s) from %s: %v", len(rep.Recovered), *storeDir, rep.Recovered)
		for fn, cause := range rep.Failed {
			log.Printf("could not recover %s: %s", fn, cause)
		}
	}

	srv := &http.Server{
		Addr:    *addr,
		Handler: Handler(f),
		// Slow-client protection: a peer that trickles headers or a body,
		// or never reads its response, cannot pin a connection forever.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("catalyzerd listening on %s", *addr)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}

	// Graceful drain: stop admitting (health flips to draining), give
	// queued and in-flight work the grace period to finish (stragglers in
	// the queue are shed), then stop the listener and close the machines.
	log.Printf("catalyzerd draining")
	drainCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := f.Drain(drainCtx); err != nil {
		log.Printf("drain: %v", err)
	}
	if err := srv.Shutdown(drainCtx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	f.Close()
	log.Printf("catalyzerd stopped (%d live instances)", f.Running())
}
