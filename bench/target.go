package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"catalyzer"
	specs "catalyzer/internal/workload"
)

// errCheck marks an operation whose reply failed a correctness check.
var errCheck = errors.New("check failed")

func checkf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{errCheck}, args...)...)
}

// An outcome is what one operation's reply says; the virtual-time
// fields are set for invocations only.
type outcome struct {
	bootMS, totalMS float64
	degraded        bool
}

// A target serves a workload's operations on one surface.
type target interface {
	do(ctx context.Context, o op) (outcome, error)
	close()
}

var knownKinds = func() map[catalyzer.BootKind]bool {
	m := map[catalyzer.BootKind]bool{}
	for _, k := range catalyzer.Kinds() {
		m[k] = true
	}
	return m
}()

// mayDegrade reports whether a workload's faults and kills may make the
// recovery chain serve a request by another boot kind than requested.
func (w *workload) mayDegrade() bool { return len(w.faults) > 0 || w.killEvery > 0 }

// A reply is what the correctness checks read from one invocation's
// reply, whichever surface served it; times are virtual milliseconds.
type reply struct {
	fn, boot, servedBy      string
	bootMS, execMS, totalMS float64
	phasesMS                float64 // the boot phases' sum
	machine                 int
}

// msTolerance absorbs float rounding in ns→ms conversions; it is 1 ns.
const msTolerance = 1e-6

func ms(d catalyzer.Duration) float64 { return float64(d) / 1e6 }

func replyOf(inv *catalyzer.Invocation) reply {
	r := reply{fn: inv.Function, boot: string(inv.Kind), servedBy: string(inv.ServedBy),
		bootMS: ms(inv.BootLatency), execMS: ms(inv.ExecLatency), totalMS: ms(inv.Total()), machine: inv.Machine}
	for _, ph := range inv.Phases {
		r.phasesMS += ms(ph.Duration)
	}
	return r
}

// check applies the per-reply checks: the served function is the one
// requested, it was served by a known boot kind, degraded only where the
// workload allows it, its phases sum to its boot latency, its total is
// boot plus execution, and its machine index is in range.
func (r reply) check(w *workload, o op) error {
	switch {
	case r.fn != o.fn || r.boot != string(o.boot):
		return checkf("asked for %s/%s, served %s/%s", o.fn, o.boot, r.fn, r.boot)
	case !knownKinds[catalyzer.BootKind(r.servedBy)]:
		return checkf("%s: served by unknown kind %q", o.fn, r.servedBy)
	case r.servedBy != r.boot && !w.mayDegrade():
		return checkf("%s: %s boot degraded to %s", o.fn, r.boot, r.servedBy)
	case math.Abs(r.totalMS-(r.bootMS+r.execMS)) > msTolerance:
		return checkf("%s: total %v ms != boot %v + exec %v", o.fn, r.totalMS, r.bootMS, r.execMS)
	case math.Abs(r.phasesMS-r.bootMS) > msTolerance || r.bootMS <= 0:
		return checkf("%s: phases sum to %v ms, boot %v", o.fn, r.phasesMS, r.bootMS)
	case r.machine < 0 || r.machine >= w.machines:
		return checkf("%s: machine %d outside [0,%d)", o.fn, r.machine, w.machines)
	}
	return nil
}

// fleetTarget drives an in-process catalyzer.Fleet.
type fleetTarget struct {
	w        *workload
	f        *catalyzer.Fleet
	storeDir string
	clones   []string
}

// newFleetTarget builds the workload's fleet, deploys its functions and
// arms its faults. storeDir is used only by workloads with stores.
func newFleetTarget(ctx context.Context, w *workload, seed uint64, storeDir string) (*fleetTarget, error) {
	cfg := catalyzer.FleetConfig{Machines: w.machines, Replication: w.replication, Zones: w.zones}
	if w.store {
		if err := os.MkdirAll(storeDir, 0o755); err != nil {
			return nil, err
		}
		cfg.StoreDir = storeDir
	}
	f, err := catalyzer.NewFleet(cfg, catalyzer.WithFaultSeed(int64(seed)))
	if err != nil {
		return nil, fmt.Errorf("build fleet: %w", err)
	}
	t := &fleetTarget{w: w, f: f, storeDir: cfg.StoreDir}
	for _, fn := range w.functions {
		if err := f.Deploy(ctx, fn); err != nil {
			t.close()
			return nil, fmt.Errorf("deploy %s: %w", fn, err)
		}
	}
	for _, af := range w.faults {
		if err := f.ArmFault(af.site, af.rate); err != nil {
			t.close()
			return nil, err
		}
	}
	return t, nil
}

func (t *fleetTarget) do(ctx context.Context, o op) (outcome, error) {
	switch o.kind {
	case opInvoke:
		inv, err := t.f.Invoke(ctx, o.fn, o.boot)
		if err != nil {
			return outcome{}, err
		}
		r := replyOf(inv)
		if err := r.check(t.w, o); err != nil {
			return outcome{}, err
		}
		return outcome{bootMS: r.bootMS, totalMS: r.totalMS, degraded: inv.Degraded()}, nil
	case opScrape:
		// What GET /metrics reads on the daemon.
		_ = t.f.Stats()
		if st := t.f.FleetStats(); st.Machines != t.w.machines || len(st.Served) != t.w.machines {
			return outcome{}, checkf("fleet stats: %d machines, %d served entries", st.Machines, len(st.Served))
		}
		return outcome{}, nil
	case opDeploy:
		return outcome{}, t.deployClone(ctx, o.fn)
	case opKillRestart:
		return outcome{}, t.killRestart(o)
	}
	return outcome{}, fmt.Errorf("unknown op %s", o.kind)
}

// deployClone registers a copy of the clone base under a fresh name and
// deploys it, which encodes its image and saves it to every replica's
// store.
func (t *fleetTarget) deployClone(ctx context.Context, name string) error {
	spec, err := specs.Registry(cloneBase)
	if err != nil {
		return err
	}
	spec.Name = name
	if err := specs.RegisterCustom(spec); err != nil {
		return err
	}
	t.clones = append(t.clones, name)
	if err := t.f.Deploy(ctx, name); err != nil {
		return err
	}
	if n := len(t.f.Replicas(name)); n < 1 || n > t.w.replication {
		return checkf("deploy %s: %d replicas, want 1..%d", name, n, t.w.replication)
	}
	return nil
}

// killRestart restarts the previous victim before crashing the next, so
// at most one machine is down at a time.
func (t *fleetTarget) killRestart(o op) error {
	if o.restart >= 0 {
		if err := t.f.RestartMachine(o.restart); err != nil {
			return err
		}
	}
	if err := t.f.KillMachine(o.kill); err != nil {
		return err
	}
	if st := t.f.Machines()[o.kill].State; st != "down" {
		return checkf("machine %d is %q after a kill", o.kill, st)
	}
	return nil
}

func (t *fleetTarget) close() {
	t.f.Close()
	for _, name := range t.clones {
		specs.Unregister(name)
	}
	t.clones = nil
	if t.storeDir != "" {
		_ = os.RemoveAll(t.storeDir)
	}
}

// daemonTarget drives a catalyzerd process over loopback HTTP.
type daemonTarget struct {
	w      *workload
	cmd    *exec.Cmd
	exited chan struct{}
	log    *bytes.Buffer
	base   string
	client *http.Client
}

// startDaemon starts catalyzerd in fleet mode with the workload's
// configuration, waits until it answers, and deploys the workload's
// functions.
func startDaemon(ctx context.Context, bin string, w *workload, clients int, storeDir string) (*daemonTarget, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		d, err := launchDaemon(bin, w, clients, storeDir)
		if err != nil {
			lastErr = err
			continue
		}
		if err := d.deploy(ctx); err != nil {
			d.close()
			return nil, err
		}
		return d, nil
	}
	return nil, lastErr
}

func launchDaemon(bin string, w *workload, clients int, storeDir string) (*daemonTarget, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := []string{"-addr", addr,
		"-fleet-machines", strconv.Itoa(w.machines),
		"-fleet-replication", strconv.Itoa(w.replication),
		"-fleet-zones", strconv.Itoa(w.zones)}
	if w.store {
		if err := os.MkdirAll(storeDir, 0o755); err != nil {
			return nil, err
		}
		args = append(args, "-fleet-store-dir", storeDir)
	}
	d := &daemonTarget{
		w:      w,
		cmd:    exec.Command(bin, args...),
		exited: make(chan struct{}),
		log:    &bytes.Buffer{},
		base:   "http://" + addr,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: clients,
			MaxConnsPerHost:     clients,
			DisableCompression:  true,
		}},
	}
	d.cmd.Stdout, d.cmd.Stderr = d.log, d.log
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start catalyzerd: %w", err)
	}
	go func() {
		_ = d.cmd.Wait()
		close(d.exited)
	}()
	deadline := now().Add(30 * time.Second)
	for now().Before(deadline) {
		select {
		case <-d.exited:
			return nil, fmt.Errorf("catalyzerd exited during start-up: %s", d.log.String())
		case <-after(10 * time.Millisecond):
		}
		resp, err := d.client.Get(d.base + "/health")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
	}
	d.close()
	return nil, fmt.Errorf("catalyzerd at %s not healthy after 30s", addr)
}

// freeAddr picks a loopback port that is free now; the daemon binds it a
// moment later, and startDaemon retries if another process won the race.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

func (d *daemonTarget) pid() int { return d.cmd.Process.Pid }

func (d *daemonTarget) deploy(ctx context.Context) error {
	for _, fn := range d.w.functions {
		code, body, err := d.call(ctx, http.MethodPost, "/deploy?fn="+fn)
		if err != nil {
			return fmt.Errorf("deploy %s: %w", fn, err)
		}
		if code != http.StatusOK {
			return fmt.Errorf("deploy %s: status %d: %s", fn, code, body)
		}
	}
	return nil
}

func (d *daemonTarget) call(ctx context.Context, method, path string) (int, []byte, error) {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// invokeReply is catalyzerd's fleet-mode /invoke response.
type invokeReply struct {
	Function string             `json:"function"`
	Boot     string             `json:"boot"`
	ServedBy string             `json:"served_by"`
	BootMS   float64            `json:"boot_ms"`
	ExecMS   float64            `json:"exec_ms"`
	TotalMS  float64            `json:"total_ms"`
	PhasesMS map[string]float64 `json:"phases_ms"`
	Machine  int                `json:"machine"`
}

// metricsReply is the part of GET /metrics the scrape check reads.
type metricsReply struct {
	Boots map[string]struct {
		Count int `json:"count"`
	} `json:"boots"`
	Fleet struct {
		Machines int   `json:"machines"`
		Served   []int `json:"served_per_machine"`
	} `json:"fleet"`
}

func (d *daemonTarget) do(ctx context.Context, o op) (outcome, error) {
	switch o.kind {
	case opInvoke:
		code, body, err := d.call(ctx, http.MethodPost, "/invoke?fn="+o.fn+"&boot="+string(o.boot))
		if err != nil {
			return outcome{}, err
		}
		if code != http.StatusOK {
			return outcome{}, checkf("invoke %s: status %d: %s", o.fn, code, bytes.TrimSpace(body))
		}
		var r invokeReply
		if err := json.Unmarshal(body, &r); err != nil {
			return outcome{}, checkf("invoke %s: %v", o.fn, err)
		}
		rep := reply{fn: r.Function, boot: r.Boot, servedBy: r.ServedBy,
			bootMS: r.BootMS, execMS: r.ExecMS, totalMS: r.TotalMS, machine: r.Machine}
		for _, v := range r.PhasesMS {
			rep.phasesMS += v
		}
		if err := rep.check(d.w, o); err != nil {
			return outcome{}, err
		}
		return outcome{bootMS: r.BootMS, totalMS: r.TotalMS, degraded: r.ServedBy != r.Boot}, nil
	case opScrape:
		code, body, err := d.call(ctx, http.MethodGet, "/metrics")
		if err != nil {
			return outcome{}, err
		}
		var m metricsReply
		if code != http.StatusOK || json.Unmarshal(body, &m) != nil {
			return outcome{}, checkf("GET /metrics: status %d, body %.200q", code, body)
		}
		boots := 0
		for _, k := range m.Boots {
			boots += k.Count
		}
		if m.Fleet.Machines != d.w.machines || len(m.Fleet.Served) != d.w.machines || boots == 0 {
			return outcome{}, checkf("GET /metrics: %d machines, %d served entries, %d boots", m.Fleet.Machines, len(m.Fleet.Served), boots)
		}
		return outcome{}, nil
	case opKillRestart:
		if o.restart >= 0 {
			if err := d.post(ctx, fmt.Sprintf("/machines/restart?idx=%d", o.restart)); err != nil {
				return outcome{}, err
			}
		}
		return outcome{}, d.post(ctx, fmt.Sprintf("/machines/kill?idx=%d", o.kill))
	}
	return outcome{}, fmt.Errorf("%s ops are served in-process only", o.kind)
}

func (d *daemonTarget) post(ctx context.Context, path string) error {
	code, body, err := d.call(ctx, http.MethodPost, path)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return checkf("POST %s: status %d: %s", path, code, bytes.TrimSpace(body))
	}
	return nil
}

// close stops the daemon with SIGTERM (its graceful drain) and waits for
// it to exit, killing it if the drain takes too long.
func (d *daemonTarget) close() {
	d.client.CloseIdleConnections()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-after(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// buildDaemon compiles catalyzerd from the checkout into the build
// directory; the build is not part of any measured set-up.
func buildDaemon(root string) (string, error) {
	bin := filepath.Join(root, ".bench_build", "catalyzerd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/catalyzerd")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("build catalyzerd: %w", err)
	}
	return bin, nil
}
