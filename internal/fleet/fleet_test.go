package fleet

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"catalyzer/internal/costmodel"
	"catalyzer/internal/faults"
	"catalyzer/internal/platform"
	"catalyzer/internal/sandbox"
	"catalyzer/internal/simtime"
	"catalyzer/internal/supervise"
)

func newTestFleet(t *testing.T, cfg Config) *Fleet {
	t.Helper()
	f, err := New(cfg, func(int) (platform.Node, error) {
		// Small zygote pools keep the per-machine setup cheap in tests.
		return platform.NewWithConfig(costmodel.Default(), platform.Config{ZygotePoolSize: 1})
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Machines: 0}, nil); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("zero machines: %v", err)
	}
	if _, err := New(Config{Machines: 2}, nil); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("nil factory: %v", err)
	}
	if _, err := New(Config{Machines: 2, Replication: -1}, func(int) (platform.Node, error) { return nil, nil }); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("negative replication: %v", err)
	}
}

func TestDeployReplicatesToRMachines(t *testing.T) {
	f := newTestFleet(t, Config{Machines: 4, Replication: 3})
	if err := f.Deploy(context.Background(), "c-hello"); err != nil {
		t.Fatal(err)
	}
	reps := f.Replicas("c-hello")
	if len(reps) != 3 {
		t.Fatalf("replicas = %v, want 3 machines", reps)
	}
	for _, idx := range reps {
		if !f.memberAt(idx).node.HasImage("c-hello") {
			t.Fatalf("replica machine %d has no image", idx)
		}
	}
	// The primary holds the template; the replicas only the image.
	if !f.memberAt(reps[0]).node.HasTemplate("c-hello") {
		t.Fatal("primary has no template")
	}
	if f.Replicas("never-deployed") != nil {
		t.Fatal("replicas for undeployed function")
	}
}

func TestInvokeRequiresDeploy(t *testing.T) {
	f := newTestFleet(t, Config{Machines: 2})
	if _, _, err := f.Invoke(context.Background(), "c-hello", platform.CatalyzerRestore); !errors.Is(err, ErrNotDeployed) {
		t.Fatalf("undeployed invoke: %v", err)
	}
}

func TestInvokePlacesOnRing(t *testing.T) {
	f := newTestFleet(t, Config{Machines: 3, Replication: 2})
	ctx := context.Background()
	for _, fn := range []string{"c-hello", "java-hello", "nodejs-hello"} {
		if err := f.Deploy(ctx, fn); err != nil {
			t.Fatal(err)
		}
		want, ok := f.Place(fn)
		if !ok {
			t.Fatalf("no placement for %s", fn)
		}
		res, machine, err := f.Invoke(ctx, fn, platform.CatalyzerRestore)
		if err != nil {
			t.Fatal(err)
		}
		if machine != want {
			t.Fatalf("%s served by machine %d, placement said %d", fn, machine, want)
		}
		if res.BootLatency <= 0 {
			t.Fatal("degenerate result")
		}
	}
	st := f.Stats()
	total := 0
	for _, s := range st.Served {
		total += s
	}
	if total != 3 || st.Up != 3 || st.Deployed != 3 {
		t.Fatalf("stats after traffic: %+v", st)
	}
}

func TestCrashFailoverAndRereplication(t *testing.T) {
	f := newTestFleet(t, Config{Machines: 3, Replication: 2})
	ctx := context.Background()
	if err := f.Deploy(ctx, "java-hello"); err != nil {
		t.Fatal(err)
	}
	before := f.Replicas("java-hello")
	victim := before[0]
	if err := f.Kill(victim); err != nil {
		t.Fatal(err)
	}
	after := f.Replicas("java-hello")
	if len(after) != 2 {
		t.Fatalf("replication not restored after crash: %v", after)
	}
	if contains(after, victim) {
		t.Fatalf("dead machine %d still in replica set %v", victim, after)
	}
	for _, idx := range after {
		if !f.memberAt(idx).node.HasImage("java-hello") {
			t.Fatalf("restored replica %d has no image", idx)
		}
	}
	// The invocation must be served by a survivor.
	_, machine, err := f.Invoke(ctx, "java-hello", platform.CatalyzerRestore)
	if err != nil {
		t.Fatal(err)
	}
	if machine == victim {
		t.Fatalf("dead machine %d served", victim)
	}
	st := f.Stats()
	if st.Crashes != 1 || st.Down != 1 || st.Rereplications < 1 {
		t.Fatalf("stats after crash: %+v", st)
	}
	if st.ReplicasLost != 0 {
		t.Fatalf("lost replicas with k < R: %+v", st)
	}
	// A crash-site draw at dispatch must surface the typed error path:
	// kill the remaining machines and the fleet runs out of survivors.
	for i := 0; i < 3; i++ {
		if err := f.Kill(i); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := f.Invoke(ctx, "java-hello", platform.CatalyzerRestore); !errors.Is(err, ErrNoSurvivors) {
		t.Fatalf("no-survivor invoke: %v", err)
	}
}

func TestRemoteForkFromPeerTemplate(t *testing.T) {
	f := newTestFleet(t, Config{Machines: 3, Replication: 1})
	ctx := context.Background()
	if err := f.Deploy(ctx, "java-hello"); err != nil {
		t.Fatal(err)
	}
	primary := f.Replicas("java-hello")[0]
	// Force placement off the only replica: every other machine misses
	// the image and must remote-fork. The primary holds a live template,
	// so the fork must come from it at template-fork cost.
	for i := 0; i < f.Size(); i++ {
		if i != primary {
			m := f.memberAt(i)
			if m.node.HasImage("java-hello") {
				t.Fatalf("machine %d has image before fork", i)
			}
			if err := f.ensureArtifacts(m, "java-hello", platform.CatalyzerRestore); err != nil {
				t.Fatal(err)
			}
			if !m.node.HasImage("java-hello") {
				t.Fatalf("machine %d has no image after remote fork", i)
			}
		}
	}
	st := f.Stats()
	if st.TemplateForks != 2 || st.ImagePulls != 0 || st.LocalBuilds != 0 {
		t.Fatalf("remote forks not sourced from the live template: %+v", st)
	}
}

func TestRemoteForkDegradesToLocalBuild(t *testing.T) {
	f := newTestFleet(t, Config{Machines: 2, Replication: 1})
	ctx := context.Background()
	if err := f.Deploy(ctx, "c-hello"); err != nil {
		t.Fatal(err)
	}
	primary := f.Replicas("c-hello")[0]
	if err := f.Kill(primary); err != nil {
		t.Fatal(err)
	}
	// The sole replica died with no surviving peer copy: the invocation
	// must still succeed via a degraded local cold build on the survivor.
	_, machine, err := f.Invoke(ctx, "c-hello", platform.CatalyzerRestore)
	if err != nil {
		t.Fatal(err)
	}
	if machine == primary {
		t.Fatal("dead machine served")
	}
	st := f.Stats()
	if st.ReplicasLost != 1 {
		t.Fatalf("ReplicasLost = %d, want 1 (k >= R)", st.ReplicasLost)
	}
	if st.LocalBuilds < 1 {
		t.Fatalf("no local build recorded: %+v", st)
	}
}

// countingNode is a machine that counts the template builds the fleet
// asks of it. Single-goroutine tests only.
type countingNode struct {
	*platform.Platform
	templateBuilds int
}

func (n *countingNode) PrepareTemplate(name string) (*platform.Function, error) {
	n.templateBuilds++
	return n.Platform.PrepareTemplate(name)
}

// countingFleet builds a fleet whose machines count template builds;
// nodes[i] is the machine most recently built for index i.
func countingFleet(t *testing.T, cfg Config) (*Fleet, []*countingNode) {
	t.Helper()
	nodes := make([]*countingNode, cfg.Machines)
	f, err := New(cfg, func(idx int) (platform.Node, error) {
		p, err := platform.NewWithConfig(costmodel.Default(), platform.Config{ZygotePoolSize: 1})
		if err != nil {
			return nil, err
		}
		nodes[idx] = &countingNode{Platform: p}
		return nodes[idx], nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f, nodes
}

// TestPoisonedTemplateLeftToRegen: once a poisoning verdict quarantines
// a machine's template, the fleet does not rebuild it on the request
// path. Fork invokes keep serving through the fallback chain, and the
// machine's queued regen is what brings the template back.
func TestPoisonedTemplateLeftToRegen(t *testing.T) {
	f, nodes := countingFleet(t, Config{Machines: 1, Seed: 11})
	ctx := context.Background()
	f.ArmFault(faults.SiteTemplatePoison, 1)
	if err := f.Deploy(ctx, "c-hello"); err != nil {
		t.Fatal(err)
	}
	f.DisarmFaults()
	m := nodes[0]
	for i := 0; i < supervise.DefaultConfig().PoisonThreshold; i++ {
		if _, _, err := f.Invoke(ctx, "c-hello", platform.CatalyzerSfork); !errors.Is(err, sandbox.ErrPoisoned) {
			t.Fatalf("invoke %d from the poisoned template: %v, want ErrPoisoned", i, err)
		}
	}
	if st := m.FailureStats(); st.TemplatesPoisoned != 1 {
		t.Fatalf("no poisoning verdict: %+v", st)
	}

	builds := m.templateBuilds
	degraded := 0
	for i := 0; i < 5; i++ {
		res, _, err := f.Invoke(ctx, "c-hello", platform.CatalyzerSfork)
		if err != nil {
			t.Fatalf("invoke %d after the verdict: %v", i, err)
		}
		if res.System != platform.CatalyzerSfork {
			degraded++
		}
	}
	if m.templateBuilds != builds {
		t.Fatalf("the fleet built the quarantined template on the request path %d time(s)", m.templateBuilds-builds)
	}
	// The verdict queues the regen for the machine's next supervision
	// Poll, which runs as the next boot leaves: exactly that one fork
	// invoke degrades.
	if degraded != 1 {
		t.Fatalf("%d of 5 fork invokes degraded, want 1: the regen did not land at the first Poll", degraded)
	}
	if st := m.FailureStats(); st.TemplateRegens != 1 {
		t.Fatalf("TemplateRegens = %d, want 1: the queued regen did not rebuild the template", st.TemplateRegens)
	}
	res, _, err := f.Invoke(ctx, "c-hello", platform.CatalyzerSfork)
	if err != nil || res.System != platform.CatalyzerSfork {
		t.Fatalf("fork invoke after the regen: %v, served by %v", err, res)
	}
}

// TestRetiredTemplateDegrades: a template the machine retired under
// memory pressure stays retired — the next fork invoke degrades instead
// of the fleet rebuilding the template synchronously.
func TestRetiredTemplateDegrades(t *testing.T) {
	f, nodes := countingFleet(t, Config{Machines: 1})
	ctx := context.Background()
	for _, fn := range []string{"c-hello", "python-hello"} {
		if err := f.Deploy(ctx, fn); err != nil {
			t.Fatal(err)
		}
	}
	m := nodes[0]
	// With nothing left to spare, booting python-hello reclaims the
	// least-recently-forked template that is not its own: c-hello's.
	m.SetMemoryBudget(m.LivePages())
	_, _, _ = f.Invoke(ctx, "python-hello", platform.CatalyzerRestore)
	m.SetMemoryBudget(0)
	if m.HasTemplate("c-hello") || m.FailureStats().TemplatesRetired == 0 {
		t.Fatalf("c-hello's template was not retired: %+v", m.FailureStats())
	}

	builds := m.templateBuilds
	res, _, err := f.Invoke(ctx, "c-hello", platform.CatalyzerSfork)
	if err != nil {
		t.Fatal(err)
	}
	if res.System == platform.CatalyzerSfork || m.templateBuilds != builds {
		t.Fatalf("fork invoke after retirement served by %s with %d template build(s); want a degraded boot and none",
			res.System, m.templateBuilds-builds)
	}
}

// TestRestartedMachineBuildsTemplate: a machine killed and restarted
// never had the template, so its first fork invoke builds one.
func TestRestartedMachineBuildsTemplate(t *testing.T) {
	f, nodes := countingFleet(t, Config{Machines: 1})
	ctx := context.Background()
	if err := f.Deploy(ctx, "c-hello"); err != nil {
		t.Fatal(err)
	}
	if err := f.Kill(0); err != nil {
		t.Fatal(err)
	}
	if err := f.Restart(0); err != nil {
		t.Fatal(err)
	}
	m := nodes[0]
	if m.HasTemplate("c-hello") {
		t.Fatal("restarted machine kept its template")
	}
	res, _, err := f.Invoke(ctx, "c-hello", platform.CatalyzerSfork)
	if err != nil {
		t.Fatal(err)
	}
	if res.System != platform.CatalyzerSfork || m.templateBuilds != 1 {
		t.Fatalf("first fork invoke on the restarted machine served by %s after %d template build(s); want fork after 1",
			res.System, m.templateBuilds)
	}
}

func TestPartitionMarksDownAndHeals(t *testing.T) {
	f := newTestFleet(t, Config{Machines: 2, Replication: 2})
	ctx := context.Background()
	if err := f.Deploy(ctx, "c-hello"); err != nil {
		t.Fatal(err)
	}
	// Rate 1 partitions every dispatch: two misses mark the machine
	// down. With every machine partitioned, invocations fail typed.
	f.ArmFault(faults.SiteMachinePartition, 1)
	_, _, err := f.Invoke(ctx, "c-hello", platform.CatalyzerRestore)
	if err == nil {
		t.Fatal("fully partitioned fleet served")
	}
	if !errors.Is(err, ErrNoSurvivors) && !errors.Is(err, ErrUnreachable) {
		t.Fatalf("partition surfaced untyped: %v", err)
	}
	for i := 0; i < 8 && f.Stats().Down < 2; i++ {
		f.Invoke(ctx, "c-hello", platform.CatalyzerRestore)
	}
	st := f.Stats()
	if st.Partitions == 0 || st.Down == 0 {
		t.Fatalf("partitions never marked a machine down: %+v", st)
	}
	if st.Crashes != 0 {
		t.Fatalf("partition counted as crash: %+v", st)
	}
	// Heal: disarm and advance the clock past the probe interval; the
	// next probe round re-admits every partitioned member.
	f.DisarmFaults()
	for i := 0; i < 4; i++ {
		f.memberAt(0).node.Charge(f.sup.Config().ProbeInterval + simtime.Millisecond)
		f.PollSupervise()
	}
	st = f.Stats()
	if st.Up != 2 || st.Rejoins == 0 {
		t.Fatalf("partitioned members never healed: %+v", st)
	}
	// State survived the partition: serving resumes without any remote
	// fork or rebuild.
	if _, _, err := f.Invoke(ctx, "c-hello", platform.CatalyzerRestore); err != nil {
		t.Fatal(err)
	}
}

func TestCrashedMachineRestartsEmptyAndRebalances(t *testing.T) {
	f := newTestFleet(t, Config{Machines: 2, Replication: 2})
	ctx := context.Background()
	if err := f.Deploy(ctx, "c-hello"); err != nil {
		t.Fatal(err)
	}
	if err := f.Kill(0); err != nil {
		t.Fatal(err)
	}
	// Restart after a crash: a fresh empty machine (epoch bumped, no
	// live instances), then rejoin anti-entropy re-ships the func-image
	// to top the replica set back up to R.
	if err := f.Restart(0); err != nil {
		t.Fatal(err)
	}
	ms := f.Members()
	if ms[0].State != StateUp || ms[0].Epoch != 1 || ms[0].Live != 0 {
		t.Fatalf("restarted member: %+v", ms[0])
	}
	if !f.memberAt(0).node.HasImage("c-hello") {
		t.Fatal("rejoin did not re-replicate the image onto the restarted machine")
	}
	if reps := f.Replicas("c-hello"); len(reps) != 2 {
		t.Fatalf("replica set not topped up after rejoin: %v", reps)
	}
	// Restart of an Up machine is a no-op; out-of-range is typed.
	if err := f.Restart(1); err != nil {
		t.Fatal(err)
	}
	if err := f.Restart(7); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("out-of-range restart: %v", err)
	}
	// The ring re-admits machine 0: placements flow back onto it.
	served := make(map[int]bool)
	for i := 0; i < 12; i++ {
		_, machine, err := f.Invoke(ctx, "c-hello", platform.CatalyzerRestore)
		if err != nil {
			t.Fatal(err)
		}
		served[machine] = true
	}
	if !served[0] {
		t.Fatal("rejoined machine never served (no re-balance)")
	}
	if st := f.Stats(); st.Rejoins != 1 || st.Rereplications == 0 {
		t.Fatalf("rejoin stats: %+v", st)
	}
}

func TestBoundedLoadSpillsOffHotMachine(t *testing.T) {
	f := newTestFleet(t, Config{Machines: 3, Replication: 3, LoadFactor: 1.01})
	ctx := context.Background()
	if err := f.Deploy(ctx, "c-hello"); err != nil {
		t.Fatal(err)
	}
	preferred, ok := f.Place("c-hello")
	if !ok {
		t.Fatal("no placement")
	}
	// Pin live instances onto the preferred machine until the bounded
	// load cap diverts the next placement to the clockwise neighbour.
	m := f.memberAt(preferred)
	for i := 0; i < 4; i++ {
		if _, err := m.node.PrepareImage("c-hello"); err != nil {
			t.Fatal(err)
		}
		r, err := m.node.InvokeRecover(ctx, "c-hello", platform.CatalyzerRestore)
		if err != nil {
			t.Fatal(err)
		}
		_ = r
	}
	// Keep instances alive: boot kept sandboxes directly on the platform.
	p := m.node.(*platform.Platform)
	var kept []*platform.Result
	for i := 0; i < 4; i++ {
		r, err := p.InvokeKeep("c-hello", platform.CatalyzerRestore)
		if err != nil {
			t.Fatal(err)
		}
		kept = append(kept, r)
	}
	spilled, ok := f.Place("c-hello")
	if !ok {
		t.Fatal("no placement under load")
	}
	if spilled == preferred {
		t.Fatalf("placement stayed on overloaded machine %d", preferred)
	}
	if st := f.Stats(); st.Spills == 0 {
		t.Fatalf("no spill recorded: %+v", st)
	}
	for _, r := range kept {
		p.ReleaseSandbox(r.Sandbox)
	}
}

func TestLeastLoadedTieBreaksLowestIndex(t *testing.T) {
	f := newTestFleet(t, Config{Machines: 3, Replication: 3})
	// All machines idle (equal load): regardless of candidate order, the
	// lowest index must win, so same-seed runs are byte-identical.
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, cands := range [][]int{{2, 0, 1}, {1, 2}, {2, 1, 0}, {0, 1, 2}} {
		want := cands[0]
		for _, c := range cands {
			if c < want {
				want = c
			}
		}
		if got := f.leastLoadedLocked(cands); got != want {
			t.Fatalf("equal-load tie over %v broke to machine %d, want %d", cands, got, want)
		}
	}
}

func TestRingDeterministicAndRebalances(t *testing.T) {
	a := buildRing([]int{0, 1, 2, 3}, 16)
	b := buildRing([]int{0, 1, 2, 3}, 16)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical member sets built different rings")
	}
	walkA := a.walk("java-hello")
	if len(walkA) != 4 {
		t.Fatalf("walk visited %d machines, want 4", len(walkA))
	}
	// Removing one machine must leave the relative order of the rest
	// unchanged (the consistent-hashing property failover relies on).
	removed := walkA[0]
	var keep []int
	for _, m := range []int{0, 1, 2, 3} {
		if m != removed {
			keep = append(keep, m)
		}
	}
	walkB := buildRing(keep, 16).walk("java-hello")
	if !reflect.DeepEqual(walkB, walkA[1:]) {
		t.Fatalf("walk after removal %v, want %v", walkB, walkA[1:])
	}
	if buildRing(nil, 16).walk("x") != nil {
		t.Fatal("empty ring walked somewhere")
	}
}

func TestSameSeedSameSchedule(t *testing.T) {
	run := func() (Stats, []int) {
		f := newTestFleet(t, Config{Machines: 3, Replication: 2, Seed: 99})
		defer f.DisarmFaults()
		ctx := context.Background()
		for _, fn := range []string{"c-hello", "java-hello"} {
			if err := f.Deploy(ctx, fn); err != nil {
				t.Fatal(err)
			}
		}
		f.ArmFault(faults.SiteMachineCrash, 0.02)
		f.ArmFault(faults.SiteMachinePartition, 0.05)
		f.ArmFault(faults.SiteMachineSlow, 0.1)
		var placements []int
		for i := 0; i < 40; i++ {
			fn := "c-hello"
			if i%2 == 1 {
				fn = "java-hello"
			}
			_, machine, err := f.Invoke(ctx, fn, platform.CatalyzerRestore)
			if err != nil {
				machine = -1
			}
			placements = append(placements, machine)
		}
		return f.Stats(), placements
	}
	s1, p1 := run()
	s2, p2 := run()
	if !reflect.DeepEqual(p1, p2) {
		t.Fatalf("same seed, different placements:\n%v\n%v", p1, p2)
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("same seed, different stats:\n%+v\n%+v", s1, s2)
	}
}
