package catalyzer

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"catalyzer/internal/faults"
	"catalyzer/internal/platform"
)

// newHost builds a one-machine fleet — a single host — closed when the
// test ends.
func newHost(tb testing.TB, opts ...Option) *Fleet {
	tb.Helper()
	return storeHost(tb, "", opts...)
}

// storeHost builds a one-machine fleet whose func-images persist in the
// store under dir (dir/m0), closed when the test ends.
func storeHost(tb testing.TB, dir string, opts ...Option) *Fleet {
	tb.Helper()
	f, err := NewFleet(FleetConfig{Machines: 1, StoreDir: dir}, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(f.Close)
	return f
}

// refresh discards name's in-memory func-image on every machine and
// re-prepares it, re-exercising the store load path (including
// quarantine-and-rebuild of corrupt stored images).
func refresh(f *Fleet, name string) error {
	for _, p := range f.members() {
		if _, err := p.RefreshImage(name); err != nil {
			return err
		}
	}
	return nil
}

// deployedFleet builds a fleet with c-hello deployed, closed when the
// test ends.
func deployedFleet(t *testing.T, cfg FleetConfig, opts ...Option) *Fleet {
	t.Helper()
	f, err := NewFleet(cfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	if err := f.Deploy(context.Background(), "c-hello"); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestFleetAdmissionShedsOverCapacity: WithAdmission bounds the whole
// fleet. With one slot held by an admitted invocation, another invoke
// is shed with ErrOverloaded and counted; concurrent invokes each either
// serve or shed, and every slot is released.
func TestFleetAdmissionShedsOverCapacity(t *testing.T) {
	f := deployedFleet(t, FleetConfig{Machines: 3, Replication: 2},
		WithAdmission(AdmissionConfig{MaxConcurrent: 1}))
	ctx := context.Background()

	release, err := f.adm.Acquire(ctx, "c-hello")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Invoke(ctx, "c-hello", ForkBoot); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("invoke at capacity: got %v, want ErrOverloaded", err)
	}
	if st := f.OverloadStats(); st.Shed != 1 || st.InFlight != 1 {
		t.Fatalf("overload stats with the slot held: %+v", st)
	}
	release()

	const n = 16
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = f.Invoke(ctx, "c-hello", ForkBoot)
		}(i)
	}
	wg.Wait()
	served := 0
	for i, err := range errs {
		switch {
		case err == nil:
			served++
		case !errors.Is(err, ErrOverloaded):
			t.Fatalf("concurrent invoke %d: %v, want success or ErrOverloaded", i, err)
		}
	}
	st := f.OverloadStats()
	if served == 0 || st.Admitted != 1+served || st.Shed != 1+n-served || st.InFlight != 0 {
		t.Fatalf("%d of %d served; overload stats %+v", served, n, st)
	}
}

// TestFleetStartAndBurst: Start and Burst run on the machine placement
// picks for the function. A kept instance lives there and counts in
// Running until its (idempotent) Release, the admission slot is free
// once Start returns, and an unknown boot kind is rejected.
func TestFleetStartAndBurst(t *testing.T) {
	f := deployedFleet(t, FleetConfig{Machines: 3, Replication: 2},
		WithAdmission(AdmissionConfig{MaxConcurrent: 1}))
	ctx := context.Background()
	placed, ok := f.fl.Place("c-hello")
	if !ok {
		t.Fatal("no placement for c-hello")
	}

	inst, err := f.Start(ctx, "c-hello", ForkBoot)
	if err != nil {
		t.Fatal(err)
	}
	if got := inst.Invocation().Machine; got != placed {
		t.Fatalf("instance on machine %d, placement picked %d", got, placed)
	}
	if st := f.OverloadStats(); st.InFlight != 0 || st.Admitted != 1 {
		t.Fatalf("admission after Start returned: %+v, want the slot free", st)
	}
	if _, err := inst.Execute(); err != nil {
		t.Fatal(err)
	}
	// The placed machine may also have built its template for the boot,
	// so count the instance by its release.
	live, running := f.Machines()[placed].Live, f.Running()
	inst.Release()
	inst.Release()
	base := f.Running()
	if f.Machines()[placed].Live != live-1 || base != running-1 {
		t.Fatalf("double Release: machine %d live %d -> %d, running %d -> %d; want one fewer each",
			placed, live, f.Machines()[placed].Live, running, base)
	}

	rep, err := f.Burst(ctx, "c-hello", ForkBoot, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 8 || rep.Cores != 4 || f.Running() != base {
		t.Fatalf("burst %+v left %d running, want %d", rep, f.Running(), base)
	}
	if got := f.Stats()[ForkBoot].Count; got != 1+8 {
		t.Fatalf("fork stats count = %d, want 9", got)
	}

	if _, err := f.Start(ctx, "c-hello", BootKind("bogus")); !errors.Is(err, ErrUnknownSystem) {
		t.Fatalf("Start with a bogus kind: %v, want ErrUnknownSystem", err)
	}
	if _, err := f.Burst(ctx, "c-hello", BootKind("bogus"), 1, 1); !errors.Is(err, ErrUnknownSystem) {
		t.Fatalf("Burst with a bogus kind: %v, want ErrUnknownSystem", err)
	}
	if _, err := f.Start(ctx, "java-hello", ForkBoot); !errors.Is(err, ErrNotDeployed) {
		t.Fatalf("Start of an undeployed function: %v, want ErrNotDeployed", err)
	}
}

// TestFleetDrainWaitsForInFlight: after BeginDrain the fleet admits
// nothing (ErrDraining), and Drain returns only once in-flight work has
// finished.
func TestFleetDrainWaitsForInFlight(t *testing.T) {
	f := deployedFleet(t, FleetConfig{Machines: 2})
	ctx := context.Background()
	release, err := f.adm.Acquire(ctx, "c-hello")
	if err != nil {
		t.Fatal(err)
	}

	f.BeginDrain()
	if !f.Draining() || !f.OverloadStats().Draining {
		t.Fatal("fleet not draining after BeginDrain")
	}
	if _, err := f.Invoke(ctx, "c-hello", ForkBoot); !errors.Is(err, ErrDraining) {
		t.Fatalf("invoke while draining: got %v, want ErrDraining", err)
	}
	expired, cancel := context.WithCancel(ctx)
	cancel()
	if err := f.Drain(expired); !errors.Is(err, ErrCanceled) {
		t.Fatalf("drain with work in flight: got %v, want ErrCanceled", err)
	}
	release()
	if err := f.Drain(ctx); err != nil {
		t.Fatalf("drain after in-flight work finished: %v", err)
	}
}

// TestFleetDrainUnderTraffic drains a fleet while goroutines invoke it:
// every invoke either serves or is refused with ErrDraining, and once
// Drain returns nothing is in flight.
func TestFleetDrainUnderTraffic(t *testing.T) {
	f := deployedFleet(t, FleetConfig{Machines: 3, Replication: 2})
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if _, err := f.Invoke(ctx, "c-hello", ForkBoot); err != nil {
					if !errors.Is(err, ErrDraining) {
						t.Errorf("invoke: %v, want success or ErrDraining", err)
					}
					return
				}
			}
		}()
	}
	if err := f.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if st := f.OverloadStats(); st.InFlight != 0 || st.QueueDepth != 0 {
		t.Fatalf("work in flight after Drain: %+v", st)
	}
	wg.Wait()
}

// TestFleetStatsOneMachineEqualsMachine: the fleet's failure,
// supervision and parking views of a one-machine fleet are exactly that
// machine's own.
func TestFleetStatsOneMachineEqualsMachine(t *testing.T) {
	f := deployedFleet(t, FleetConfig{Machines: 1}, WithFaultSeed(5),
		WithSupervision(SuperviseConfig{CrashLoopThreshold: 1}))
	if err := f.ArmFault("sfork", 1); err != nil {
		t.Fatal(err)
	}
	if err := f.ArmFault("invoke-hang", 0.3); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		_, _ = f.Invoke(context.Background(), "c-hello", ForkBoot)
	}
	p := f.members()[0]
	if got, want := f.FailureStats(), p.FailureStats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("FailureStats:\nfleet   %+v\nmachine %+v", got, want)
	}
	if got, want := f.SuperviseStats(), p.SuperviseStats(); got != want {
		t.Fatalf("SuperviseStats: fleet %+v, machine %+v", got, want)
	}
	if got, want := f.ParkedFunctions(), p.ParkedFunctions(); !reflect.DeepEqual(got, want) || len(got) == 0 {
		t.Fatalf("ParkedFunctions: fleet %v, machine %v", got, want)
	}
}

// TestFleetFailureStatsMergesMachines: counters and per-key counts sum
// over the machines, breakers keep their most severe state, and the
// shared injector's fault counts are reported once, not per machine.
func TestFleetFailureStatsMergesMachines(t *testing.T) {
	f := deployedFleet(t, FleetConfig{Machines: 3, Replication: 3}, WithFaultSeed(6))
	if err := f.ArmFault("sfork", 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := f.Invoke(context.Background(), "c-hello", ForkBoot); err != nil {
			t.Fatal(err)
		}
	}
	got := f.FailureStats()
	want := platform.FailureStats{BootFailures: map[platform.System]int{}, Fallbacks: map[platform.System]int{}}
	for _, p := range f.members() {
		st := p.FailureStats()
		want.Retries += st.Retries
		want.BackoffTotal += st.BackoffTotal
		for k, v := range st.BootFailures {
			want.BootFailures[k] += v
		}
		for k, v := range st.Fallbacks {
			want.Fallbacks[k] += v
		}
	}
	busy := 0
	for _, n := range f.FleetStats().Served {
		if n > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("only %d machine(s) served; the merge is not exercised", busy)
	}
	if got.Retries != want.Retries || got.BackoffTotal != want.BackoffTotal ||
		!reflect.DeepEqual(got.BootFailures, want.BootFailures) || !reflect.DeepEqual(got.Fallbacks, want.Fallbacks) {
		t.Fatalf("merged counters %+v, want sums %+v", got, want)
	}
	if shared := f.fl.FaultCounts(); !reflect.DeepEqual(got.Faults, shared) ||
		got.Faults[faults.SiteSfork].Injected != want.BootFailures[platform.CatalyzerSfork] {
		t.Fatalf("fault counts %v, want the shared injector's %v", got.Faults, shared)
	}
	for i, p := range f.members() {
		for k, s := range p.BreakerStates() {
			if breakerSeverity[s] > breakerSeverity[got.Breakers[k]] {
				t.Fatalf("breaker %s merged as %q, but machine %d has it %s", k, got.Breakers[k], i, s)
			}
		}
	}
}

// TestFleetSetRecoveryConfigCoversRebuiltMachines: the recovery tuning
// also applies to a machine rebuilt after a crash.
func TestFleetSetRecoveryConfigCoversRebuiltMachines(t *testing.T) {
	f := deployedFleet(t, FleetConfig{Machines: 2})
	cfg := DefaultRecoveryConfig()
	cfg.BreakerThreshold = 7
	f.SetRecoveryConfig(cfg)
	if err := f.KillMachine(1); err != nil {
		t.Fatal(err)
	}
	if err := f.RestartMachine(1); err != nil {
		t.Fatal(err)
	}
	for i, p := range f.members() {
		if got := p.RecoveryConfig(); got != cfg {
			t.Fatalf("machine %d recovery config %+v, want %+v", i, got, cfg)
		}
	}
}

// TestFleetConfigForwardsEveryField sets every FleetConfig field but
// StoreDir to its own non-zero value and checks the same-named
// fleet.Config field receives it, so a field that is declared but
// never copied (or copied into a neighbour) fails here.
func TestFleetConfigForwardsEveryField(t *testing.T) {
	var cfg FleetConfig
	in := reflect.ValueOf(&cfg).Elem()
	for i := 0; i < in.NumField(); i++ {
		f := in.Field(i)
		switch name := in.Type().Field(i).Name; {
		case name == "StoreDir":
		case f.CanInt():
			f.SetInt(int64(i + 1))
		case f.CanFloat():
			f.SetFloat(float64(i) + 0.5)
		default:
			t.Fatalf("FleetConfig.%s: unhandled kind %s", name, f.Kind())
		}
	}
	out := reflect.ValueOf(cfg.fleetConfig())
	for i := 0; i < in.NumField(); i++ {
		name := in.Type().Field(i).Name
		if name == "StoreDir" {
			continue
		}
		got := out.FieldByName(name)
		if !got.IsValid() {
			t.Fatalf("fleet.Config has no field %s", name)
		}
		if want := in.Field(i).Interface(); got.Interface() != want {
			t.Errorf("fleet.Config.%s = %v, want %v", name, got.Interface(), want)
		}
	}
}
