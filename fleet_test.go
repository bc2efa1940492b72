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
