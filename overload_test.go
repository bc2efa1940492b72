package catalyzer

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestOverloadProtectionUnderBurst is the acceptance load test: with a
// global concurrency cap C and a 10×C burst of short-deadline requests,
// every request resolves — success, ErrOverloaded, or
// ErrDeadlineExceeded — nothing hangs, nothing escapes untyped, and no
// instances leak.
func TestOverloadProtectionUnderBurst(t *testing.T) {
	const capC = 4
	c := newHost(t, WithAdmission(AdmissionConfig{
		MaxConcurrent: capC,
		QueueDepth:    capC,
	}))
	if err := c.Deploy(context.Background(), "c-hello"); err != nil {
		t.Fatal(err)
	}
	baseline := c.Running() // long-lived artifacts (template sandbox)

	const n = 10 * capC
	errs := make([]error, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
			defer cancel()
			_, err := c.Invoke(ctx, "c-hello", ForkBoot)
			errs[i] = err
		}(i)
	}
	close(start)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("burst did not resolve; requests are hanging past their deadlines")
	}

	var okN, shedN, expiredN, canceledN int
	for i, err := range errs {
		switch {
		case err == nil:
			okN++
		case errors.Is(err, ErrOverloaded):
			shedN++
		case errors.Is(err, ErrDeadlineExceeded):
			expiredN++
		case errors.Is(err, ErrCanceled):
			canceledN++
		default:
			t.Fatalf("request %d: untyped error under overload: %v", i, err)
		}
	}
	if okN == 0 {
		t.Fatal("no request succeeded under the cap")
	}
	if okN+shedN+expiredN+canceledN != n {
		t.Fatalf("outcomes %d+%d+%d+%d do not cover %d requests",
			okN, shedN, expiredN, canceledN, n)
	}

	st := c.OverloadStats()
	if st.InFlight != 0 || st.QueueDepth != 0 {
		t.Fatalf("admission not quiescent after burst: %+v", st)
	}
	if st.Admitted < okN {
		t.Fatalf("admitted %d < %d successes", st.Admitted, okN)
	}
	if n := c.Running(); n != baseline {
		t.Fatalf("%d instances leaked (running %d, baseline %d)", n-baseline, n, baseline)
	}
}

// TestIndependentFunctionsOverlapInVirtualTime asserts the concurrency
// win in virtual time: invocations of two independent functions issued
// together share arrival windows, so the burst's virtual makespan
// (last completion − first arrival) is strictly less than the
// serialized sum of their individual latencies.
func TestIndependentFunctionsOverlapInVirtualTime(t *testing.T) {
	c := newHost(t)
	fns := []string{"c-hello", "java-hello"}
	for _, fn := range fns {
		if err := c.Deploy(context.Background(), fn); err != nil {
			t.Fatal(err)
		}
	}

	const n = 2 * 8
	// Hold each request between its arrival read and its machine work
	// until all n have arrived, so the burst is concurrent however the
	// goroutines happen to be scheduled. Were invocations excluded from
	// each other before their arrival read, the barrier would never
	// fill and the timeout below fires.
	var arrived sync.WaitGroup
	arrived.Add(n)
	c.arrived = func() { arrived.Done(); arrived.Wait() }

	invs := make([]*Invocation, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			invs[i], errs[i] = c.Invoke(context.Background(), fns[i%len(fns)], ForkBoot)
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("concurrent invocations never all arrived: requests serialize before reading their arrival time")
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}

	var sum Duration
	minArrival, maxCompletion := invs[0].Arrival, invs[0].Completion
	for _, inv := range invs {
		sum += inv.Total()
		if inv.Arrival < minArrival {
			minArrival = inv.Arrival
		}
		if inv.Completion > maxCompletion {
			maxCompletion = inv.Completion
		}
	}
	makespan := maxCompletion - minArrival
	if makespan >= sum {
		t.Fatalf("no virtual-time overlap: makespan %v >= serialized %v", makespan, sum)
	}
	t.Logf("makespan %v < serialized %v", makespan, sum)
}

// TestClientConcurrentStress is the concurrent-hardening regression
// (run under -race in CI): N goroutines over M functions mixing Invoke,
// Start/Release, Refresh, and stats reads while sfork faults fire. The
// invariants: only typed errors escape, no instances leak, and breaker
// state stays coherent.
func TestClientConcurrentStress(t *testing.T) {
	c := newHost(t, WithFaultSeed(7), WithAdmission(AdmissionConfig{
		MaxConcurrent: 16,
		QueueDepth:    64,
	}))
	fns := []string{"c-hello", "java-hello", "python-hello"}
	for _, fn := range fns {
		if err := c.Deploy(context.Background(), fn); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.ArmFault("sfork", 0.2); err != nil {
		t.Fatal(err)
	}

	const goroutines, iters = 8, 40
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				fn := fns[(g+i)%len(fns)]
				switch i % 5 {
				case 0, 1:
					if _, err := c.Invoke(ctx, fn, ForkBoot); err != nil && !typedError(err) {
						t.Errorf("goroutine %d iter %d: untyped Invoke error: %v", g, i, err)
						return
					}
				case 2:
					inst, err := c.Start(ctx, fn, WarmBoot)
					if err != nil {
						if !typedError(err) {
							t.Errorf("goroutine %d iter %d: untyped Start error: %v", g, i, err)
							return
						}
						continue
					}
					if _, err := inst.Execute(); err != nil {
						t.Errorf("goroutine %d iter %d: execute: %v", g, i, err)
					}
					inst.Release()
				case 3:
					if err := refresh(c, fn); err != nil && !typedError(err) {
						t.Errorf("goroutine %d iter %d: untyped Refresh error: %v", g, i, err)
						return
					}
				case 4:
					c.FailureStats()
					c.Stats()
					c.OverloadStats()
					c.Running()
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	c.DisarmFaults()

	st := c.FailureStats()
	for name, state := range st.Breakers {
		switch state {
		case "closed", "open", "half-open":
		default:
			t.Fatalf("breaker %s in corrupt state %q", name, state)
		}
	}
	ov := c.OverloadStats()
	if ov.InFlight != 0 || ov.QueueDepth != 0 {
		t.Fatalf("admission not quiescent after stress: %+v", ov)
	}
	c.Close()
	if n := c.Running(); n != 0 {
		t.Fatalf("%d instances leaked after stress", n)
	}
}
