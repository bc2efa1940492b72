package supervise

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"catalyzer/internal/simtime"
)

// vclock is a test-owned virtual clock.
type vclock struct {
	mu  sync.Mutex
	now simtime.Duration
}

func (c *vclock) Now() simtime.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *vclock) Advance(d simtime.Duration) {
	c.mu.Lock()
	c.now += d
	c.mu.Unlock()
}

func newSup(cfg Config) (*Supervisor, *vclock) {
	c := &vclock{}
	return New(c.Now, cfg), c
}

func TestDefaultsFillZeroFields(t *testing.T) {
	s, _ := newSup(Config{})
	if s.Config() != DefaultConfig() {
		t.Fatalf("zero config = %+v, want defaults %+v", s.Config(), DefaultConfig())
	}
	// Partial configs keep what was set.
	s, _ = newSup(Config{PoisonThreshold: 7})
	if got := s.Config().PoisonThreshold; got != 7 {
		t.Fatalf("PoisonThreshold = %d, want 7", got)
	}
	if got := s.Config().WatchdogMultiple; got != DefaultConfig().WatchdogMultiple {
		t.Fatalf("WatchdogMultiple = %d, want default", got)
	}
}

func TestValidateRejectsNegatives(t *testing.T) {
	if err := (Config{ProbeInterval: -1}).Validate(); err == nil {
		t.Fatal("negative ProbeInterval accepted")
	}
	if err := (Config{PoisonThreshold: -1}).Validate(); err == nil {
		t.Fatal("negative PoisonThreshold accepted")
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
}

func TestProbeCadenceIsVirtualTime(t *testing.T) {
	s, clk := newSup(Config{ProbeInterval: 10 * simtime.Millisecond})
	runs := 0
	s.Register("kw", func() (int, int) { runs++; return 2, 1 })

	// Not due yet: interval has not elapsed.
	s.Poll()
	if runs != 0 {
		t.Fatalf("probe ran before its interval: %d", runs)
	}
	clk.Advance(10 * simtime.Millisecond)
	s.Poll()
	if runs != 1 {
		t.Fatalf("runs = %d after one interval, want 1", runs)
	}
	// Polling again without advancing does nothing.
	s.Poll()
	s.Poll()
	if runs != 1 {
		t.Fatalf("probe re-ran without clock advance: %d", runs)
	}
	clk.Advance(10 * simtime.Millisecond)
	s.Poll()
	if runs != 2 {
		t.Fatalf("runs = %d after second interval, want 2", runs)
	}
	st := s.Stats()
	if st.ProbesRun != 2 || st.TargetsProbed != 4 || st.WedgedEvicted != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestNoProbeAfterClose(t *testing.T) {
	s, clk := newSup(Config{ProbeInterval: simtime.Millisecond})
	runs := 0
	s.Register("kw", func() (int, int) { runs++; return 1, 0 })
	clk.Advance(simtime.Millisecond)
	s.Poll()
	if runs != 1 {
		t.Fatalf("runs = %d, want 1", runs)
	}
	s.Close()
	clk.Advance(simtime.Second)
	s.Poll()
	if runs != 1 {
		t.Fatalf("probe fired after Close: runs = %d", runs)
	}
	s.Close() // idempotent
}

// TestDeferQueuesUntilPoll: Defer only queues; Poll runs the queue in
// FIFO order, one task per key; Close runs what is still queued and
// refuses everything after it.
func TestDeferQueuesUntilPoll(t *testing.T) {
	s, _ := newSup(Config{})
	var ran []string
	record := func(name string) func() { return func() { ran = append(ran, name) } }

	for _, k := range []string{"a", "b", "a", "c", "b"} {
		if !s.Defer(k, record(k)) {
			t.Fatalf("Defer(%q) refused before Close", k)
		}
	}
	if len(ran) != 0 {
		t.Fatalf("Defer ran tasks itself: %v", ran)
	}
	s.Poll()
	if got := fmt.Sprint(ran); got != "[a b c]" {
		t.Fatalf("Poll ran %s, want [a b c] (FIFO, deduplicated by key)", got)
	}
	// A key runs again once its earlier task has left the queue.
	ran = nil
	s.Defer("a", record("a"))
	s.Poll()
	if got := fmt.Sprint(ran); got != "[a]" {
		t.Fatalf("re-queued key ran %s, want [a]", got)
	}

	ran = nil
	s.Defer("d", record("d"))
	s.Close()
	if got := fmt.Sprint(ran); got != "[d]" {
		t.Fatalf("Close ran %s, want the queued [d]", got)
	}
	if s.Defer("e", func() { t.Error("task ran after Close") }) {
		t.Fatal("Defer accepted after Close")
	}
	s.Poll()
	s.Close()
}

// TestProbeQueuedTaskRunsInSamePoll: a task a probe queues runs in the
// Poll that ran the probe, not one Poll later.
func TestProbeQueuedTaskRunsInSamePoll(t *testing.T) {
	s, clk := newSup(Config{ProbeInterval: simtime.Millisecond})
	ran := false
	s.Register("templates", func() (int, int) {
		s.Defer("regen", func() { ran = true })
		return 1, 1
	})
	clk.Advance(simtime.Millisecond)
	s.Poll()
	if !ran {
		t.Fatal("task queued by a probe did not run in the same Poll")
	}
}

func TestCrashLoopParksAndBacksOffExponentially(t *testing.T) {
	s, clk := newSup(Config{
		CrashLoopWindow:    100 * simtime.Millisecond,
		CrashLoopThreshold: 3,
		ParkBase:           10 * simtime.Millisecond,
		ParkMax:            40 * simtime.Millisecond,
	})
	if err := s.Allow("fn"); err != nil {
		t.Fatalf("fresh function refused: %v", err)
	}
	s.NoteFailure("fn")
	s.NoteFailure("fn")
	if err := s.Allow("fn"); err != nil {
		t.Fatalf("below threshold refused: %v", err)
	}
	if !s.NoteFailure("fn") {
		t.Fatal("third failure in window did not park")
	}
	err := s.Allow("fn")
	if !errors.Is(err, ErrCrashLooping) {
		t.Fatalf("parked function allowed: %v", err)
	}
	if st := s.Stats(); st.CrashLoopsParked != 1 || st.CrashLoopRejects != 1 || st.ParkedFunctions != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if d, ok := s.Parked()["fn"]; !ok || d <= 0 {
		t.Fatalf("Parked() = %v", s.Parked())
	}

	// Park expires in virtual time (first park = ParkBase).
	clk.Advance(10 * simtime.Millisecond)
	if err := s.Allow("fn"); err != nil {
		t.Fatalf("expired park still refuses: %v", err)
	}

	// A second crash loop parks for double the time.
	for i := 0; i < 3; i++ {
		s.NoteFailure("fn")
	}
	clk.Advance(10 * simtime.Millisecond)
	if err := s.Allow("fn"); !errors.Is(err, ErrCrashLooping) {
		t.Fatalf("second park should last 20ms, got allow at 10ms: %v", err)
	}
	clk.Advance(10 * simtime.Millisecond)
	if err := s.Allow("fn"); err != nil {
		t.Fatalf("second park should expire at 20ms: %v", err)
	}

	// Third and fourth parks hit the 40ms cap.
	for i := 0; i < 3; i++ {
		s.NoteFailure("fn")
	}
	clk.Advance(40 * simtime.Millisecond)
	if err := s.Allow("fn"); err != nil {
		t.Fatalf("third park exceeds ParkMax: %v", err)
	}
	for i := 0; i < 3; i++ {
		s.NoteFailure("fn")
	}
	clk.Advance(39 * simtime.Millisecond)
	if err := s.Allow("fn"); !errors.Is(err, ErrCrashLooping) {
		t.Fatal("fourth park shorter than ParkMax")
	}
	clk.Advance(simtime.Millisecond)
	if err := s.Allow("fn"); err != nil {
		t.Fatalf("fourth park should cap at ParkMax: %v", err)
	}
}

func TestSlidingWindowForgetsOldFailures(t *testing.T) {
	s, clk := newSup(Config{
		CrashLoopWindow:    10 * simtime.Millisecond,
		CrashLoopThreshold: 3,
	})
	s.NoteFailure("fn")
	s.NoteFailure("fn")
	clk.Advance(20 * simtime.Millisecond) // both slide out
	if s.NoteFailure("fn") {
		t.Fatal("stale failures counted toward the park verdict")
	}
	if err := s.Allow("fn"); err != nil {
		t.Fatalf("function parked on stale failures: %v", err)
	}
}

func TestSuccessResetsWindowAndBackoff(t *testing.T) {
	s, clk := newSup(Config{
		CrashLoopWindow:    100 * simtime.Millisecond,
		CrashLoopThreshold: 3,
		ParkBase:           10 * simtime.Millisecond,
		ParkMax:            80 * simtime.Millisecond,
	})
	// Park once so the backoff exponent is nonzero.
	for i := 0; i < 3; i++ {
		s.NoteFailure("fn")
	}
	clk.Advance(10 * simtime.Millisecond)
	s.NoteSuccess("fn")
	// After a success, the next park starts from ParkBase again.
	for i := 0; i < 3; i++ {
		s.NoteFailure("fn")
	}
	clk.Advance(10 * simtime.Millisecond)
	if err := s.Allow("fn"); err != nil {
		t.Fatalf("backoff did not reset after success: %v", err)
	}
	// And two failures followed by success never park.
	s.NoteFailure("fn")
	s.NoteFailure("fn")
	s.NoteSuccess("fn")
	if s.NoteFailure("fn") {
		t.Fatal("parked despite success clearing the window")
	}
}

func TestFailuresWhileParkedDoNotExtendPark(t *testing.T) {
	s, clk := newSup(Config{
		CrashLoopWindow:    100 * simtime.Millisecond,
		CrashLoopThreshold: 2,
		ParkBase:           10 * simtime.Millisecond,
		ParkMax:            10 * simtime.Millisecond,
	})
	s.NoteFailure("fn")
	if !s.NoteFailure("fn") {
		t.Fatal("second failure did not park")
	}
	// In-flight stragglers failing mid-park must not re-park.
	clk.Advance(5 * simtime.Millisecond)
	if s.NoteFailure("fn") {
		t.Fatal("straggler failure re-parked mid-park")
	}
	clk.Advance(5 * simtime.Millisecond)
	if err := s.Allow("fn"); err != nil {
		t.Fatalf("park extended by straggler: %v", err)
	}
}

func TestConcurrentPollsRunEachProbeOnce(t *testing.T) {
	s, clk := newSup(Config{ProbeInterval: simtime.Millisecond})
	var mu sync.Mutex
	runs := 0
	block := make(chan struct{})
	s.Register("slow", func() (int, int) {
		mu.Lock()
		runs++
		mu.Unlock()
		<-block
		return 1, 0
	})
	clk.Advance(simtime.Millisecond)
	go s.Poll()
	// Wait for the first Poll to be inside the probe.
	for {
		mu.Lock()
		r := runs
		mu.Unlock()
		if r == 1 {
			break
		}
	}
	// A second Poll while the probe is running must skip it.
	s.Poll()
	mu.Lock()
	r := runs
	mu.Unlock()
	if r != 1 {
		t.Fatalf("probe ran concurrently: %d", r)
	}
	close(block)
	s.Close() // waits out the in-flight probe
}

func TestRegisterEveryRunsOnItsOwnCadence(t *testing.T) {
	s, clk := newSup(Config{ProbeInterval: 10 * simtime.Millisecond})
	slow, fast := 0, 0
	s.Register("slow", func() (int, int) { slow++; return 1, 0 })
	s.RegisterEvery("fast", 2*simtime.Millisecond, func() (int, int) { fast++; return 1, 0 })

	for i := 0; i < 10; i++ {
		clk.Advance(2 * simtime.Millisecond)
		s.Poll()
	}
	// 20ms elapsed: the fast probe fired every 2ms, the slow one every
	// 10ms.
	if fast != 10 {
		t.Fatalf("fast runs = %d, want 10", fast)
	}
	if slow != 2 {
		t.Fatalf("slow runs = %d, want 2", slow)
	}

	// A non-positive cadence takes the supervisor default.
	def := 0
	s.RegisterEvery("def", 0, func() (int, int) { def++; return 0, 0 })
	clk.Advance(10 * simtime.Millisecond)
	s.Poll()
	if def != 1 {
		t.Fatalf("default-cadence runs = %d, want 1", def)
	}
}
