package main

import "time"

// The simulator keeps virtual time only and must never read the host's
// clock; the benchmark measures exactly that clock. These are its only
// reads of it.

func now() time.Time {
	//lint:allow wallclock wall-clock reads waived: the benchmark measures the simulator's real cost
	return time.Now()
}

func since(t time.Time) time.Duration { return now().Sub(t) }

// after is time.After, for the benchmark's own timeouts.
func after(d time.Duration) <-chan time.Time {
	//lint:allow wallclock wall-clock timer waived: a timeout on a child process the benchmark started
	return time.After(d)
}
