package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// refNominal is the reference loop's typical duration between rounds on
// the host the bounds were sized on (2 vCPUs of an Intel Xeon under
// Firecracker). Wall-clock and CPU metrics are reported at that speed:
// each raw time is scaled by refNominal over the reference time measured
// beside it.
const refNominal = 18 * time.Millisecond

// refEntries is the size of the reference loop's page table.
const refEntries = 150_000

var (
	// refTable and refClone are built on the first call and refilled on
	// every later one, so the loop allocates nothing once running and
	// never waits on a garbage collection.
	refTable, refClone map[uint64]uint64
	// refSink keeps the reference loop's result alive.
	refSink uint64
)

// reference runs a fixed CPU workload and returns how long it took. The
// workload lives in the benchmark, so no change to the program under test
// moves it; what moves it is the host's momentary speed, which on a shared
// machine drifts by tens of percent over seconds. It does what the
// simulator's page tables do: fill a map of 150,000 page numbers, copy it
// into a second, and walk both. Of the loops tried, this one tracked the
// simulator's own speed most closely.
func reference() time.Duration {
	if refTable == nil {
		refTable, refClone = make(map[uint64]uint64, refEntries), make(map[uint64]uint64, refEntries)
	}
	clear(refTable)
	clear(refClone)
	start := now()
	for i := uint64(0); i < refEntries; i++ {
		refTable[i*4096+i%7] = i
	}
	for k, v := range refTable {
		refClone[k] = v + 1
	}
	var sum uint64
	for k := range refTable {
		sum += refClone[k]
	}
	refSink += sum
	return since(start)
}

// atReference scales a raw duration measured while the reference loop
// took ref to the reference host speed.
func atReference(raw, ref time.Duration) float64 {
	return float64(raw) * float64(refNominal) / float64(ref)
}

// A refProbe runs the reference loop in a child process of its own. In
// the benchmark's process the loop's maps would sit in the heap of the
// program under test, adding to its RSS and moving its GC pacing, and
// the loop would be slowed by that program's collections: it would then
// track the program's heap, not the host.
type refProbe struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Scanner
}

// startRefProbe starts this binary as "bench reference".
func startRefProbe() (*refProbe, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "reference")
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start reference probe: %w", err)
	}
	return &refProbe{cmd: cmd, in: in, out: bufio.NewScanner(out)}, nil
}

// measure runs the reference loop once in the child and returns its
// duration.
func (p *refProbe) measure() (time.Duration, error) {
	if _, err := io.WriteString(p.in, "\n"); err != nil {
		return 0, fmt.Errorf("reference probe: %w", err)
	}
	if !p.out.Scan() {
		return 0, fmt.Errorf("reference probe exited: %v", p.out.Err())
	}
	ns, err := strconv.ParseInt(p.out.Text(), 10, 64)
	if err != nil || ns <= 0 {
		return 0, fmt.Errorf("reference probe replied %q", p.out.Text())
	}
	return time.Duration(ns), nil
}

// close ends the child, which exits at the end of its input, and waits
// for it.
func (p *refProbe) close() error {
	p.in.Close()
	return p.cmd.Wait()
}

// serveReference is the child's side: one run of the loop for every line
// read, its duration in nanoseconds written back as one line.
func serveReference(in io.Reader, out io.Writer) error {
	lines := bufio.NewScanner(in)
	for lines.Scan() {
		if _, err := fmt.Fprintln(out, int64(reference())); err != nil {
			return err
		}
	}
	if err := lines.Err(); err != nil && !errors.Is(err, io.EOF) {
		return err
	}
	return nil
}
