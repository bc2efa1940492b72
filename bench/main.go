// Command bench is the repository benchmark: it drives seeded workloads
// through the public serving surfaces (catalyzer.Fleet in-process and
// the catalyzerd HTTP daemon), checks every reply, and reports
// end-to-end metrics on both clocks — wall clock and allocations (the
// simulator's own cost) and virtual time (the modelled latency). A
// traced run replays each workload at every layer's entry point and
// reports per-layer metrics. See README.md.
//
//	bench -workload fleet-mix -seed 1 -seconds 12 -trace 0   one run, one workload
//	bench -runs 5 -traced -out results.json                  a full set, each run in a fresh process
//	bench compare old.json new.json                          compare two full sets
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "reference" {
		// The child a run measures the host's speed with; see refProbe.
		if err := serveReference(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "bench reference: %v\n", err)
			os.Exit(1)
		}
		return
	}
	name := flag.String("workload", "", "workload to run; empty runs every workload, each in a fresh process")
	seed := flag.Uint64("seed", 1, "seed of the request trace and the fault injector")
	seconds := flag.Int("seconds", defaultSeconds, "cap on the timed window in seconds; a run that passes it fails")
	trace := flag.Int("trace", 0, "1 replays the workload layer by layer and reports per-layer metrics")
	runs := flag.Int("runs", 1, "full set: untraced runs per workload, seeds seed, seed+1, ...")
	traced := flag.Bool("traced", false, "full set: add one traced run per workload")
	out := flag.String("out", "", "full set: write every run's result to this JSON file")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) || *runs < 1 {
		flag.Usage()
		os.Exit(2)
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(2)
	}
	if *name == "" {
		err = runSuite(root, suiteConfig{seed: *seed, seconds: *seconds, runs: *runs, traced: *traced, out: *out})
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	w, err := workloadNamed(*name)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(2)
	}
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(2)
	}
	e := &env{root: root}
	ctx := context.Background()
	var res *result
	listed := spec.EndToEnd
	if *trace == 1 {
		listed = spec.PerLayer
		res, err = e.runTraced(ctx, w, *seed, *seconds)
	} else {
		res, err = e.runE2E(ctx, w, *seed, *seconds)
	}
	if err == nil {
		err = checkNames(res.report, listed)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	stdout := bufio.NewWriter(os.Stdout)
	header := fmt.Sprintf("workload %s  seed %d  seconds %d  trace %d  clients %d", w.name, *seed, *seconds, *trace, w.clients)
	if err := res.print(stdout, header); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	if err := stdout.Flush(); err != nil {
		os.Exit(1)
	}
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "bench: %s: %d of %d operations failed\n", w.name, res.Failed, res.Attempted)
		os.Exit(1)
	}
}

// defaultSeconds is the cap BENCHMARK.json runs with.
const defaultSeconds = 30

// findRoot walks up from the working directory to the checkout root: the
// directory whose go.mod declares module catalyzer.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && modulePath(string(b)) == "catalyzer" {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no catalyzer checkout (go.mod declaring module catalyzer) at or above the working directory")
		}
		dir = parent
	}
}

func modulePath(gomod string) string {
	for _, line := range strings.Split(gomod, "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	return ""
}
