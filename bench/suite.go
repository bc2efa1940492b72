package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

type suiteConfig struct {
	seed    uint64
	seconds int
	runs    int
	traced  bool
	out     string
}

// resultsFile is the -out format that compare reads; its name says which
// commit it measured.
type resultsFile struct {
	Host    string      `json:"host"`
	Seconds int         `json:"seconds"`
	Date    string      `json:"date"`
	Runs    []runRecord `json:"runs"`
}

type runRecord struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Trace    bool    `json:"trace"`
	Result   *result `json:"result"`
}

// runSuite runs every workload, each run in a fresh process of this
// binary, prints the median of every metric, and optionally records
// every run.
func runSuite(root string, cfg suiteConfig) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	rf := resultsFile{Host: hostDescription(), Seconds: cfg.seconds, Date: now().UTC().Format(time.RFC3339)}
	failed := 0
	run := func(name string, seed uint64, trace bool) error {
		rec, err := runChild(self, root, name, seed, cfg.seconds, trace)
		if err != nil {
			return err
		}
		rf.Runs = append(rf.Runs, rec)
		if !rec.Result.Correct {
			failed++
		}
		return nil
	}
	for _, w := range workloads {
		for i := 0; i < cfg.runs; i++ {
			if err := run(w.name, cfg.seed+uint64(i), false); err != nil {
				return err
			}
		}
		if cfg.traced {
			if err := run(w.name, cfg.seed, true); err != nil {
				return err
			}
		}
	}
	printMedians(&rf)
	if cfg.out != "" {
		b, err := json.MarshalIndent(&rf, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d runs had failed operations", failed)
	}
	return nil
}

// runChild runs one workload in a fresh process and parses the result
// from the last line of its output, which it also echoes.
func runChild(self, root, name string, seed uint64, seconds int, trace bool) (runRecord, error) {
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatUint(seed, 10), "-seconds", strconv.Itoa(seconds), "-trace", t)
	cmd.Dir = root
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	err := cmd.Run()
	os.Stdout.Write(out.Bytes())
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
		return runRecord{}, fmt.Errorf("%s seed %d: no result (%v, exit %v)", name, seed, jerr, err)
	}
	return runRecord{Workload: name, Seed: seed, Trace: trace, Result: &res}, nil
}

// printMedians prints, per workload, the median and quartiles of every
// end-to-end metric over the untraced runs.
func printMedians(rf *resultsFile) {
	fmt.Println("\nmedians over untraced runs (q1 .. q3)")
	for _, w := range workloads {
		vals := map[string][]float64{}
		units := map[string]string{}
		for _, r := range rf.Runs {
			if r.Workload != w.name || r.Trace {
				continue
			}
			for name, m := range r.Result.Metrics {
				vals[name] = append(vals[name], m.Value)
				units[name] = m.Unit
			}
		}
		names := make([]string, 0, len(vals))
		for name := range vals {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Printf("%s\n", w.name)
		for _, name := range names {
			q1, q2, q3 := quartiles(vals[name])
			fmt.Printf("  %-24s %12.6g %-5s (%.6g .. %.6g, n=%d)\n", name, q2, units[name], q1, q3, len(vals[name]))
		}
	}
}

func hostDescription() string {
	model := "unknown CPU"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				model = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	return fmt.Sprintf("%s, %d CPUs, %s %s/%s", model, runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}
