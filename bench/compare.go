package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the benchmark reads: the
// workloads and the metrics with their bounds.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &s, nil
}

func loadResults(path string) (*resultsFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultsFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &rf, nil
}

// checkNames verifies that a run reports exactly the metrics BENCHMARK.json
// lists for it.
func checkNames(r *report, listed []specMetric) error {
	want := map[string]string{}
	for _, m := range listed {
		want[m.Name] = m.Unit
	}
	for name, m := range r.metrics {
		unit, ok := want[name]
		if !ok {
			return fmt.Errorf("metric %s is not listed in BENCHMARK.json", name)
		}
		if unit != m.Unit {
			return fmt.Errorf("metric %s has unit %s, BENCHMARK.json says %s", name, m.Unit, unit)
		}
	}
	for name := range want {
		if _, ok := r.metrics[name]; !ok {
			return fmt.Errorf("BENCHMARK.json lists %s, which the run did not report", name)
		}
	}
	return nil
}

// A verdict compares one metric of one workload between two sets of runs.
type verdict struct {
	workload, metric string
	unit             string
	old, new         summary
	worse            float64 // relative change of the median; positive is worse
	bound            float64
	spread           float64 // the old side's (q3-q1)/median
	wins             float64 // share of (old, new) run pairs the new side wins
	call             string
}

type summary struct {
	q1, med, q3 float64
	n           int
}

func summarize(v []float64) summary {
	q1, med, q3 := quartiles(v)
	return summary{q1, med, q3, len(v)}
}

// exact reports whether a metric must repeat exactly for the same seed.
// The virtual-time metrics depend on the seed alone, so compare pairs
// their runs by seed and allows no change at all. Their bound in
// BENCHMARK.json covers only how they spread across seeds.
func exact(m specMetric) bool { return strings.HasPrefix(m.Name, "virt_") }

// sameTolerance absorbs the float rounding of summing one run's samples
// in another order.
const sameTolerance = 1e-9

// judge applies the regression rules to one metric: "regression" when
// the new median is worse by more than the bound; "unresolved" when the
// old runs spread wider than the bound, unless every new run beats every
// old run; "better" when the new side wins at least nine tenths of all run
// pairs and its median moved by more than the old side's spread; "ok"
// otherwise.
func judge(m specMetric, old, new []float64) verdict {
	v := verdict{metric: m.Name, unit: m.Unit, old: summarize(old), new: summarize(new), bound: m.Bound}
	sign := 1.0
	if m.Better == "higher" {
		sign = -1
	}
	v.worse = sign*(v.new.med-v.old.med)/v.old.med + 0 // +0 turns -0 into 0
	v.spread = (v.old.q3 - v.old.q1) / v.old.med
	won, pairs := 0, 0
	for _, o := range old {
		for _, n := range new {
			pairs++
			if sign*(n-o) < 0 {
				won++
			}
		}
	}
	v.wins = float64(won) / float64(pairs)
	switch {
	case v.spread > m.Bound && v.wins == 1:
		v.call = "better"
	case v.spread > m.Bound:
		v.call = "unresolved"
	case v.worse > m.Bound:
		v.call = "regression"
	case v.wins >= 0.9 && -v.worse > v.spread:
		v.call = "better"
	default:
		v.call = "ok"
	}
	return v
}

// judgeExact compares an exact metric run by run, pairing runs of the
// same seed: "regression" if any pair got worse, "better" if none did
// and some improved, "ok" if every pair is the same, and "unpaired" if
// the two sets share no seed.
func judgeExact(m specMetric, old, new map[uint64]float64) verdict {
	v := verdict{metric: m.Name, unit: m.Unit, old: summarize(values(old)), new: summarize(values(new)), call: "unpaired"}
	sign := 1.0
	if m.Better == "higher" {
		sign = -1
	}
	pairs, worse, better := 0, 0, 0
	for seed, o := range old {
		n, ok := new[seed]
		if !ok {
			continue
		}
		pairs++
		switch d := sign * (n - o); {
		case d > sameTolerance*math.Abs(o):
			worse++
		case -d > sameTolerance*math.Abs(o):
			better++
		}
	}
	if pairs == 0 {
		return v
	}
	v.wins = float64(better) / float64(pairs)
	v.worse = sign*(v.new.med-v.old.med)/v.old.med + 0
	switch {
	case worse > 0:
		v.call = "regression"
	case better > 0:
		v.call = "better"
	default:
		v.call = "ok"
	}
	return v
}

// runValues collects one metric's value, by seed, for a workload over
// the traced or untraced runs of a results file.
func runValues(rf *resultsFile, workload, metric string, trace bool) map[uint64]float64 {
	out := map[uint64]float64{}
	for _, r := range rf.Runs {
		if r.Workload != workload || r.Trace != trace || r.Result == nil {
			continue
		}
		if m, ok := r.Result.Metrics[metric]; ok {
			out[r.Seed] = m.Value
		}
	}
	return out
}

func values(bySeed map[uint64]float64) []float64 {
	out := make([]float64, 0, len(bySeed))
	for _, v := range bySeed {
		out = append(out, v)
	}
	return out
}

// compareSets judges every end-to-end metric of every workload.
func compareSets(spec *benchSpec, old, new *resultsFile) []verdict {
	var out []verdict
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			ov, nv := runValues(old, w.Name, m.Name, false), runValues(new, w.Name, m.Name, false)
			var v verdict
			switch {
			case len(ov) == 0 || len(nv) == 0:
				v = verdict{metric: m.Name, unit: m.Unit, bound: m.Bound, call: "missing"}
			case exact(m):
				v = judgeExact(m, ov, nv)
			default:
				v = judge(m, values(ov), values(nv))
			}
			v.workload = w.Name
			out = append(out, v)
		}
	}
	return out
}

func printVerdicts(w io.Writer, spec *benchSpec, vs []verdict) {
	exactMetric := map[string]bool{}
	for _, m := range spec.EndToEnd {
		exactMetric[m.Name] = exact(m)
	}
	fmt.Fprintf(w, "%-12s %-26s %-30s %-30s %8s %6s %6s  %s\n", "workload", "metric", "old median [q1 q3] n", "new median [q1 q3] n", "worse", "bound", "spread", "verdict")
	for _, v := range vs {
		bound := fmt.Sprintf("%5.0f%%", 100*v.bound)
		if exactMetric[v.metric] {
			bound = " exact"
		}
		if v.call == "missing" || v.call == "unpaired" {
			fmt.Fprintf(w, "%-12s %-26s %-30s %-30s %8s %6s %6s  %s\n", v.workload, v.metric, "-", "-", "-", bound, "-", v.call)
			continue
		}
		side := func(s summary) string {
			return fmt.Sprintf("%.4g [%.4g %.4g] %d", s.med, s.q1, s.q3, s.n)
		}
		fmt.Fprintf(w, "%-12s %-26s %-30s %-30s %+7.1f%% %6s %5.1f%%  %s\n",
			v.workload, v.metric, side(v.old), side(v.new), 100*v.worse, bound, 100*v.spread, v.call)
	}
}

// printLayerChanges lists, per workload, how each per-layer metric of the
// traced runs moved. Per-layer metrics have no bound; this shows where a
// change's effect appears.
func printLayerChanges(w io.Writer, spec *benchSpec, old, new *resultsFile) {
	fmt.Fprintln(w, "\nper-layer medians of the traced runs (no bound)")
	for _, wl := range spec.Workloads {
		var lines []string
		for _, m := range spec.PerLayer {
			ov, nv := runValues(old, wl.Name, m.Name, true), runValues(new, wl.Name, m.Name, true)
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			o, n := median(values(ov)), median(values(nv))
			change := "   n/a"
			if o != 0 {
				change = fmt.Sprintf("%+6.1f%%", 100*(n-o)/o)
			}
			lines = append(lines, fmt.Sprintf("  %-42s %12.6g -> %-12.6g %s %s", m.Name, o, n, m.Unit, change))
		}
		if len(lines) > 0 {
			sort.Strings(lines)
			fmt.Fprintf(w, "%s\n", wl.Name)
			for _, l := range lines {
				fmt.Fprintln(w, l)
			}
		}
	}
}

// compareMain implements "bench compare old.json new.json" under the
// checkout's BENCHMARK.json: it exits 1 when any end-to-end metric
// regressed.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare old.json new.json")
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench compare: %v\n", err)
		return 2
	}
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench compare: %v\n", err)
		return 2
	}
	var sets [2]*resultsFile
	for i, path := range args {
		if sets[i], err = loadResults(path); err != nil {
			fmt.Fprintf(os.Stderr, "bench compare: %v\n", err)
			return 2
		}
	}
	fmt.Printf("old: %s (%s)\nnew: %s (%s)\n\n", args[0], sets[0].Host, args[1], sets[1].Host)
	vs := compareSets(spec, sets[0], sets[1])
	printVerdicts(os.Stdout, spec, vs)
	printLayerChanges(os.Stdout, spec, sets[0], sets[1])
	for _, v := range vs {
		if v.call == "regression" {
			return 1
		}
	}
	return 0
}
