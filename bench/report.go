package main

import (
	"encoding/json"
	"fmt"
	"io"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's verdict: the last line of its standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	report *report
}

// A report collects a run's metrics in the order they are printed, each
// with a note on how it was measured.
type report struct {
	names   []string
	metrics map[string]metric
	notes   map[string]string
	extra   []string // names of notes without a metric
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, notes: map[string]string{}}
}

func (r *report) add(name string, value float64, unit, note string) {
	if _, dup := r.metrics[name]; !dup {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{Value: value, Unit: unit}
	if note != "" {
		r.notes[name] = note
	}
}

func (r *report) note(name, text string) {
	if _, ok := r.notes[name]; !ok {
		r.extra = append(r.extra, name)
	}
	r.notes[name] = text
}

// print writes the human-readable lines of a run, then its result as one
// JSON object on the last line.
func (res *result) print(w io.Writer, header string) error {
	r := res.report
	fmt.Fprintln(w, header)
	for _, name := range r.names {
		m := r.metrics[name]
		fmt.Fprintf(w, "  %-40s %14.6g %-8s %s\n", name, m.Value, m.Unit, r.notes[name])
	}
	for _, name := range r.extra {
		fmt.Fprintf(w, "  %-40s %s\n", name, r.notes[name])
	}
	res.Metrics = r.metrics
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
