package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
)

// machineIdx parses the required idx query parameter.
func machineIdx(r *http.Request) (int, error) {
	v := r.URL.Query().Get("idx")
	if v == "" {
		return 0, fmt.Errorf("missing idx parameter")
	}
	idx, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("bad idx %q", v)
	}
	return idx, nil
}

// kill crashes a machine (chaos hook): state lost, functions re-place
// and re-replicate onto survivors.
func (s *server) kill(w http.ResponseWriter, r *http.Request) {
	idx, err := machineIdx(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := s.fleet.KillMachine(idx); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	fmt.Fprintf(w, "killed machine %d\n", idx)
}

// restart re-admits a down machine (a crashed one comes back empty and
// is re-replicated onto; a partitioned one rejoins with state intact).
func (s *server) restart(w http.ResponseWriter, r *http.Request) {
	idx, err := machineIdx(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := s.fleet.RestartMachine(idx); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	fmt.Fprintf(w, "restarted machine %d\n", idx)
}

// machines lists the membership view.
func (s *server) machines(w http.ResponseWriter, _ *http.Request) {
	type machineJSON struct {
		Index   int     `json:"index"`
		Zone    string  `json:"zone"`
		State   string  `json:"state"`
		Crashed bool    `json:"crashed"`
		Epoch   int     `json:"epoch"`
		Live    int     `json:"live_instances"`
		ClockMS float64 `json:"virtual_clock_ms"`
		Ejected bool    `json:"ejected"`
		ScoreMS float64 `json:"score_ms"`
		Samples int     `json:"score_samples"`
	}
	out := make([]machineJSON, 0, s.fleet.Size())
	for _, m := range s.fleet.Machines() {
		out = append(out, machineJSON{
			Index:   m.Index,
			Zone:    m.Zone,
			State:   m.State,
			Crashed: m.Crashed,
			Epoch:   m.Epoch,
			Live:    m.Live,
			ClockMS: float64(m.Clock) / 1e6,
			Ejected: m.Ejected,
			ScoreMS: float64(m.Score) / 1e6,
			Samples: m.Samples,
		})
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out)
}
