package workload

import (
	"encoding/json"
	"errors"
	"fmt"
)

// Custom workload support: downstream users describe their own functions
// as JSON documents and register them alongside the built-in evaluation
// workloads. A spec document carries the Spec fields under their json
// tags plus a compact connection description:
//
//	{
//	  "name": "my-fn", "language": "python",
//	  "configKB": 4, "taskImagePages": 2500, "rootMounts": 2,
//	  "initComputeMS": 80, "initSyscalls": 6000, "initMmaps": 900,
//	  "initFiles": 200, "initFilePages": 3000, "initHeapPages": 9000,
//	  "kernelObjects": 12000, "kernelThreads": 30, "kernelTimers": 10,
//	  "conns": {"total": 24, "hot": 16, "sockets": 4},
//	  "execComputeUS": 5000, "execSyscalls": 700, "execPages": 600,
//	  "execConns": 4
//	}

// SpecDoc is the JSON form of a workload spec.
type SpecDoc struct {
	Spec
	Conns ConnsDoc `json:"conns"`
}

// ConnsDoc describes a function's connection set compactly: Total
// connections, the first Sockets of them sockets and the rest files, the
// first Hot of them hot.
type ConnsDoc struct {
	Total   int `json:"total"`
	Hot     int `json:"hot"`
	Sockets int `json:"sockets"`
}

// ParseSpec decodes and validates a JSON workload document.
func ParseSpec(data []byte) (*Spec, error) {
	var d SpecDoc
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("workload: parse spec: %w", err)
	}
	c := d.Conns
	if min(c.Total, c.Hot, c.Sockets) < 0 || c.Hot > c.Total || c.Sockets > c.Total {
		return nil, fmt.Errorf("workload %s: conns hot/sockets outside 0..total", d.Name)
	}
	prefix := d.Name
	if len(prefix) > 10 {
		prefix = prefix[:10]
	}
	s := &d.Spec
	s.Conns = conns(prefix, c.Total, c.Hot, c.Sockets)
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// ErrAlreadyRegistered is returned by RegisterCustom when the name is
// taken; callers detect it with errors.Is.
var ErrAlreadyRegistered = errors.New("workload: already registered")

// RegisterCustom adds a user-defined spec to the registry. Built-in
// workload names cannot be overridden.
func RegisterCustom(s *Spec) error {
	if err := s.Validate(); err != nil {
		return err
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, exists := registry[s.Name]; exists {
		return fmt.Errorf("%w: %q", ErrAlreadyRegistered, s.Name)
	}
	c := *s
	c.Conns = append([]ConnSpec(nil), s.Conns...)
	registry[s.Name] = &c
	return nil
}

// Unregister removes a previously registered custom workload. Built-in
// workloads cannot be removed. It reports whether a custom workload was
// removed.
func Unregister(name string) bool {
	regMu.Lock()
	defer regMu.Unlock()
	if builtins[name] {
		return false
	}
	if _, ok := registry[name]; !ok {
		return false
	}
	delete(registry, name)
	return true
}
