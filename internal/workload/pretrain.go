package workload

import "fmt"

// User-guided pre-initialization (§6.7): "a platform can even warm up
// some dependencies of a function with user-provided requests as training
// and use the warmed state as func-image". PreInitVariant derives the
// trained form of a spec: a fraction of the handler's per-request
// preparation work (compute, syscalls, working-set population) moves into
// initialization, where a checkpoint captures it. The c-memread-late and
// java-specjbb-late registry entries are hand-tuned instances of the same
// transformation; this derives it for any function.

// PreInitVariant returns a copy of s with the given fraction (0..1) of
// its execution work captured at initialization time. The derived spec is
// registered under "<name>@pretrained" by PrepareTrained-style callers.
func PreInitVariant(s *Spec, fraction float64) (*Spec, error) {
	if !(fraction > 0 && fraction < 1) { // also refuses NaN
		return nil, fmt.Errorf("workload: pre-init fraction %.2f outside (0,1)", fraction)
	}
	v := *s
	v.Conns = append([]ConnSpec(nil), s.Conns...)
	v.Name = s.Name + "@pretrained"

	moveInt := func(total int, f float64) (stays, moves int) {
		moves = int(float64(total) * f)
		return total - moves, moves
	}

	// Compute and syscalls issued while warming dependencies happen once
	// at training time instead of per request.
	execCompute, initCompute := moveInt(s.ExecComputeUS, fraction)
	v.ExecComputeUS = execCompute
	v.InitComputeMS = s.InitComputeMS + initCompute/1000
	execSys, initSys := moveInt(s.ExecSyscalls, fraction)
	v.ExecSyscalls = execSys
	v.InitSyscalls = s.InitSyscalls + initSys

	// The warmed working set becomes part of the captured heap: those
	// pages are in the func-image, so execution no longer faults them.
	execPages, warmedPages := moveInt(s.ExecPages, fraction)
	v.ExecPages = execPages
	v.InitHeapPages = s.InitHeapPages + warmedPages

	// Training also surfaces more connections as deterministic: the
	// request-dependent set shrinks.
	execConns, warmedConns := moveInt(s.ExecConns, fraction)
	v.ExecConns = execConns
	hot := 0
	for i := range v.Conns {
		if !v.Conns[i].Hot && warmedConns > 0 {
			v.Conns[i].Hot = true
			warmedConns--
		}
		if v.Conns[i].Hot {
			hot++
		}
	}

	// Warming creates some additional kernel state (loaded modules,
	// cached handles).
	v.KernelObjects = s.KernelObjects + s.ExecSyscalls/10

	if err := v.Validate(); err != nil {
		return nil, fmt.Errorf("workload: derived pre-init variant invalid: %w", err)
	}
	return &v, nil
}
