// Package workload defines the serverless functions of the paper's
// evaluation as *work specifications*: how much computation, how many
// syscalls/mmaps/file loads, how many heap pages, guest-kernel objects and
// I/O connections a function's initialization and execution perform.
// Startup latency in this reproduction is emergent from these quantities
// and the per-operation costs in internal/costmodel — never from a
// per-(system, workload) lookup table.
//
// The registry covers every workload in the paper: the hello/app pairs of
// Figure 11 (C, Java, Python, Ruby, Node.js), the five DeathStar
// microservices (Figure 13a), the five Pillow image-processing functions
// (Figure 13b), the four E-commerce Java services (Figure 13c), and the
// microbenchmarks of Figure 16.
package workload

import (
	"fmt"
	"reflect"

	"catalyzer/internal/simtime"
	"catalyzer/internal/vfs"
)

// Language is the implementation language of the wrapped program.
type Language string

const (
	C      Language = "c"
	Cpp    Language = "cpp"
	Java   Language = "java"
	Python Language = "python"
	Ruby   Language = "ruby"
	Node   Language = "nodejs"
)

// ConnSpec describes one I/O connection the function holds at its
// func-entry point.
type ConnSpec struct {
	Kind vfs.ConnKind
	Path string
	// Hot connections are used deterministically right after boot; they
	// populate the I/O cache (§3.3).
	Hot bool
}

// Spec is the complete work specification of one serverless function.
// The json tags are the keys of a custom workload document (SpecDoc),
// which describes Conns compactly instead.
type Spec struct {
	Name     string   `json:"name"`
	Language Language `json:"language"`

	// Sandbox-level inputs.
	ConfigKB       int `json:"configKB"`       // OCI configuration size parsed by the gateway
	TaskImagePages int `json:"taskImagePages"` // wrapper/runtime binary pages loaded at sandbox start
	RootMounts     int `json:"rootMounts"`     // filesystem mounts beyond the base rootfs

	// Application initialization (start of wrapped program → func-entry).
	InitComputeMS int `json:"initComputeMS"` // pure CPU initialization (runtime bootstrap, JIT, ...)
	InitSyscalls  int `json:"initSyscalls"`
	InitMmaps     int `json:"initMmaps"`     // address-space manipulations (dominant for managed runtimes)
	InitFiles     int `json:"initFiles"`     // files opened (libraries, class files)
	InitFilePages int `json:"initFilePages"` // 4 KiB pages read from those files
	InitHeapPages int `json:"initHeapPages"` // heap pages dirtied during init (the func-image memory section)

	// Guest-kernel population at func-entry.
	KernelObjects int `json:"kernelObjects"` // total objects (§2.2: 37,838 for SPECjbb)
	KernelThreads int `json:"kernelThreads"`
	KernelTimers  int `json:"kernelTimers"`

	Conns []ConnSpec `json:"-"`

	// Execution (handler).
	ExecComputeUS int `json:"execComputeUS"` // handler CPU time in microseconds
	ExecSyscalls  int `json:"execSyscalls"`
	ExecPages     int `json:"execPages"` // heap pages touched (a small fraction of init, Insight II)
	// ExecConns is the number of request-dependent (non-deterministic)
	// connections used per request, beyond the hot startup set.
	ExecConns int `json:"execConns"`
}

// Validate checks internal consistency: no count is negative and the
// counts agree with each other.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("workload: empty name")
	}
	if s.Language == "" {
		return fmt.Errorf("workload %s: empty language", s.Name)
	}
	v := reflect.ValueOf(s).Elem()
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Int && f.Int() < 0 {
			return fmt.Errorf("workload %s: %s %d is negative", s.Name, v.Type().Field(i).Name, f.Int())
		}
	}
	if s.ExecPages > s.InitHeapPages {
		return fmt.Errorf("workload %s: ExecPages %d exceeds InitHeapPages %d (Insight II violated)", s.Name, s.ExecPages, s.InitHeapPages)
	}
	if s.ExecConns > len(s.Conns)-s.HotConns() {
		return fmt.Errorf("workload %s: ExecConns %d exceeds %d non-hot conns", s.Name, s.ExecConns, len(s.Conns)-s.HotConns())
	}
	if s.KernelObjects < s.KernelThreads+s.KernelTimers+6 {
		return fmt.Errorf("workload %s: KernelObjects %d too small for threads+timers", s.Name, s.KernelObjects)
	}
	if s.ConfigKB <= 0 || s.TaskImagePages <= 0 {
		return fmt.Errorf("workload %s: missing sandbox inputs", s.Name)
	}
	return nil
}

// HotConns returns the number of deterministically-used connections.
func (s *Spec) HotConns() int {
	n := 0
	for _, c := range s.Conns {
		if c.Hot {
			n++
		}
	}
	return n
}

// Profile is the per-sandbox-technology cost of the primitive operations
// application initialization performs. Each boot strategy supplies its
// profile (native, Docker, FireCracker, gVisor, ...).
type Profile struct {
	Name     string
	Syscall  simtime.Duration
	Mmap     simtime.Duration
	FileOpen simtime.Duration
	PageRead simtime.Duration
	// HeapDirty is the per-page cost of first-write initialization; page
	// faults are charged separately by the memory subsystem where one
	// exists.
	HeapDirty simtime.Duration
}

// InitCost returns the application-initialization latency of spec under
// the profile, excluding heap dirtying and page faults — those are
// charged page-by-page by the sandbox as it populates the address space,
// at Profile.HeapDirty per page.
func (s *Spec) InitCost(p Profile) simtime.Duration {
	d := simtime.Duration(s.InitComputeMS) * simtime.Millisecond
	d += simtime.Duration(s.InitSyscalls) * p.Syscall
	d += simtime.Duration(s.InitMmaps) * p.Mmap
	d += simtime.Duration(s.InitFiles) * p.FileOpen
	d += simtime.Duration(s.InitFilePages) * p.PageRead
	return d
}

// ExecCost returns the handler's base execution latency under the
// profile: compute plus its syscalls at the profile's per-syscall cost.
// The sandbox execution path dispatches the syscalls individually through
// the guest kernel's syscall layer; this helper predicts the same total
// for planning and assertions.
func (s *Spec) ExecCost(p Profile) simtime.Duration {
	return s.ExecComputeCost() + simtime.Duration(s.ExecSyscalls)*p.Syscall
}

// ExecComputeCost is the handler's pure CPU time.
func (s *Spec) ExecComputeCost() simtime.Duration {
	return simtime.Duration(s.ExecComputeUS) * simtime.Microsecond
}

// conns generates a connection list with ~22-character paths (so the
// serialized I/O cache matches Table 3's per-entry size), marking the
// first hot of them as deterministic-use.
func conns(prefix string, total, hot int, sockets int) []ConnSpec {
	out := make([]ConnSpec, 0, total)
	for i := 0; i < total; i++ {
		kind := vfs.ConnFile
		if i < sockets {
			kind = vfs.ConnSocket
		}
		out = append(out, ConnSpec{
			Kind: kind,
			Path: fmt.Sprintf("/srv/%s/io-%03d", prefix, i),
			Hot:  i < hot,
		})
	}
	return out
}
