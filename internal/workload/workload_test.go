package workload

import (
	"strings"
	"testing"

	"catalyzer/internal/simtime"
)

func TestAllRegisteredSpecsValid(t *testing.T) {
	names := Names()
	if len(names) < 25 {
		t.Fatalf("registry has %d workloads, want >= 25", len(names))
	}
	for _, n := range names {
		s, err := Registry(n)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", n, err)
		}
	}
}

func TestRegistryReturnsCopies(t *testing.T) {
	a := MustGet("c-hello")
	a.InitComputeMS = 99999
	b := MustGet("c-hello")
	if b.InitComputeMS == 99999 {
		t.Fatal("Registry returned shared spec")
	}
}

func TestRegistryUnknown(t *testing.T) {
	if _, err := Registry("no-such-workload"); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestWorkloadGroupsComplete(t *testing.T) {
	if len(Figure11Workloads) != 10 {
		t.Fatalf("Figure 11 has %d workloads, want 10", len(Figure11Workloads))
	}
	if got := len(EndToEndWorkloads()); got != 14 {
		t.Fatalf("end-to-end set has %d functions, want 14 (Figure 1)", got)
	}
	for _, n := range append(Figure11Workloads, EndToEndWorkloads()...) {
		if _, err := Registry(n); err != nil {
			t.Errorf("group references unregistered workload %s", n)
		}
	}
}

func TestValidateCatchesInconsistencies(t *testing.T) {
	base := MustGet("c-hello")
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"empty name", func(s *Spec) { s.Name = "" }},
		{"empty language", func(s *Spec) { s.Language = "" }},
		{"exec pages exceed heap", func(s *Spec) { s.ExecPages = s.InitHeapPages + 1 }},
		{"exec conns exceed conns", func(s *Spec) { s.ExecConns = len(s.Conns) + 1 }},
		{"too few kernel objects", func(s *Spec) { s.KernelObjects = 1 }},
		{"missing config", func(s *Spec) { s.ConfigKB = 0 }},
		{"negative init syscalls", func(s *Spec) { s.InitSyscalls = -5000 }},
		{"negative init compute", func(s *Spec) { s.InitComputeMS = -1 }},
		{"negative root mounts", func(s *Spec) { s.RootMounts = -1 }},
		{"negative exec compute", func(s *Spec) { s.ExecComputeUS = -1 }},
		{"negative exec syscalls", func(s *Spec) { s.ExecSyscalls = -1 }},
		{"negative kernel threads", func(s *Spec) { s.KernelThreads = -1 }},
	}
	for _, c := range cases {
		s := *base
		s.Conns = append([]ConnSpec(nil), base.Conns...)
		c.mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate passed", c.name)
		}
	}
}

func TestInitCostScalesWithProfile(t *testing.T) {
	s := MustGet("java-hello")
	native := Profile{Name: "native", Syscall: 400 * simtime.Nanosecond, Mmap: 2 * simtime.Microsecond,
		FileOpen: 2 * simtime.Microsecond, PageRead: 800 * simtime.Nanosecond, HeapDirty: simtime.Microsecond}
	gvisor := Profile{Name: "gvisor", Syscall: 4 * simtime.Microsecond, Mmap: 150 * simtime.Microsecond,
		FileOpen: 200 * simtime.Microsecond, PageRead: 2500 * simtime.Nanosecond, HeapDirty: simtime.Microsecond}

	n := s.InitCost(native)
	g := s.InitCost(gvisor)
	// Table 2: Java-hello is 89.4 ms native vs 659.1 ms gVisor; app init
	// accounts for the bulk of the gap.
	if n < 70*simtime.Millisecond || n > 110*simtime.Millisecond {
		t.Fatalf("native java-hello init = %v, want ~86ms", n)
	}
	if g < 420*simtime.Millisecond || g > 620*simtime.Millisecond {
		t.Fatalf("gvisor java-hello init = %v, want ~510ms", g)
	}
	if g < 4*n {
		t.Fatalf("gvisor/native init ratio %.1f too small", float64(g)/float64(n))
	}
}

func TestSPECjbbCalibration(t *testing.T) {
	s := MustGet("java-specjbb")
	if s.KernelObjects != 37838 {
		t.Fatalf("SPECjbb kernel objects = %d, want 37838 (§2.2)", s.KernelObjects)
	}
	if got := s.InitHeapPages * 4096 / (1 << 20); got != 200 {
		t.Fatalf("SPECjbb app memory = %d MB, want 200 (§2.2)", got)
	}
	gvisor := Profile{Syscall: 4 * simtime.Microsecond, Mmap: 150 * simtime.Microsecond,
		FileOpen: 200 * simtime.Microsecond, PageRead: 2500 * simtime.Nanosecond, HeapDirty: simtime.Microsecond}
	init := s.InitCost(gvisor)
	// Figure 2: 1850 ms for JVM start + class loading under gVisor.
	if init < 1500*simtime.Millisecond || init > 2200*simtime.Millisecond {
		t.Fatalf("SPECjbb gVisor init = %v, want ~1850ms", init)
	}
}

func TestHotConns(t *testing.T) {
	s := MustGet("java-specjbb")
	if got := s.HotConns(); got != 96 {
		t.Fatalf("SPECjbb hot conns = %d, want 96 (Table 3: 2.4KB I/O cache)", got)
	}
	// Hot conn paths must serialize to ~25 bytes each for Table 3.
	for _, c := range s.Conns[:3] {
		entry := 2 + len(c.Path) + 1
		if entry < 22 || entry > 28 {
			t.Fatalf("conn path %q serializes to %d bytes, want ~25", c.Path, entry)
		}
	}
}

func TestExecCost(t *testing.T) {
	s := MustGet("deathstar-text")
	p := Profile{Syscall: 4 * simtime.Microsecond}
	got := s.ExecCost(p)
	want := 1200*simtime.Microsecond + 150*4*simtime.Microsecond
	if got != want {
		t.Fatalf("ExecCost = %v, want %v", got, want)
	}
	if got > 3*simtime.Millisecond {
		t.Fatal("DeathStar execution must stay under 2.5ms (Figure 13a)")
	}
}

func TestConnPathsUniquePerWorkload(t *testing.T) {
	for _, n := range Names() {
		s := MustGet(n)
		seen := map[string]bool{}
		for _, c := range s.Conns {
			if seen[c.Path] {
				t.Errorf("%s: duplicate conn path %s", n, c.Path)
			}
			seen[c.Path] = true
			if !strings.HasPrefix(c.Path, "/") {
				t.Errorf("%s: relative conn path %s", n, c.Path)
			}
		}
	}
}

func TestLateEntryVariantsShiftWork(t *testing.T) {
	early := MustGet("c-memread")
	late := MustGet("c-memread-late")
	p := Profile{Syscall: 4 * simtime.Microsecond, Mmap: 150 * simtime.Microsecond,
		FileOpen: 200 * simtime.Microsecond, PageRead: 2500 * simtime.Nanosecond, HeapDirty: simtime.Microsecond}
	if late.ExecCost(p) >= early.ExecCost(p) {
		t.Fatal("late entry point did not reduce execution latency")
	}
	if late.InitCost(p) <= early.InitCost(p) {
		t.Fatal("late entry point did not grow captured init work")
	}
	// Figure 16-a: ~3x execution reduction.
	ratio := float64(early.ExecCost(p)) / float64(late.ExecCost(p))
	if ratio < 2 || ratio > 5 {
		t.Fatalf("exec reduction = %.1fx, want ~3x", ratio)
	}
}
