// Package sandbox implements the sandbox runtime: the simulated host
// machine, the full cold-boot path of a virtualization-based sandbox
// (configuration parse → process boot → KVM/guest-kernel setup → rootfs
// mounts → task image → application initialization, Figure 2), handler
// execution, func-image construction at the func-entry point, and the
// gVisor-restore baseline (§2.2). Catalyzer's own boot paths build on
// these pieces in internal/core.
package sandbox

import (
	"errors"
	"fmt"

	"catalyzer/internal/costmodel"
	"catalyzer/internal/faults"
	"catalyzer/internal/host"
	"catalyzer/internal/memory"
	"catalyzer/internal/simenv"
	"catalyzer/internal/simtime"
	"catalyzer/internal/workload"
)

// Machine is one simulated host: a virtual clock, physical memory, the
// KVM device, and a host PID allocator. Everything booted on the same
// Machine shares frames (which is what makes overlay-memory sharing and
// PSS observable).
type Machine struct {
	Env     *simenv.Env
	Frames  *memory.FrameTable
	KVM     *host.KVM
	nextPID int
	live    int

	// Faults, when non-nil, is the machine's fault injector; boot paths
	// consult it at each injection site. Nil (the default) is inert.
	Faults *faults.Injector

	// capacityPages bounds host physical memory; zero means unlimited.
	capacityPages int

	// configLen is the length of each function configuration document
	// ParseConfig has generated and parsed (see configKey).
	configLen map[configKey]int
}

// ErrOutOfMemory is returned when a boot's admission estimate does not
// fit the machine's physical memory.
var ErrOutOfMemory = errors.New("sandbox: machine out of memory")

// NewMachine creates a machine with the given cost model. KVM starts with
// the paper's tuned defaults (PML disabled "for both the baseline and our
// systems", §6.7; the allocation cache stays off until Catalyzer enables
// it).
func NewMachine(cost *costmodel.Model) *Machine {
	env := simenv.New(cost)
	kvm := host.NewKVM(env)
	kvm.PML = false
	return &Machine{
		Env:       env,
		Frames:    memory.NewFrameTable(),
		KVM:       kvm,
		nextPID:   1000,
		configLen: make(map[configKey]int),
	}
}

// SpawnProcess allocates a host PID.
func (m *Machine) SpawnProcess() int {
	m.nextPID++
	return m.nextPID
}

// SetMemoryCapacity bounds the machine's physical memory in pages (0 =
// unlimited). Boots perform admission control against it, which is what
// makes the paper's density argument observable: private-memory sandboxes
// exhaust a machine that page-sharing Catalyzer instances do not (§2.2:
// "caching all the functions in memory will introduce high resource
// overhead").
func (m *Machine) SetMemoryCapacity(pages int) { m.capacityPages = pages }

// MemoryCapacity returns the configured capacity in pages (0 =
// unlimited).
func (m *Machine) MemoryCapacity() int { return m.capacityPages }

// AdmitPages checks that n more resident pages fit the machine.
func (m *Machine) AdmitPages(n int) error {
	if m.capacityPages == 0 {
		return nil
	}
	if m.Frames.Live()+n > m.capacityPages {
		return fmt.Errorf("%w: %d live + %d requested > %d capacity",
			ErrOutOfMemory, m.Frames.Live(), n, m.capacityPages)
	}
	return nil
}

// Live returns the number of sandboxes currently alive on the machine,
// including any being booted. Boot paths charge per-running-instance
// interference against it (Figure 15).
func (m *Machine) Live() int { return m.live }

// Now returns the machine's virtual time.
func (m *Machine) Now() simtime.Duration { return m.Env.Now() }

// NativeProfile is the cost profile of running the wrapped program
// directly on the host (Table 2's "Native" column).
func NativeProfile(c *costmodel.Model) workload.Profile {
	return workload.Profile{
		Name:      "native",
		Syscall:   c.SyscallNative,
		Mmap:      c.MmapNative,
		FileOpen:  c.FileOpenNative,
		PageRead:  c.PageReadNative,
		HeapDirty: c.HeapDirtyPage,
	}
}

// GVisorProfile is the cost profile inside a gVisor sandbox: syscalls
// trap to the Sentry, address-space changes update the EPT, and file I/O
// crosses to the Gofer process.
func GVisorProfile(c *costmodel.Model) workload.Profile {
	return workload.Profile{
		Name:      "gvisor",
		Syscall:   c.SyscallGVisor,
		Mmap:      c.MmapGVisor,
		FileOpen:  c.FileOpenGVisor,
		PageRead:  c.PageReadGVisor,
		HeapDirty: c.HeapDirtyPage,
	}
}

// MicroVMProfile is the cost profile inside a microVM running a real
// Linux guest (FireCracker, Hyper Container): near-native syscalls, with
// virtio-backed file I/O somewhat slower than the host.
func MicroVMProfile(c *costmodel.Model) workload.Profile {
	return workload.Profile{
		Name:      "microvm",
		Syscall:   c.SyscallNative + c.SyscallNative/2,
		Mmap:      c.MmapNative + c.MmapNative/2,
		FileOpen:  5 * c.FileOpenNative,
		PageRead:  c.PageReadNative + c.PageReadNative/2,
		HeapDirty: c.HeapDirtyPage,
	}
}

// ContainerProfile is the cost profile inside an OS container (Docker):
// native syscalls with overlayfs adding a little file-open cost.
func ContainerProfile(c *costmodel.Model) workload.Profile {
	return workload.Profile{
		Name:      "container",
		Syscall:   c.SyscallNative,
		Mmap:      c.MmapNative,
		FileOpen:  2 * c.FileOpenNative,
		PageRead:  c.PageReadNative,
		HeapDirty: c.HeapDirtyPage,
	}
}
