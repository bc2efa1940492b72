// Package costmodel defines the calibrated virtual-time costs for every
// simulated operation in the Catalyzer reproduction.
//
// Each constant is annotated with the paper measurement it is calibrated
// against. The rule enforced across the repository is that *only* this
// package contains latency constants: boot paths, restore paths, and the
// sfork primitive compute their latency by counting actual operations
// (objects decoded, pages copied, connections reopened, VMAs cloned) and
// charging these per-operation costs. Totals are therefore emergent, and
// changing a design decision (e.g. disabling lazy I/O reconnection)
// changes the measured latency the way it did in the paper's ablations.
package costmodel

import "catalyzer/internal/simtime"

type d = simtime.Duration

const (
	us = simtime.Microsecond
	ms = simtime.Millisecond
	ns = simtime.Nanosecond
)

// Model holds the per-operation virtual costs plus the machine shape.
// The zero value is not useful; construct with Default or Server, or
// load a calibration document with FromJSON. The json tags are that
// document's keys: durations marshal as integer nanoseconds.
type Model struct {
	// NCPU is the number of host cores available for parallel restore
	// stages (the paper's experimental machine has 8, the Ant Financial
	// server 96).
	NCPU int `json:"ncpu"`

	// --- Host kernel & process management -------------------------------

	// HostForkExec is the cost of fork+exec of a host process (the
	// sandbox process and the I/O "Gofer" process). Calibrated against
	// Figure 2's "Boot Sandbox process" step: 0.319 ms.
	HostForkExec d `json:"hostForkExecNS"`

	// SyscallNative is a host-native syscall round trip.
	SyscallNative d `json:"syscallNativeNS"`

	// SyscallGVisor is a syscall intercepted by the user-space guest
	// kernel (Sentry): trap, sentry dispatch, and (often) a host call.
	// gVisor syscall overhead is roughly an order of magnitude over
	// native, consistent with the application-initialization blow-ups in
	// Figure 4 (Java-hello: 89.4 ms native vs 659.1 ms gVisor, Table 2).
	SyscallGVisor d `json:"syscallGVisorNS"`

	// MmapNative / MmapGVisor are address-space manipulation operations
	// (mmap/mprotect/munmap). Under gVisor these require sentry page
	// table and EPT updates and dominate managed-runtime startup.
	MmapNative d `json:"mmapNativeNS"`
	MmapGVisor d `json:"mmapGVisorNS"`

	// FDTableSlot is the per-existing-slot cost of expanding an fdtable.
	// Figure 16-d shows dup/dup2 usually completes in ~1 us but bursts to
	// 30 ms when the kernel expands the fdtable; the burst is modelled as
	// FDTableExpandBase + slots*FDTableSlot charged at the expansion
	// points (powers of two above 64).
	DupBase           d `json:"dupBaseNS"`
	FDTableExpandBase d `json:"fdTableExpandBaseNS"`
	FDTableSlot       d `json:"fdTableSlotNS"`

	// NamespaceSetup is the cost of preparing PID/USER namespaces for a
	// forked sandbox (§4, Challenge-3).
	NamespaceSetup d `json:"namespaceSetupNS"`

	// --- KVM / virtualization -------------------------------------------

	// KVMCreateVM covers the create-VM ioctl and initial VM bookkeeping.
	KVMCreateVM d `json:"kvmCreateVMNS"`

	// KVMCreateVCPU is charged per VCPU.
	KVMCreateVCPU d `json:"kvmCreateVCPUNS"`

	// KvcallocCold is one kvcalloc invocation inside KVM without the
	// dedicated cache. Figure 16-b: 250–450 us per invocation; we charge
	// the midpoint.
	KvcallocCold d `json:"kvcallocColdNS"`

	// KvcallocCached is the same allocation served from the dedicated
	// cache Catalyzer adds to KVM. Figure 16-b: <50 us.
	KvcallocCached d `json:"kvcallocCachedNS"`

	// SetMemRegionPML is one set_memory_region ioctl with Page
	// Modification Logging enabled (the KVM default). Figure 16-c:
	// roughly 5–8 ms once PML bookkeeping kicks in.
	SetMemRegionPML d `json:"setMemRegionPMLNS"`

	// SetMemRegionNoPML is the same ioctl with PML disabled: ~10x
	// shorter (Figure 16-c).
	SetMemRegionNoPML d `json:"setMemRegionNoPMLNS"`

	// EPTFault is a hardware EPT violation handled by mapping an
	// existing frame (read fault on Base-EPT, or first touch of an
	// anonymous page).
	EPTFault d `json:"eptFaultNS"`

	// CoWFault is an EPT write violation resolved by copying a 4 KiB
	// page into the Private-EPT.
	CoWFault d `json:"cowFaultNS"`

	// --- Filesystem & I/O -------------------------------------------------

	// MountFS is one mount operation performed by the I/O process.
	MountFS d `json:"mountFSNS"`

	// FileOpenNative / FileOpenGVisor are open() costs; gVisor routes
	// opens through the Gofer process over a 9P-like RPC.
	FileOpenNative d `json:"fileOpenNativeNS"`
	FileOpenGVisor d `json:"fileOpenGVisorNS"`

	// PageReadNative / PageReadGVisor are per-4KiB file read costs.
	// PageReadGVisor is calibrated against Figure 2's "Load task image"
	// (19.889 ms for the JVM's ~8000-page task image => ~2.5 us/page).
	PageReadNative d `json:"pageReadNativeNS"`
	PageReadGVisor d `json:"pageReadGVisorNS"`

	// ConnReconnect is one re-do I/O operation during restore (re-open a
	// file or re-establish a socket through the Gofer). Calibrated
	// against Figure 2's "Reconnect I/O": 79.180 ms for SPECjbb's ~100
	// connections => ~0.75 ms each, plus occasional fdtable bursts.
	ConnReconnect d `json:"connReconnectNS"`

	// ConnReconnectLazy is the bookkeeping cost of tagging a connection
	// "not re-opened yet" instead of re-doing it (§3.3).
	ConnReconnectLazy d `json:"connReconnectLazyNS"`

	// ConnReconnectCached is an I/O-cache-guided reconnect on the warm
	// boot critical path. It is far cheaper than a cold re-do because the
	// FS server pre-grants descriptors and the lazy-dup optimization
	// (§6.7) keeps fdtable expansion off the critical path.
	ConnReconnectCached d `json:"connReconnectCachedNS"`

	// --- Checkpoint / restore ---------------------------------------------

	// ObjectDecode is one-by-one deserialization of a guest-kernel
	// metadata object (the gVisor-restore baseline). Calibrated against
	// §3.2: 37,838 objects for SPECjbb consuming >50 ms of the 56.723 ms
	// "Recover Kernel" step => ~1.5 us/object.
	ObjectDecode d `json:"objectDecodeNS"`

	// ObjectEncode is the offline cost of serializing one object at
	// checkpoint time (off the critical path, but measured for the
	// checkpoint reports).
	ObjectEncode d `json:"objectEncodeNS"`

	// PointerFixup is one relation-table entry rewrite during separated
	// state recovery (§3.2). Fixups are independent and charged in
	// parallel across NCPU. Calibrated so SPECjbb's kernel recovery drops
	// ~7x (Figure 12).
	PointerFixup d `json:"pointerFixupNS"`

	// CriticalObjectRecover is the per-object cost of establishing
	// non-I/O system state that must be live before the function runs
	// (tasks, threads, timers) — the residual critical-path work of
	// stage-2 separated recovery.
	CriticalObjectRecover d `json:"criticalObjectRecoverNS"`

	// PageDecompressCopy is decompress+deserialize+copy of one 4 KiB
	// application-memory page on the gVisor-restore critical path.
	// Calibrated against Figure 2's "Load App memory": 128.805 ms for
	// 200 MB (51,200 pages) => ~2.5 us/page.
	PageDecompressCopy d `json:"pageDecompressCopyNS"`

	// ImageMapRegion is mapping one contiguous func-image region
	// (overlay memory map-file operation, §3.1).
	ImageMapRegion d `json:"imageMapRegionNS"`

	// ShareMapping is inheriting an existing Base-EPT mapping in a warm
	// boot (share-mapping operation, §3.1).
	ShareMapping d `json:"shareMappingNS"`

	// MetadataMapPerKB is mapping the partially-deserialized metadata
	// section into sandbox memory (mmap of already-uncompressed records).
	MetadataMapPerKB d `json:"metadataMapPerKBNS"`

	// DecompressPerKB is flate decompression of checkpoint data on the
	// baseline restore path.
	DecompressPerKB d `json:"decompressPerKBNS"`

	// CompressPerKB is offline flate compression at checkpoint time.
	CompressPerKB d `json:"compressPerKBNS"`

	// --- Sandbox construction ---------------------------------------------

	// ConfigParsePerKB parses OCI-style configuration. Figure 2: 1.369 ms
	// for a ~4 KiB function configuration.
	ConfigParsePerKB d `json:"configParsePerKBNS"`

	// GuestKernelObjectInit is constructing one guest-kernel object from
	// scratch during a cold kernel boot.
	GuestKernelObjectInit d `json:"guestKernelObjectInitNS"`

	// SandboxManagement is the container-management overhead of creating
	// a sandbox through the full runtime path (runsc create, cgroups,
	// network setup, I/O process wiring). Figure 6 shows ~140 ms
	// "Sandbox" share for gVisor C-Hello versus Figure 2's 22.3 ms
	// in-sandbox steps; the difference is this management cost plus
	// SentryBoot.
	SandboxManagement d `json:"sandboxManagementNS"`

	// SentryBoot is starting the user-space guest kernel binary itself
	// (Go runtime boot, platform probing). Zygotes pay it offline; cold
	// Catalyzer boots pay it on the critical path, which is the bulk of
	// the ~30 ms gap between Catalyzer-restore and Catalyzer-Zygote
	// (§6.2).
	SentryBoot d `json:"sentryBootNS"`

	// ZygoteSpecialize is appending the function-specific configuration
	// to a cached Zygote (§3.4).
	ZygoteSpecialize d `json:"zygoteSpecializeNS"`

	// ZygoteImportBinary is importing function-specific binaries and
	// libraries into a Zygote-derived sandbox, charged per file.
	ZygoteImportBinary d `json:"zygoteImportBinaryNS"`

	// RestoreTaskCreate is the control-plane work of creating the
	// restored task inside a running sandbox (runsc restore RPCs).
	RestoreTaskCreate d `json:"restoreTaskCreateNS"`

	// InstanceInterference is the per-running-instance slowdown of a
	// full sandbox-process boot (global host structures — page cache,
	// cgroupfs, netns — scale with instance count; Figure 15 shows
	// gVisor-restore latency rising with load).
	InstanceInterference d `json:"instanceInterferenceNS"`

	// InstanceInterferenceLight is the same effect for Zygote-based
	// boots, which touch far less global host state (Figure 15:
	// Catalyzer stays <10 ms with 1000 running instances).
	InstanceInterferenceLight d `json:"instanceInterferenceLightNS"`

	// --- sfork -------------------------------------------------------------

	// SforkVMAClone is cloning one VMA (CoW) during sfork.
	SforkVMAClone d `json:"sforkVMACloneNS"`

	// SforkThreadExpand is restoring one thread context when the
	// transient single-thread expands back to multi-threaded (§4.1).
	SforkThreadExpand d `json:"sforkThreadExpandNS"`

	// SforkOverlayFSClone is cloning the in-memory overlay rootFS (§4.2);
	// file descriptors are inherited at zero cost because they are
	// read-only grants from the FS server.
	SforkOverlayFSClone d `json:"sforkOverlayFSCloneNS"`

	// ThreadMergeSave is saving one thread context when entering the
	// transient single-thread state (offline, template generation).
	ThreadMergeSave d `json:"threadMergeSaveNS"`

	// BlockingThreadTimeout is the worst-case wait for a blocking thread
	// to notice the merge request via its time-out (offline).
	BlockingThreadTimeout d `json:"blockingThreadTimeoutNS"`

	// --- Other sandboxes (baselines) ---------------------------------------

	// DockerCreate is container creation (namespaces, cgroups, overlay
	// mounts) for the Docker baseline; >100 ms per Figure 3.
	DockerCreate d `json:"dockerCreateNS"`

	// LeanContainerCreate is a SOCK-style lean container setup, used by
	// the Replayable-Execution comparison baseline (§7): a customized
	// container design that mitigates sandbox-initialization overhead.
	LeanContainerCreate d `json:"leanContainerCreateNS"`

	// FirecrackerCreate is microVM creation, and FirecrackerKernelBoot
	// the minimized Linux guest boot: "FireCracker can boot a microVM
	// and a minimized Linux kernel in 100ms" (§2.2).
	FirecrackerCreate     d `json:"firecrackerCreateNS"`
	FirecrackerKernelBoot d `json:"firecrackerKernelBootNS"`

	// HyperCreate is Hyper Container (VM-based container) creation;
	// slowest of the evaluated sandboxes in Figure 11.
	HyperCreate d `json:"hyperCreateNS"`

	// HeapDirtyPage is first-write initialization work per heap page
	// during application init (zeroing, allocator metadata).
	HeapDirtyPage d `json:"heapDirtyPageNS"`

	// RPCSend is the gateway-to-sandbox "invoke" RPC (Figure 2 shows a
	// Send RPC step on the boot path).
	RPCSend d `json:"rpcSendNS"`
}

// Default returns the cost model calibrated against the paper's
// experimental machine (8-core Intel i7-7700, §6.1).
func Default() *Model {
	return &Model{
		NCPU: 8,

		HostForkExec:      160 * us, // ×2 processes ≈ Figure 2's 0.319 ms
		SyscallNative:     400 * ns,
		SyscallGVisor:     4 * us,
		MmapNative:        2 * us,
		MmapGVisor:        150 * us,
		DupBase:           1 * us,
		FDTableExpandBase: 2 * ms,
		FDTableSlot:       6 * us,
		NamespaceSetup:    100 * us,

		KVMCreateVM:       100 * us,
		KVMCreateVCPU:     30 * us,
		KvcallocCold:      350 * us,
		KvcallocCached:    40 * us,
		SetMemRegionPML:   5 * ms,
		SetMemRegionNoPML: 500 * us,
		EPTFault:          1 * us,
		CoWFault:          3 * us,

		MountFS:             300 * us,
		FileOpenNative:      2 * us,
		FileOpenGVisor:      200 * us,
		PageReadNative:      800 * ns,
		PageReadGVisor:      2500 * ns,
		ConnReconnect:       750 * us,
		ConnReconnectLazy:   500 * ns,
		ConnReconnectCached: 50 * us,

		ObjectDecode:          1500 * ns,
		ObjectEncode:          1200 * ns,
		PointerFixup:          120 * ns,
		CriticalObjectRecover: 8 * us,
		PageDecompressCopy:    2500 * ns,
		ImageMapRegion:        60 * us,
		ShareMapping:          25 * us,
		MetadataMapPerKB:      700 * ns,
		DecompressPerKB:       9 * us,
		CompressPerKB:         30 * us,

		ConfigParsePerKB:      340 * us,
		GuestKernelObjectInit: 500 * ns,
		SandboxManagement:     94 * ms,
		SentryBoot:            24 * ms,
		ZygoteSpecialize:      400 * us,
		ZygoteImportBinary:    80 * us,
		RestoreTaskCreate:     2500 * us,

		InstanceInterference:      60 * us,
		InstanceInterferenceLight: 3 * us,

		SforkVMAClone:         9 * us,
		SforkThreadExpand:     25 * us,
		SforkOverlayFSClone:   60 * us,
		ThreadMergeSave:       15 * us,
		BlockingThreadTimeout: 10 * ms,

		DockerCreate:          105 * ms,
		LeanContainerCreate:   15 * ms,
		FirecrackerCreate:     30 * ms,
		FirecrackerKernelBoot: 95 * ms,
		HyperCreate:           420 * ms,

		HeapDirtyPage: 1 * us,
		RPCSend:       200 * us,
	}
}

// Server returns the cost model for the Ant Financial server machine
// (96 cores @2.50GHz, §6.1) used for the end-to-end and scalability
// evaluations ("Catalyzer-Indus" in Figures 13c and 15). Per-core costs
// are slightly higher (lower clock) but parallel stages have 12x the
// cores.
func Server() *Model {
	m := Default()
	m.NCPU = 96
	scale := func(v d) d { return v + v/4 } // ~1.25x per-op (2.5GHz vs 3.6GHz)
	m.SyscallGVisor = scale(m.SyscallGVisor)
	m.ObjectDecode = scale(m.ObjectDecode)
	m.PointerFixup = scale(m.PointerFixup)
	m.PageDecompressCopy = scale(m.PageDecompressCopy)
	m.ConnReconnect = scale(m.ConnReconnect)
	m.CriticalObjectRecover = scale(m.CriticalObjectRecover)
	return m
}
