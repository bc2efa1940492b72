package sandbox

import (
	"fmt"

	"catalyzer/internal/guest"
	"catalyzer/internal/image"
	"catalyzer/internal/simtime"
	"catalyzer/internal/vfs"
	"catalyzer/internal/workload"
)

// BootGVisorRestore implements the gVisor-restore baseline (§2.2,
// Figure 2's lower path): a full sandbox is constructed exactly as in a
// cold boot (management, processes, Sentry, KVM, mounts, task image), and
// then, instead of running application initialization, the guest kernel
// is recovered from the func-image's baseline checkpoint — decompressing
// and deserializing every object one-by-one, loading all application
// memory, and re-doing every I/O connection, all on the critical path.
//
//lint:allow ctxflow context-first-entry waived: leaf machine work below the recovery layer's abort points; virtual time cannot block on the host
func BootGVisorRestore(m *Machine, img *image.Image, fs *vfs.FSServer, opts Options) (*Sandbox, *simtime.Timeline, error) {
	spec, err := specForImage(img)
	if err != nil {
		return nil, nil, err
	}
	// gVisor-restore loads all application memory privately.
	if err := m.AdmitPages(spec.TaskImagePages + spec.InitHeapPages); err != nil {
		return nil, nil, err
	}
	s := NewRestoredShell(m, spec, opts, fs)
	tl, err := Construct(s,
		Step{PhaseLoadTaskImage, s.loadTaskImage},
		// Restore path proper.
		Step{PhaseRecoverKernel, func() error {
			k, err := guest.RestoreBaseline(m.Env, img.Kernel)
			if err != nil {
				return fmt.Errorf("sandbox: gvisor-restore: %w", err)
			}
			s.Kernel = k
			return nil
		}},
		Step{PhaseLoadAppMemory, func() error { return s.LoadAllHeap(img) }},
		Step{PhaseReconnectIO, func() error {
			s.Kernel.Conns = vfs.RestoreEager(m.Env, img.Kernel.ConnRecords)
			return s.AcquireLogGrant()
		}},
	)
	if err != nil {
		return nil, nil, err
	}
	return s, tl, nil
}

// specForImage resolves the workload spec a func-image was built from.
// The reproduction keeps specs in the registry; a production system would
// embed the relevant parameters in the image header.
func specForImage(img *image.Image) (*workload.Spec, error) {
	spec, err := workload.Registry(img.Name)
	if err != nil {
		return nil, err
	}
	if uint64(spec.InitHeapPages) != img.Mem.Pages {
		return nil, fmt.Errorf("%w: image %s memory section (%d pages) vs spec (%d)", ErrImageMismatch, img.Name, img.Mem.Pages, spec.InitHeapPages)
	}
	return spec, nil
}
