package platform

import (
	"fmt"

	"catalyzer/internal/guest"
	"catalyzer/internal/image"
	"catalyzer/internal/sandbox"
	"catalyzer/internal/simtime"
	"catalyzer/internal/vfs"
)

// Replayable is the Replayable-Execution comparison baseline (§7): a
// container-based checkpoint/restore system that pioneered on-demand
// paging for application state but recovers *all* system state on the
// critical path — the distinction Catalyzer's separated state recovery
// and lazy I/O reconnection remove. The paper credits it with ~54 ms JVM
// boots; Catalyzer's key claim is that on-demand paging alone is not
// sufficient for virtualization-based sandboxes.
const Replayable System = "replayable"

// bootReplayable restores a function inside a lean container: on-demand
// memory (overlay mapping) + one-by-one state deserialization + eager
// re-do of every I/O connection.
func (p *Platform) bootReplayable(f *Function) (*sandbox.Sandbox, *simtime.Timeline, error) {
	if f.Image == nil {
		return nil, nil, fmt.Errorf("%w: %s", ErrNoImage, f.Spec.Name)
	}
	m := p.M
	env := m.Env
	s := sandbox.NewRestoredShell(m, f.Spec, sandbox.Options{Profile: sandbox.ContainerProfile(env.Cost)}, f.FS)
	tl, err := sandbox.Run(s,
		// Lean container setup (SOCK-style).
		sandbox.Step{Name: sandbox.PhaseManagement, Run: func() error {
			env.Charge(env.Cost.LeanContainerCreate)
			return nil
		}},
		sandbox.Step{Name: sandbox.PhaseBootProcess, Run: func() error {
			env.Charge(env.Cost.HostForkExec)
			env.ChargeN(env.Cost.InstanceInterference, m.Live()-1)
			return nil
		}},
		// On-demand application memory: Replayable's contribution.
		sandbox.Step{Name: sandbox.PhaseMapImage, Run: func() error {
			if f.Mapping == nil {
				f.Mapping = image.NewMapping(env, m.Frames, f.Image.Mem)
			} else {
				f.Mapping = f.Mapping.Share(env)
			}
			return s.MapImageHeap(f.Mapping)
		}},
		// System state: recovered one-by-one on the critical path (the
		// limitation §7 contrasts with separated state recovery).
		sandbox.Step{Name: sandbox.PhaseRecoverKernel, Run: func() error {
			k, err := guest.RestoreBaseline(env, f.Image.Kernel)
			s.Kernel = k
			return err
		}},
		// I/O connections: all re-done eagerly.
		sandbox.Step{Name: sandbox.PhaseReconnectIO, Run: func() error {
			s.Kernel.Conns = vfs.RestoreEager(env, f.Image.Kernel.ConnRecords)
			return nil
		}},
	)
	if err != nil {
		return nil, nil, err
	}
	return s, tl, nil
}
