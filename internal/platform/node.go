package platform

import (
	"context"
	"fmt"

	"catalyzer/internal/faults"
	"catalyzer/internal/image"
	"catalyzer/internal/simtime"
)

// Node is the machine-facing surface the fleet control plane needs from
// one platform machine: register and prepare functions, serve recovered
// invocations, move func-images between machines (remote fork), charge
// virtual transfer/backoff time, and report load. *Platform implements
// it; the fleet never reaches past this interface, so everything a
// machine does for the fleet is visible here.
type Node interface {
	Register(name string) (*Function, error)
	PrepareImage(name string) (*Function, error)
	PrepareTemplate(name string) (*Function, error)
	InvokeRecover(ctx context.Context, name string, sys System) (*Result, error)
	HasImage(name string) bool
	HasTemplate(name string) bool
	NeedsTemplate(name string) bool
	ExportImage(name string) (*image.Image, error)
	ImportImage(img *image.Image) error
	ReplaceImage(img *image.Image, quarantine bool) error
	StoredFunctions() ([]string, error)
	ImageVersion(name string) (gen, sum uint64)
	InstallFaults(inj *faults.Injector)
	Charge(d simtime.Duration)
	LiveInstances() int
	Now() simtime.Duration
	Close()
}

var _ Node = (*Platform)(nil)

// HasImage reports whether name's func-image is present on this machine
// (false for unregistered functions).
func (p *Platform) HasImage(name string) bool {
	f, err := p.Lookup(name)
	if err != nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return f.Image != nil
}

// HasTemplate reports whether name has a live template sandbox on this
// machine (false for unregistered functions).
func (p *Platform) HasTemplate(name string) bool {
	f, err := p.Lookup(name)
	if err != nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return f.Tmpl != nil
}

// NeedsTemplate reports whether name has never had a template sandbox
// on this machine: only its func-image arrived here (a replica, or a
// machine rebuilt after a crash), so fork boot needs one prepared. A
// template the platform itself dropped — a poisoning verdict, a
// wedged-template probe eviction, a failed quarantine rebuild, LRU
// retirement, Close — does not count: fork boots degrade through the
// fallback chain, and the supervisor's async regen (where one runs)
// rebuilds it off the request path.
func (p *Platform) NeedsTemplate(name string) bool {
	f, err := p.Lookup(name)
	if err != nil {
		return true
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return f.Tmpl == nil && !f.tmplBuilt
}

// ExportImage returns name's func-image for replication to a peer
// machine. Images are immutable after build, so the peer can share the
// value; each importer builds its own base memory mapping.
func (p *Platform) ExportImage(name string) (*image.Image, error) {
	f, err := p.Lookup(name)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if f.Image == nil {
		return nil, fmt.Errorf("%w: %s has no image to export", ErrNoImage, name)
	}
	return f.Image, nil
}

// ImportImage installs a func-image shipped from a peer machine (the
// pull half of a remote fork): the function is registered if needed, the
// copy is durably saved to this machine's store, and only then are the
// image and its I/O cache swapped in under the machine lock. A machine
// that already has an image keeps it — imports never clobber local
// state.
//
// Unlike the best-effort save of a locally built image, an import is
// acknowledged only after the store has fsynced its journal record
// (drawing the import-write site plus the store's own crash sites), so
// a crash mid-pull can never leave a replica copy the manifest does not
// know about: either the pull failed — the fleet counts a repair
// failure and retries — or the generation is journaled.
func (p *Platform) ImportImage(img *image.Image) error {
	if img == nil {
		return fmt.Errorf("%w: nil image", ErrNoImage)
	}
	f, err := p.Register(img.Name)
	if err != nil {
		return err
	}
	p.mu.Lock()
	if f.Image != nil {
		p.mu.Unlock()
		return nil
	}
	inj := p.M.Faults
	p.mu.Unlock()
	if ferr := inj.Check(faults.SiteImportWrite); ferr != nil {
		return fmt.Errorf("platform: import %s: %w", img.Name, ferr)
	}
	if err := p.persistImport(img); err != nil {
		return err
	}
	p.mu.Lock()
	if f.Image == nil {
		f.Image = img
		f.Cache = img.IOCache
	}
	p.mu.Unlock()
	return nil
}

// persistImport durably saves a replica copy pulled from a peer. The
// save failure is counted like persistImage's, but also returned: a
// replica set's durability claim rests on every copy being journaled,
// so an unsaved pull must fail the import rather than acknowledge it.
func (p *Platform) persistImport(img *image.Image) error {
	if p.store == nil {
		return nil
	}
	if err := p.store.Save(img); err != nil {
		p.rec.addStats(func(s *FailureStats) { s.ImageSaveFailures++ })
		return fmt.Errorf("platform: import %s: %w", img.Name, err)
	}
	return nil
}

// ReplaceImage durably installs a replacement func-image pulled from a
// peer, clobbering any local copy: the fleet's restart reconciliation
// uses it to bring stale or divergent replicas up to the winning
// generation. With quarantine set the stored copy is first moved aside
// as evidence (the divergent-bytes case); without it the old generation
// is simply superseded and retained as last-known-good (the stale
// case). The in-memory swap happens only after the durable save.
func (p *Platform) ReplaceImage(img *image.Image, quarantine bool) error {
	if img == nil {
		return fmt.Errorf("%w: nil image", ErrNoImage)
	}
	f, err := p.Register(img.Name)
	if err != nil {
		return err
	}
	if quarantine && p.store != nil {
		if _, qerr := p.store.Quarantine(img.Name); qerr == nil {
			p.rec.addStats(func(s *FailureStats) { s.ImagesQuarantined++ })
		}
	}
	if err := p.persistImport(img); err != nil {
		return err
	}
	p.mu.Lock()
	if f.Mapping != nil && (f.Image == nil || f.Image.Mem != img.Mem) {
		f.Mapping.Close()
		f.Mapping = nil
	}
	f.Image = img
	f.Cache = img.IOCache
	p.mu.Unlock()
	return nil
}

// ImageVersion reports the active generation number and content
// checksum of name's stored func-image (0, 0 without a store or stored
// copy). Restart reconciliation compares versions across a replica set:
// the highest generation wins, copies whose checksum already matches
// the winner stay put, and same-generation copies with differing sums
// have diverged at the byte level.
func (p *Platform) ImageVersion(name string) (gen, sum uint64) {
	if p.store == nil {
		return 0, 0
	}
	return p.store.ActiveGen(name), p.store.ActiveSum(name)
}

// Charge advances the machine's virtual clock by d under the machine
// lock. The fleet charges remote-fork transfer costs and failover
// backoff as machine work through this.
func (p *Platform) Charge(d simtime.Duration) {
	if d <= 0 {
		return
	}
	p.chargeBackoff(d)
}
