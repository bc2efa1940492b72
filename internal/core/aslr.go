package core

import (
	"catalyzer/internal/sandbox"
	"catalyzer/internal/simtime"
)

// maxASLRDeltaPages bounds the layout shift: deltas stay below the gap
// between the task-image and heap regions so randomized layouts never
// collide.
const maxASLRDeltaPages = 0xE00

// aslrDelta derives the nth child's deterministic layout shift.
func aslrDelta(n uint64) uint64 {
	z := (n + 1) * 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	return (z ^ (z >> 27)) % maxASLRDeltaPages
}

// SforkRandomized is sfork with address-space re-randomization (§6.8):
// sharing a template's layout across children weakens ASLR, so the child's
// VMAs are relocated by a per-fork offset before it runs. The relocation
// costs one address-space operation per VMA on top of the plain sfork.
func (t *Template) SforkRandomized() (*sandbox.Sandbox, *simtime.Timeline, error) {
	return t.sfork(true)
}

// Forks reports how many children this template has produced (both plain
// and randomized).
func (t *Template) Forks() uint64 { return t.forks }

// Refresh rebuilds the template sandbox from scratch (offline), the
// periodic template regeneration §6.8 recommends alongside
// re-randomization. The old template is released; children already
// forked keep their pages alive through their own references.
func (t *Template) Refresh() error {
	fresh, err := t.c.MakeTemplate(t.s.Spec, t.fs)
	if err != nil {
		return err
	}
	old := t.s
	t.s = fresh.s
	t.forks = 0
	// The rebuilt template starts a fresh sfork family: old children's
	// failure marks must not convict the new template, and the poison
	// draw (if armed) was re-taken by MakeTemplate.
	t.lineage = fresh.lineage
	t.poisoned = fresh.poisoned
	old.Release()
	return nil
}
