package image

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"catalyzer/internal/faults"
)

// Store is an on-disk func-image repository. The paper notes func-images
// "could be saved to both local or remote storage, and a serverless
// platform needs to fetch a func-image first" (§2.2); Store is the local
// half, and it is crash-consistent: every image is written as an
// immutable generation file (`name@gen.cimg`), every state transition is
// recorded in an fsynced append-only journal before it is acknowledged,
// and the journal is periodically compacted into a MANIFEST snapshot.
// Opening a store replays MANIFEST + journal, sweeps the debris a crash
// can leave (temp files, unreferenced generations, torn journal tails),
// and verifies every referenced file against its recorded checksum.
//
// The previous generation of each image is retained as last-known-good:
// quarantining a corrupt active generation promotes it, so the platform
// can roll back instead of rebuilding synchronously.
type Store struct {
	mu          sync.Mutex
	dir         string
	inj         *faults.Injector
	entries     map[string]*entry
	journalRecs int
	stats       StoreStats

	// buf is the scratch buffer Save encodes into and verifyFile reads
	// generation files into, kept at its largest size so repeat saves
	// and scrubs do not allocate an image-sized buffer each. Nothing may
	// keep a slice of it past the call that filled it: Decode aliases its
	// input, so only a caller that drops the decoded image (verifyFile)
	// may decode from buf, and Load, whose image is returned, reads into
	// a buffer of its own.
	buf []byte
}

// entry is one image's in-memory generation state; it mirrors a
// manifestEntry. A nil active with nextGen > 1 is a tombstone: the image
// was deleted but its generation numbering is preserved so no filename —
// including quarantined ones — is ever reused.
type entry struct {
	nextGen uint64
	active  *genRef
	prev    *genRef // last-known-good
}

// genRef names one on-disk generation and its expected content checksum.
type genRef struct {
	n   uint64
	sum uint64
}

// StoreStats counts the durability work a store has done since it was
// opened. All counters are cumulative for the store's lifetime.
type StoreStats struct {
	// OrphansSwept counts files removed by scrub: leftover *.tmp writes
	// and unreferenced stale generations.
	OrphansSwept int
	// ScrubRepaired counts divergences scrub healed without losing an
	// image: torn journal tails truncated, unacknowledged-but-complete
	// generations adopted, last-known-good promotions.
	ScrubRepaired int
	// ScrubQuarantined counts artifacts scrub moved aside as corrupt:
	// generation files failing verification, damaged MANIFEST/journal
	// control files.
	ScrubQuarantined int
	// Compactions counts journal-into-manifest compactions.
	Compactions int
}

// File-name grammar inside a store directory:
//
//	name@gen.cimg              one immutable image generation
//	name@gen.cimg.quarantined  a generation moved aside as corrupt
//	MANIFEST / JOURNAL         control files (see manifest.go, journal.go)
//	*.tmp                      in-flight writes; swept on open
const (
	imageExt      = ".cimg"
	quarantineExt = ".cimg.quarantined"
	tmpExt        = ".tmp"
	manifestName  = "MANIFEST"
	journalName   = "JOURNAL"

	// compactThreshold is the journal record count that triggers a
	// compaction on the next Save/Quarantine/Delete.
	compactThreshold = 64
)

// ErrCorrupt marks a stored image whose bytes fail verification: a
// truncated trailer, a checksum mismatch, an undecodable payload, a name
// that disagrees with its content, or a file that diverges from the
// manifest. Callers distinguish it from a plain cache miss
// (fs.ErrNotExist) to decide between quarantine-and-rollback and silent
// rebuild.
var ErrCorrupt = errors.New("image: corrupt stored image")

var crcTable = crc64.MakeTable(crc64.ECMA)

// NewStore opens (creating if needed) a store rooted at dir, replaying
// the journal and scrubbing crash debris before returning.
func NewStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("image: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("image: create store: %w", err)
	}
	s := &Store{dir: dir, entries: make(map[string]*entry)}
	if err := s.open(); err != nil {
		return nil, err
	}
	return s, nil
}

// SetFaults installs a fault injector whose store sites (store-write,
// store-rename, journal-append, manifest-compact) simulate a process
// kill at each durability boundary. A nil injector disables injection.
func (s *Store) SetFaults(inj *faults.Injector) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inj = inj
}

// Dir returns the store root.
func (s *Store) Dir() string { return s.dir }

// Stats returns a snapshot of the store's durability counters.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

func (s *Store) manifestPath() string { return filepath.Join(s.dir, manifestName) }
func (s *Store) journalPath() string  { return filepath.Join(s.dir, journalName) }

func (s *Store) genPath(name string, g uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s@%d%s", name, g, imageExt))
}

// validName rejects names that would escape the store directory or
// collide with the generation-suffix grammar. Function names may contain
// "@" (variants like "c-hello@pretrained") as long as the final
// @-segment is not purely digits.
func validName(name string) error {
	if name == "" || strings.ContainsAny(name, "/\\") {
		return fmt.Errorf("image: invalid image name %q", name)
	}
	if i := strings.LastIndexByte(name, '@'); i >= 0 && allDigits(name[i+1:]) {
		return fmt.Errorf("image: invalid image name %q: reserved generation suffix", name)
	}
	return nil
}

func allDigits(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

// parseImageFile splits a directory entry (with imageExt already
// stripped) into image name and generation. legacy reports a
// pre-generation file (`name.cimg`) from an older store layout.
func parseImageFile(base string) (name string, g uint64, legacy bool) {
	i := strings.LastIndexByte(base, '@')
	if i < 0 || !allDigits(base[i+1:]) {
		return base, 0, true
	}
	var n uint64
	for _, c := range []byte(base[i+1:]) {
		n = n*10 + uint64(c-'0')
	}
	return base[:i], n, false
}

func (s *Store) entryFor(name string) *entry {
	e := s.entries[name]
	if e == nil {
		e = &entry{nextGen: 1}
		s.entries[name] = e
	}
	return e
}

// crash draws at a store fault site; a non-nil return simulates the
// process dying at that durability boundary.
func (s *Store) crash(site faults.Site) error {
	return s.inj.Check(site)
}

// --- open: replay + scrub ----------------------------------------------------

func (s *Store) open() error {
	rescan := false

	if data, err := os.ReadFile(s.manifestPath()); err == nil {
		ents, derr := decodeManifest(data)
		if derr != nil {
			s.quarantineControlFile(s.manifestPath())
			s.stats.ScrubQuarantined++
			rescan = true
		} else {
			for _, m := range ents {
				e := &entry{nextGen: m.NextGen}
				if e.nextGen == 0 {
					e.nextGen = 1
				}
				if m.ActiveGen > 0 {
					e.active = &genRef{m.ActiveGen, m.ActiveSum}
				}
				if m.PrevGen > 0 {
					e.prev = &genRef{m.PrevGen, m.PrevSum}
				}
				s.entries[m.Name] = e
			}
		}
	} else if !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("image: open store: %w", err)
	}

	if data, err := os.ReadFile(s.journalPath()); err == nil {
		recs, cleanLen, derr := decodeJournal(data)
		if derr != nil {
			s.quarantineControlFile(s.journalPath())
			s.stats.ScrubQuarantined++
			rescan = true
		} else {
			if cleanLen < len(data) {
				// A torn tail is the normal residue of a crash
				// mid-append: drop the incomplete frame.
				if terr := truncateSync(s.journalPath(), int64(cleanLen)); terr != nil {
					return fmt.Errorf("image: open store: truncate journal: %w", terr)
				}
				s.stats.ScrubRepaired++
			}
			if !rescan {
				for _, r := range recs {
					s.replay(r)
				}
				s.journalRecs = len(recs)
			}
		}
	} else if !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("image: open store: %w", err)
	}

	if rescan {
		// Control-file damage: distrust both and rebuild state from the
		// (individually checksummed) image files themselves. The scrub
		// below adopts the best generations it can verify.
		s.entries = make(map[string]*entry)
		s.journalRecs = 0
		if err := os.Remove(s.journalPath()); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("image: open store: reset journal: %w", err)
		}
	}

	if err := s.scrub(); err != nil {
		return err
	}

	if rescan || s.journalRecs >= compactThreshold {
		if err := s.compact(); err != nil && !faults.IsFault(err) {
			return err
		}
	}
	return nil
}

// replay applies one journal record to the in-memory state. Replay is
// idempotent: a record whose effect is already reflected (because the
// crash hit between the manifest rename and the journal truncation of a
// compaction) is a no-op.
func (s *Store) replay(r journalRecord) {
	switch r.Op {
	case opSave:
		e := s.entryFor(r.Name)
		if e.active == nil || r.Gen > e.active.n {
			e.prev = e.active
			e.active = &genRef{r.Gen, r.Sum}
		}
		if r.Gen >= e.nextGen {
			e.nextGen = r.Gen + 1
		}
	case opQuarantine:
		e := s.entries[r.Name]
		if e != nil && e.active != nil && e.active.n == r.Gen {
			e.active, e.prev = e.prev, nil
		}
	case opDelete:
		e := s.entryFor(r.Name)
		e.active, e.prev = nil, nil
		if r.Gen > e.nextGen {
			e.nextGen = r.Gen
		}
	}
}

// quarantineControlFile moves a damaged MANIFEST/JOURNAL aside for
// post-mortem inspection. Best-effort: the file is about to be
// regenerated either way.
func (s *Store) quarantineControlFile(path string) {
	_ = os.Rename(path, path+".quarantined")
	syncDir(s.dir)
}

// scrub reconciles the directory with the replayed state: sweeps temp
// orphans, verifies every referenced generation (quarantining corruption
// and promoting last-known-good), adopts complete-but-unacknowledged
// generations a crash left behind, migrates legacy pre-generation files,
// and sweeps stale unreferenced generations.
func (s *Store) scrub() error {
	des, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("image: scrub: %w", err)
	}

	// Pass 1 over the directory: sweep temp files, migrate legacy
	// `name.cimg` files to generation 1, collect on-disk generations,
	// and bump nextGen past every generation number ever used (live or
	// quarantined) so filenames are never reused.
	disk := make(map[string][]uint64) // name -> on-disk generation numbers
	for _, de := range des {
		if de.IsDir() {
			continue
		}
		fn := de.Name()
		switch {
		case strings.HasSuffix(fn, tmpExt):
			if err := removeSynced(filepath.Join(s.dir, fn)); err == nil {
				s.stats.OrphansSwept++
			}
		case strings.HasSuffix(fn, quarantineExt):
			name, g, legacy := parseImageFile(strings.TrimSuffix(fn, quarantineExt))
			if !legacy {
				if e := s.entries[name]; e != nil && g >= e.nextGen {
					e.nextGen = g + 1
				}
			}
		case strings.HasSuffix(fn, imageExt):
			name, g, legacy := parseImageFile(strings.TrimSuffix(fn, imageExt))
			if legacy {
				// Older stores wrote bare `name.cimg`; re-home the file
				// as generation 1 and let adoption below pick it up.
				if validName(name) != nil {
					continue
				}
				g = 1
				if e := s.entries[name]; e != nil {
					g = e.nextGen
				}
				if err := os.Rename(filepath.Join(s.dir, fn), s.genPath(name, g)); err != nil {
					continue
				}
				syncDir(s.dir)
			}
			disk[name] = append(disk[name], g)
			if e := s.entries[name]; e != nil && g >= e.nextGen {
				e.nextGen = g + 1
			}
		}
	}

	// Pass 2: verify every referenced generation. A bad active rolls
	// back to last-known-good; a bad last-known-good is dropped.
	// Names are processed in sorted order so quarantine renames and
	// scrub counters replay identically run to run.
	entryNames := make([]string, 0, len(s.entries))
	for name := range s.entries {
		entryNames = append(entryNames, name)
	}
	sort.Strings(entryNames)
	for _, name := range entryNames {
		e := s.entries[name]
		if e.active != nil {
			if !s.verifyGen(name, e.active) {
				s.quarantineGenFile(name, e.active.n)
				s.stats.ScrubQuarantined++
				e.active = nil
				if e.prev != nil {
					if s.verifyGen(name, e.prev) {
						e.active = e.prev
						s.stats.ScrubRepaired++
					} else {
						s.quarantineGenFile(name, e.prev.n)
						s.stats.ScrubQuarantined++
					}
					e.prev = nil
				}
			} else if e.prev != nil && !s.verifyGen(name, e.prev) {
				s.quarantineGenFile(name, e.prev.n)
				s.stats.ScrubQuarantined++
				e.prev = nil
			}
		}
	}

	// Pass 3: reconcile unreferenced generation files. A verified
	// generation newer than the active one is a Save whose rename
	// completed but whose journal record never made it — adopt it (the
	// caller was never acknowledged, so either outcome is legal, and
	// the bytes are good). A verified older generation fills an empty
	// last-known-good slot (the directory-rescan path). Anything else
	// is debris: stale generations are swept, corrupt ones quarantined.
	// Sorted names again: adoption/sweep side effects in stable order.
	diskNames := make([]string, 0, len(disk))
	for name := range disk {
		diskNames = append(diskNames, name)
	}
	sort.Strings(diskNames)
	for _, name := range diskNames {
		gens := disk[name]
		sort.Slice(gens, func(i, j int) bool { return gens[i] > gens[j] })
		e := s.entryFor(name)
		for _, g := range gens {
			if (e.active != nil && e.active.n == g) || (e.prev != nil && e.prev.n == g) {
				continue
			}
			if g >= e.nextGen {
				e.nextGen = g + 1
			}
			switch {
			case e.active == nil || g > e.active.n:
				if sum, ok := s.verifyFile(name, g); ok {
					e.prev = e.active
					e.active = &genRef{g, sum}
					s.stats.ScrubRepaired++
				} else {
					s.quarantineGenFile(name, g)
					s.stats.ScrubQuarantined++
				}
			case e.prev == nil && g < e.active.n:
				if sum, ok := s.verifyFile(name, g); ok {
					e.prev = &genRef{g, sum}
					s.stats.ScrubRepaired++
				} else {
					s.quarantineGenFile(name, g)
					s.stats.ScrubQuarantined++
				}
			default:
				if err := removeSynced(s.genPath(name, g)); err == nil {
					s.stats.OrphansSwept++
				}
			}
		}
	}
	return nil
}

// verifyGen checks that a referenced generation's file exists, is
// internally consistent, and matches the checksum the journal recorded.
func (s *Store) verifyGen(name string, g *genRef) bool {
	sum, ok := s.verifyFile(name, g.n)
	return ok && sum == g.sum
}

// verifyFile checks one generation file's internal consistency (CRC64
// trailer, decodability, name match) and returns its content checksum.
func (s *Store) verifyFile(name string, g uint64) (uint64, bool) {
	raw, err := readFileInto(s.buf, s.genPath(name, g))
	s.buf = raw[:0]
	if err != nil || len(raw) < 8 {
		return 0, false
	}
	data, trailer := raw[:len(raw)-8], raw[len(raw)-8:]
	sum := binary.LittleEndian.Uint64(trailer)
	if crc64.Checksum(data, crcTable) != sum {
		return 0, false
	}
	img, err := Decode(data)
	if err != nil || img.Name != name {
		return 0, false
	}
	return sum, true
}

// quarantineGenFile moves a generation file aside (tolerating its
// absence — divergence can mean the file is simply gone).
func (s *Store) quarantineGenFile(name string, g uint64) {
	p := s.genPath(name, g)
	_ = os.Rename(p, p+".quarantined")
	syncDir(s.dir)
}

// --- mutations ---------------------------------------------------------------

// Save encodes and durably writes a new generation of an image: fsynced
// temp write, rename into place, parent-directory fsync, then an fsynced
// journal record — only after all of which the save is acknowledged. The
// previous generation is retained as last-known-good; the one before
// that is purged.
func (s *Store) Save(img *Image) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := validName(img.Name); err != nil {
		return err
	}
	data, err := img.appendEncoded(s.buf[:0])
	if err != nil {
		return err
	}
	sum := crc64.Checksum(data, crcTable)
	full := binary.LittleEndian.AppendUint64(data, sum)
	s.buf = full[:0]

	e := s.entryFor(img.Name)
	g := e.nextGen
	p := s.genPath(img.Name, g)
	tmp := p + tmpExt

	if ferr := s.crash(faults.SiteStoreWrite); ferr != nil {
		// Simulated kill mid-write: a torn, unsynced temp file.
		_ = os.WriteFile(tmp, full[:len(full)/2], 0o644)
		return ferr
	}
	if err := writeFileSync(tmp, full); err != nil {
		// Do not leave the temp file to rot; scrub would sweep it on
		// the next open, but in-process failures clean up eagerly.
		_ = os.Remove(tmp)
		return fmt.Errorf("image: save %s: %w", img.Name, err)
	}
	if ferr := s.crash(faults.SiteStoreRename); ferr != nil {
		// Simulated kill between write and rename: a complete but
		// orphaned temp file.
		return ferr
	}
	if err := os.Rename(tmp, p); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("image: save %s: %w", img.Name, err)
	}
	syncDir(s.dir)

	jerr := s.appendJournal(journalRecord{Op: opSave, Name: img.Name, Gen: g, Sum: sum})

	// Commit in-memory state even when the journal append "crashed":
	// the generation file is durable, and reopening the store adopts
	// exactly this state, so the in-process view must match it.
	oldPrev := e.prev
	e.prev = e.active
	e.active = &genRef{g, sum}
	e.nextGen = g + 1

	if jerr != nil {
		if faults.IsFault(jerr) {
			return jerr
		}
		return fmt.Errorf("image: save %s: journal: %w", img.Name, jerr)
	}
	if oldPrev != nil {
		// Best-effort purge of the generation that fell off the
		// active/last-known-good window; scrub sweeps stragglers.
		_ = removeSynced(s.genPath(img.Name, oldPrev.n))
	}
	s.journalRecs++
	s.maybeCompact()
	return nil
}

// appendJournal frames, appends, and fsyncs one journal record.
func (s *Store) appendJournal(r journalRecord) error {
	frame := appendFrame(nil, r.encode())
	if ferr := s.crash(faults.SiteJournalAppend); ferr != nil {
		// Simulated kill mid-append: a torn frame at the tail.
		appendFileTorn(s.journalPath(), frame[:len(frame)/2])
		return ferr
	}
	return appendFileSync(s.journalPath(), frame)
}

// Load reads, verifies and decodes an image's active generation.
func (s *Store) Load(name string) (*Image, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := validName(name); err != nil {
		return nil, err
	}
	e := s.entries[name]
	if e == nil || e.active == nil {
		return nil, fmt.Errorf("image: load %s: %w", name, fs.ErrNotExist)
	}
	raw, err := os.ReadFile(s.genPath(name, e.active.n))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			// The manifest references a file that is gone: divergence,
			// not a cache miss.
			return nil, fmt.Errorf("%w: load %s: generation %d missing", ErrCorrupt, name, e.active.n)
		}
		return nil, fmt.Errorf("image: load %s: %w", name, err)
	}
	if len(raw) < 8 {
		return nil, fmt.Errorf("%w: load %s: truncated trailer (%d bytes)", ErrCorrupt, name, len(raw))
	}
	data, trailer := raw[:len(raw)-8], raw[len(raw)-8:]
	want := binary.LittleEndian.Uint64(trailer)
	if got := crc64.Checksum(data, crcTable); got != want {
		return nil, fmt.Errorf("%w: load %s: checksum mismatch", ErrCorrupt, name)
	}
	if want != e.active.sum {
		return nil, fmt.Errorf("%w: load %s: generation %d diverges from manifest", ErrCorrupt, name, e.active.n)
	}
	img, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%w: load %s: %v", ErrCorrupt, name, err)
	}
	if img.Name != name {
		return nil, fmt.Errorf("%w: load %s: image is for function %q", ErrCorrupt, name, img.Name)
	}
	return img, nil
}

// Quarantine moves the (presumed corrupt) active generation aside
// instead of deleting it, so the bad artifact stays available for
// inspection, and promotes the last-known-good generation — the rollback
// that lets the platform keep serving while a rebuild proceeds off the
// critical path. Each quarantined file keeps its generation suffix, so
// repeated quarantines of the same image never destroy earlier
// post-mortem evidence. It returns the quarantined file's path.
func (s *Store) Quarantine(name string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := validName(name); err != nil {
		return "", err
	}
	e := s.entries[name]
	if e == nil || e.active == nil {
		return "", fmt.Errorf("image: quarantine %s: %w", name, fs.ErrNotExist)
	}
	g := e.active.n
	p := s.genPath(name, g)
	q := p + ".quarantined"
	if err := os.Rename(p, q); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return "", fmt.Errorf("image: quarantine %s: %w", name, err)
	}
	syncDir(s.dir)

	jerr := s.appendJournal(journalRecord{Op: opQuarantine, Name: name, Gen: g})
	e.active, e.prev = e.prev, nil
	if jerr != nil {
		if faults.IsFault(jerr) {
			return q, jerr
		}
		return q, fmt.Errorf("image: quarantine %s: journal: %w", name, jerr)
	}
	s.journalRecs++
	s.maybeCompact()
	return q, nil
}

// Delete removes every live generation of a stored image. The entry's
// generation numbering is kept as a tombstone so a later re-Save cannot
// collide with quarantined evidence files.
func (s *Store) Delete(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := validName(name); err != nil {
		return err
	}
	e := s.entries[name]
	if e == nil || e.active == nil {
		return fmt.Errorf("image: delete %s: %w", name, fs.ErrNotExist)
	}
	if err := removeSynced(s.genPath(name, e.active.n)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("image: delete %s: %w", name, err)
	}
	if e.prev != nil {
		_ = removeSynced(s.genPath(name, e.prev.n))
	}
	jerr := s.appendJournal(journalRecord{Op: opDelete, Name: name, Gen: e.nextGen})
	e.active, e.prev = nil, nil
	if jerr != nil {
		if faults.IsFault(jerr) {
			return jerr
		}
		return fmt.Errorf("image: delete %s: journal: %w", name, jerr)
	}
	s.journalRecs++
	s.maybeCompact()
	return nil
}

// --- compaction --------------------------------------------------------------

func (s *Store) maybeCompact() {
	if s.journalRecs < compactThreshold {
		return
	}
	// Compaction is an optimization; a failure (or injected crash)
	// leaves the journal intact, so state is never at risk.
	_ = s.compact()
}

// compact snapshots the in-memory state into MANIFEST (temp + fsync +
// rename + dir fsync) and truncates the journal. A crash between the
// rename and the truncation is benign: replaying the stale journal over
// the new manifest is idempotent.
func (s *Store) compact() error {
	ents := make([]manifestEntry, 0, len(s.entries))
	for name, e := range s.entries {
		m := manifestEntry{Name: name, NextGen: e.nextGen}
		if e.active != nil {
			m.ActiveGen, m.ActiveSum = e.active.n, e.active.sum
		}
		if e.prev != nil {
			m.PrevGen, m.PrevSum = e.prev.n, e.prev.sum
		}
		if m.ActiveGen == 0 && m.NextGen <= 1 {
			continue // nothing worth a tombstone
		}
		ents = append(ents, m)
	}
	// The manifest is durable state: sort so its bytes are a pure
	// function of store content, not of map iteration order.
	sort.Slice(ents, func(i, j int) bool { return ents[i].Name < ents[j].Name })
	data := encodeManifest(ents)
	tmp := s.manifestPath() + tmpExt
	if ferr := s.crash(faults.SiteManifestCompact); ferr != nil {
		// Simulated kill after the temp write, before the rename: the
		// old MANIFEST and the full journal both survive.
		_ = writeFileSync(tmp, data)
		return ferr
	}
	if err := writeFileSync(tmp, data); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("image: compact: %w", err)
	}
	if err := os.Rename(tmp, s.manifestPath()); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("image: compact: %w", err)
	}
	syncDir(s.dir)
	if err := truncateSync(s.journalPath(), 0); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("image: compact: truncate journal: %w", err)
	}
	s.journalRecs = 0
	s.stats.Compactions++
	return nil
}

// truncateSync truncates path to n bytes and fsyncs it.
func truncateSync(path string, n int64) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := f.Truncate(n); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- queries -----------------------------------------------------------------

// List returns the names of images with a live active generation,
// sorted.
func (s *Store) List() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.entries))
	for name, e := range s.entries {
		if e.active != nil {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out, nil
}

// Quarantined returns the (deduplicated, sorted) names of images with at
// least one quarantined generation on disk.
func (s *Store) Quarantined() ([]string, error) {
	files, err := s.QuarantinedFiles()
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	var out []string
	for _, fn := range files {
		name, _, _ := parseImageFile(strings.TrimSuffix(fn, quarantineExt))
		if !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out, nil
}

// QuarantinedFiles returns the base filenames of every quarantined
// generation, sorted — one per quarantine event, since filenames carry
// the generation number.
func (s *Store) QuarantinedFiles() ([]string, error) {
	des, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, de := range des {
		if !de.IsDir() && strings.HasSuffix(de.Name(), quarantineExt) {
			out = append(out, de.Name())
		}
	}
	sort.Strings(out)
	return out, nil
}

// ActivePath returns the on-disk path of an image's active generation,
// for callers (the registry server) that serve the raw bytes.
func (s *Store) ActivePath(name string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := validName(name); err != nil {
		return "", err
	}
	e := s.entries[name]
	if e == nil || e.active == nil {
		return "", fmt.Errorf("image: %s: %w", name, fs.ErrNotExist)
	}
	return s.genPath(name, e.active.n), nil
}

// ActiveGen returns an image's active generation number, 0 if none.
func (s *Store) ActiveGen(name string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.entries[name]; e != nil && e.active != nil {
		return e.active.n
	}
	return 0
}

// ActiveSum returns the content checksum of an image's active
// generation, 0 if none. Two replicas holding the same generation with
// different sums have diverged at the byte level: the fleet's restart
// reconciliation quarantines the losing copy and re-pulls it.
func (s *Store) ActiveSum(name string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.entries[name]; e != nil && e.active != nil {
		return e.active.sum
	}
	return 0
}

// LastKnownGood returns an image's retained previous generation number,
// 0 if none.
func (s *Store) LastKnownGood(name string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.entries[name]; e != nil && e.prev != nil {
		return e.prev.n
	}
	return 0
}
