// Package guest models the user-space guest kernel (gVisor's Sentry): a
// registry of kernel objects — tasks, threads, mounts, timers, sessions,
// descriptors — forming a real pointer graph, plus the mount table and
// I/O connection table. Restore cost in the paper is dominated by this
// graph ("gVisor recovers more than 37,838 objects ... in guest kernel",
// §2.2), so the reproduction makes it a first-class data structure with
// both restore paths implemented over internal/serial.
package guest

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"catalyzer/internal/serial"
	"catalyzer/internal/simenv"
	"catalyzer/internal/simtime"
	"catalyzer/internal/vfs"
)

// Object kinds. Task, Thread and Timer objects are "critical": they hold
// non-I/O system state that separated state recovery must establish on
// the critical path (§3.2); everything else is recovered by the mapped
// region plus pointer fixups.
const (
	KindTask uint8 = iota + 1
	KindThread
	KindTimer
	KindMount
	KindSession
	KindFD
	KindMisc
)

// IsCritical reports whether objects of this kind carry non-I/O system
// state recovered on the critical path.
func IsCritical(kind uint8) bool {
	return kind == KindTask || kind == KindThread || kind == KindTimer
}

// Kernel is one sandbox's guest kernel.
type Kernel struct {
	env *simenv.Env
	// The object graph is held in one of two forms. A kernel being built
	// holds objects and a nil rec. A kernel past its func-entry point
	// points rec at one record region with its references in place and
	// objects is nil: a template Seal encoded, shared by every child
	// CloneShared makes of it, or the fixed-up region of the checkpoint
	// a separated restore mapped — the mapped state is the live state.
	// A region is shared read-only, so nothing writes into it: readers
	// decode rec on demand, and the first mutation materializes it into
	// objects (setting rec to nil) and only appends from then on.
	objects []serial.Object
	rec     *serial.Records
	byKind  [KindMisc + 1]int

	Mounts vfs.MountTable
	Conns  *vfs.ConnTable

	rngState uint64
}

// NewKernel boots a guest kernel from scratch, constructing the baseline
// object population every Sentry has before any application runs (task
// hierarchy roots, initial mounts bookkeeping, session leaders, ...).
func NewKernel(env *simenv.Env, seed uint64, baseObjects int) *Kernel {
	k := &Kernel{
		env:      env,
		Conns:    vfs.NewConnTable(env),
		rngState: seed | 1,
	}
	if _, err := k.NewTask(RootTask); err != nil {
		panic(err) // unreachable: the root task always inserts
	}
	for i := 0; i < 4; i++ {
		if _, err := k.NewThread(0); err != nil {
			panic(err)
		}
	}
	k.CreateObjects(KindSession, 1)
	rest := baseObjects - 6
	if rest > 0 {
		k.CreateObjects(KindMisc, rest)
	}
	return k
}

// rng is a splitmix64 step: deterministic, seed-derived payloads.
func (k *Kernel) rng() uint64 {
	k.rngState += 0x9e3779b97f4a7c15
	z := k.rngState
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// CreateObjects adds n kernel objects of the given kind, charging the
// per-object construction cost. Payload sizes and reference fan-out are
// deterministic functions of the kernel seed, tuned so the serialized
// record averages ~18 bytes (Table 3).
//
// A call allocates per call, not per object: the n objects' payloads are
// carved from one byte arena and their references from one ObjectID
// arena, each sub-slice capped at its length so an append to one object
// reallocates instead of writing into its neighbour, and the cost is
// charged once as n × GuestKernelObjectInit. The RNG is drawn per object
// in a fixed order (payload, then per reference its target and its nil
// draw), so a seed always yields the same graph.
func (k *Kernel) CreateObjects(kind uint8, n int) {
	k.materialize()
	if n <= 0 {
		return
	}
	k.env.ChargeN(k.env.Cost.GuestKernelObjectInit, n)
	payloads := make([]byte, 8*n)
	refs := make([]serial.ObjectID, 2*n)
	k.objects = slices.Grow(k.objects, n)
	for i := 0; i < n; i++ {
		id := serial.ObjectID(len(k.objects))
		r := k.rng()
		plen := 4 + int(r%5) // 4-8 bytes
		payload := payloads[:plen:plen]
		payloads = payloads[plen:]
		binary.LittleEndian.PutUint32(payload, uint32(r))
		obj := serial.Object{ID: id, Kind: kind, Payload: payload}
		// ~75% of objects hold one back-reference, ~25% two, roots none.
		if id > 0 {
			nrefs := 1
			if r%4 == 0 {
				nrefs = 2
			}
			obj.Refs = refs[:nrefs:nrefs]
			refs = refs[nrefs:]
			for j := range obj.Refs {
				target := serial.ObjectID(k.rng() % uint64(id))
				if k.rng()%8 == 0 {
					target = serial.NilRef
				}
				obj.Refs[j] = target
			}
		}
		k.objects = append(k.objects, obj)
	}
	k.byKind[kind] += n
}

// ObjectCount returns the total number of kernel objects.
func (k *Kernel) ObjectCount() int {
	if k.rec != nil {
		return len(k.rec.Index)
	}
	return len(k.objects)
}

// KindCount returns the number of objects of one kind.
func (k *Kernel) KindCount(kind uint8) int {
	if int(kind) >= len(k.byKind) {
		return 0
	}
	return k.byKind[kind]
}

// CriticalCount returns the number of critical objects (tasks, threads,
// timers).
func (k *Kernel) CriticalCount() int {
	return k.byKind[KindTask] + k.byKind[KindThread] + k.byKind[KindTimer]
}

// Mount adds a mount, charging the mount cost and creating the
// corresponding kernel object.
func (k *Kernel) Mount(m vfs.Mount) error {
	if err := k.Mounts.AddMount(m); err != nil {
		return err
	}
	k.env.Charge(k.env.Cost.MountFS)
	k.CreateObjects(KindMount, 1)
	return nil
}

// Signature folds the object graph into a token; equal signatures mean
// identical guest-kernel state.
func (k *Kernel) Signature() uint64 {
	var sig uint64 = 14695981039346656037
	objs := k.graph()
	for i := range objs {
		o := &objs[i]
		sig = sig*1099511628211 ^ uint64(o.Kind)
		for _, b := range o.Payload {
			sig = sig*1099511628211 ^ uint64(b)
		}
		for _, r := range o.Refs {
			sig = sig*1099511628211 ^ uint64(r)
		}
	}
	return sig
}

// Objects returns a copy of the object graph (tests and image builders).
func (k *Kernel) Objects() []serial.Object {
	return append([]serial.Object(nil), k.graph()...)
}

// graph returns the object graph without writing to k or its record
// region: the materialized objects, or a fresh decode of the shared
// fixed-up region, whose payloads alias it read-only. Concurrent sforks
// read template kernels, so a decode here is never cached.
func (k *Kernel) graph() []serial.Object {
	if k.rec == nil {
		return k.objects
	}
	objs, err := serial.DecodeRecords(k.rec)
	if err != nil {
		panic(err) // unreachable: RestoreSeparated validated the region
	}
	return objs
}

// materialize turns a restored record region into the objects slice
// before the kernel's first mutation.
func (k *Kernel) materialize() {
	if k.rec != nil {
		k.objects, k.rec = k.graph(), nil
	}
}

// Seal ends the kernel's build at its func-entry point: it encodes the
// object graph once into the record form a separated restore produces,
// references in place and no relation table, and drops the objects. A
// sealed template holds about 18 bytes per object instead of an Object
// header, payload and refs each, and every child CloneShared makes shares
// that one region. It charges nothing: a template's state costs the same
// in either form. A later mutation materializes the graph as it does for
// a restored kernel; sealing a sealed kernel does nothing.
func (k *Kernel) Seal() error {
	if k.rec != nil {
		return nil
	}
	rec, err := serial.EncodeRegion(k.objects)
	if err != nil {
		return fmt.Errorf("guest: seal: %w", err)
	}
	k.objects, k.rec = nil, rec
	return nil
}

// CloneShared returns the sforked child's view of this kernel: the object
// graph is shared (it lives in CoW memory, so sharing is free until a
// write), the connection table is cloned with descriptors intact. The
// object graph is immutable after the func-entry point in this model, so
// sharing it is sound. A sealed or restored kernel shares its record
// region; a materialized one shares its slice clipped to its length, so
// a child that does append copies instead of writing into spare capacity
// its siblings also see.
func (k *Kernel) CloneShared() *Kernel {
	n := len(k.objects)
	return &Kernel{
		env:      k.env,
		objects:  k.objects[:n:n],
		rec:      k.rec,
		byKind:   k.byKind,
		Mounts:   k.Mounts,
		Conns:    k.Conns.Clone(),
		rngState: k.rngState,
	}
}

// --- checkpoint & restore ----------------------------------------------------

// Checkpoint is the captured guest-kernel state in both formats plus the
// I/O connection records. Offline artifacts carry their own stats so the
// experiment harness can report sizes (Table 3).
//
// A Checkpoint is immutable once Capture or image.Decode returns it:
// restores share it, and the first separated restore caches the fixed-up
// record region every later one reuses. It holds a sync.Once, so pass it
// by pointer only.
type Checkpoint struct {
	Baseline      []byte          // flate-compressed one-by-one stream
	Records       *serial.Records // partially-deserialized records + relation table
	ConnRecords   []vfs.ConnRecord
	MountRecords  []vfs.MountRecord
	BaselineStats serial.Stats
	RecordStats   serial.Stats
	CriticalCount int
	Seed          uint64

	// The fixup and validation of Records, done once by the first
	// separated restore: the fixed-up copy of the region, shared
	// read-only by every kernel restored from cp, the number of fixups
	// applied, or the error that rejected the relation table; then the
	// region's kind counts, or the error that rejected a record.
	fixupOnce   sync.Once
	fixed       *serial.Records
	fixups      int
	fixupErr    error
	kinds       [256]int
	validateErr error
}

// Capture checkpoints the kernel in both formats (offline work: the cost
// is charged against the current clock, but callers invoke it outside the
// measured boot window).
func (k *Kernel) Capture() (*Checkpoint, error) {
	objs := k.graph()
	k.env.ChargeN(k.env.Cost.ObjectEncode, len(objs))
	baseline, bstats, err := serial.EncodeBaseline(objs)
	if err != nil {
		return nil, fmt.Errorf("guest: capture baseline: %w", err)
	}
	k.env.ChargeN(k.env.Cost.CompressPerKB, (bstats.Bytes+1023)/1024)
	records, rstats, err := serial.EncodeRecords(objs)
	if err != nil {
		return nil, fmt.Errorf("guest: capture records: %w", err)
	}
	return &Checkpoint{
		Baseline:      baseline,
		Records:       records,
		ConnRecords:   k.Conns.Capture(),
		MountRecords:  vfs.CaptureMounts(&k.Mounts),
		BaselineStats: bstats,
		RecordStats:   rstats,
		CriticalCount: k.CriticalCount(),
		Seed:          k.rngState,
	}, nil
}

// RestoreBaseline rebuilds a kernel's object graph the gVisor-restore
// way: decompress the stream and deserialize every object one-by-one, all
// on the critical path (§2.2). The I/O connection table is attached by
// the caller (boot paths measure reconnection as its own phase).
func RestoreBaseline(env *simenv.Env, cp *Checkpoint) (*Kernel, error) {
	env.ChargeN(env.Cost.DecompressPerKB, (len(cp.Baseline)+1023)/1024)
	objs, stats, err := serial.DecodeBaseline(cp.Baseline)
	if err != nil {
		return nil, fmt.Errorf("guest: restore baseline: %w", err)
	}
	env.ChargeN(env.Cost.ObjectDecode, stats.Objects)
	var kinds [256]int
	for i := range objs {
		kinds[objs[i].Kind]++
	}
	return restoredKernel(env, cp, &kinds, objs, nil)
}

// restoredKernel assembles a restored kernel around its object graph —
// decoded objects, or a fixed-up record region — after checking that
// every object has a known kind, and rebuilds the guest's mount-table
// view from the checkpoint (the host-side mount work is charged by the
// boot path).
func restoredKernel(env *simenv.Env, cp *Checkpoint, kinds *[256]int, objs []serial.Object, rec *serial.Records) (*Kernel, error) {
	k := &Kernel{
		env:      env,
		objects:  objs,
		rec:      rec,
		Conns:    vfs.NewConnTable(env),
		rngState: cp.Seed | 1,
	}
	for kind, n := range kinds {
		if n == 0 {
			continue
		}
		if kind < int(KindTask) || kind > int(KindMisc) {
			return nil, fmt.Errorf("guest: restore: %d objects of unknown kind %d", n, kind)
		}
		k.byKind[kind] = n
	}
	if len(cp.MountRecords) > 0 {
		mt, err := vfs.RestoreMounts(cp.MountRecords)
		if err != nil {
			return nil, fmt.Errorf("guest: restore mounts: %w", err)
		}
		k.Mounts = *mt
	}
	return k, nil
}

// RestoreSeparated rebuilds a kernel's object graph with separated state
// recovery (§3.2): map the record region, replay the relation table in
// parallel, and establish critical non-I/O system state. The relation
// table is replayed, and the fixed-up region bounds-checked and its kinds
// counted, once per checkpoint; every restore maps the same region
// read-only and uses it as its object graph as it is, charged as if it
// did the fixups itself, and fails as the first did if a check rejected
// it. No object is decoded. The I/O connection table is attached by the
// caller per its reconnection policy (§3.3).
func RestoreSeparated(env *simenv.Env, cp *Checkpoint) (*Kernel, error) {
	// Stage 1: map the partially-deserialized objects.
	regionKB := (len(cp.Records.Region) + 1023) / 1024
	env.ChargeN(env.Cost.MetadataMapPerKB, regionKB)

	// Stage 2: relation-table fixups, independent and parallel. The
	// first restore of cp replays them over a copy of the region, so the
	// mapped image stays as it was captured; every restore is charged.
	cp.fixupOnce.Do(func() {
		region := make([]byte, len(cp.Records.Region))
		copy(region, cp.Records.Region)
		rec := &serial.Records{
			Region:    region,
			Relations: cp.Records.Relations,
			Index:     cp.Records.Index,
		}
		cp.fixups, cp.fixupErr = serial.FixupRecords(rec)
		if cp.fixupErr == nil {
			cp.fixed = rec
			cp.validateErr = serial.ValidateRecords(rec, &cp.kinds)
		}
	})
	if cp.fixupErr != nil {
		return nil, fmt.Errorf("guest: fixup: %w", cp.fixupErr)
	}
	rec := cp.fixed
	env.ChargeParallel(simtime.Duration(cp.fixups) * env.Cost.PointerFixup)

	// Critical non-I/O system state is established on the critical path.
	env.ChargeN(env.Cost.CriticalObjectRecover, cp.CriticalCount)

	if cp.validateErr != nil {
		return nil, fmt.Errorf("guest: validate records: %w", cp.validateErr)
	}
	return restoredKernel(env, cp, &cp.kinds, nil, rec)
}
