package vfs

import (
	"fmt"

	"catalyzer/internal/simenv"
)

// ConnKind classifies I/O connections.
type ConnKind uint8

const (
	ConnFile ConnKind = iota
	ConnSocket
)

func (k ConnKind) String() string {
	if k == ConnSocket {
		return "socket"
	}
	return "file"
}

// ConnState tracks a connection across checkpoint/restore.
type ConnState uint8

const (
	// StateOpen: the connection is live.
	StateOpen ConnState = iota
	// StatePending: the descriptor was handed to the application but is
	// "tagged as not re-opened yet in the guest kernel" (§3.3); first
	// use performs the re-do operation.
	StatePending
	// StateClosed: closed by the application.
	StateClosed
)

// Conn is one I/O connection owned by a sandbox's guest kernel.
type Conn struct {
	ID    int
	Kind  ConnKind
	Path  string
	State ConnState
}

// ConnTable is a guest kernel's I/O connection table plus the restore-time
// reconnection machinery.
type ConnTable struct {
	env    *simenv.Env
	nextID int
	conns  map[int]*Conn

	// Reconnects counts re-do operations actually performed, split by
	// where they were paid.
	EagerReconnects  int
	CachedReconnects int
	LazyReconnects   int
}

// NewConnTable returns an empty table.
func NewConnTable(env *simenv.Env) *ConnTable {
	return &ConnTable{env: env, conns: make(map[int]*Conn)}
}

// Open registers a live connection (the open itself is charged by the
// caller as part of application syscall accounting).
func (ct *ConnTable) Open(kind ConnKind, path string) *Conn {
	ct.nextID++
	c := &Conn{ID: ct.nextID, Kind: kind, Path: Clean(path), State: StateOpen}
	ct.conns[c.ID] = c
	return c
}

// Close closes a connection.
func (ct *ConnTable) Close(id int) error {
	c, ok := ct.conns[id]
	if !ok {
		return fmt.Errorf("vfs: close of unknown conn %d", id)
	}
	c.State = StateClosed
	return nil
}

// Len returns the number of non-closed connections.
func (ct *ConnTable) Len() int {
	n := 0
	for _, c := range ct.conns {
		if c.State != StateClosed {
			n++
		}
	}
	return n
}

// Conns returns all non-closed connections in ID (open) order.
func (ct *ConnTable) Conns() []*Conn {
	out := make([]*Conn, 0, len(ct.conns))
	for id := 1; id <= ct.nextID; id++ {
		if c, ok := ct.conns[id]; ok && c.State != StateClosed {
			out = append(out, c)
		}
	}
	return out
}

// ConnRecord is the checkpointed form of a connection.
type ConnRecord struct {
	Kind ConnKind
	Path string
}

// Capture snapshots the non-closed connections for a func-image.
func (ct *ConnTable) Capture() []ConnRecord {
	var out []ConnRecord
	for id := 1; id <= ct.nextID; id++ {
		c, ok := ct.conns[id]
		if !ok || c.State == ConnState(StateClosed) {
			continue
		}
		out = append(out, ConnRecord{Kind: c.Kind, Path: c.Path})
	}
	return out
}

// RestoreEager rebuilds the table from records by performing every re-do
// operation on the critical path, the way gVisor-restore re-opens every
// "suppose opened" file (§2.2). Each re-do charges ConnReconnect.
func RestoreEager(env *simenv.Env, records []ConnRecord) *ConnTable {
	ct := NewConnTable(env)
	for _, r := range records {
		env.Charge(env.Cost.ConnReconnect)
		c := ct.Open(r.Kind, r.Path)
		c.State = StateOpen
		ct.EagerReconnects++
	}
	return ct
}

// RestoreLazy rebuilds the table with every connection pending: the
// descriptor exists, the re-do happens on first use (§3.3).
func RestoreLazy(env *simenv.Env, records []ConnRecord) *ConnTable {
	ct := NewConnTable(env)
	for _, r := range records {
		env.Charge(env.Cost.ConnReconnectLazy)
		c := ct.Open(r.Kind, r.Path)
		c.State = StatePending
	}
	return ct
}

// RestoreWithCache rebuilds the table using an I/O cache: connections the
// cache marks as deterministically used right after boot are re-connected
// on the critical path (with the lazy-dup optimization, §6.7), the rest
// stay pending (§3.3).
func RestoreWithCache(env *simenv.Env, records []ConnRecord, cache *IOCache) *ConnTable {
	ct := NewConnTable(env)
	for _, r := range records {
		c := ct.Open(r.Kind, r.Path)
		if cache != nil && cache.Contains(r.Path) {
			env.Charge(env.Cost.ConnReconnectCached)
			c.State = StateOpen
			ct.CachedReconnects++
		} else {
			env.Charge(env.Cost.ConnReconnectLazy)
			c.State = StatePending
		}
	}
	return ct
}

// Use accesses a connection, lazily performing the re-do operation if it
// is still pending. It reports whether a reconnect was paid.
func (ct *ConnTable) Use(id int) (bool, error) {
	c, ok := ct.conns[id]
	if !ok {
		return false, fmt.Errorf("vfs: use of unknown conn %d", id)
	}
	switch c.State {
	case StateClosed:
		return false, fmt.Errorf("vfs: use of closed conn %d (%s)", id, c.Path)
	case StatePending:
		ct.env.Charge(ct.env.Cost.ConnReconnect)
		c.State = StateOpen
		ct.LazyReconnects++
		return true, nil
	default:
		return false, nil
	}
}

// Clone returns a copy of the table for an sforked child: inherited
// descriptors keep their IDs and states (read-only grants from the FS
// server remain valid across sfork, §4.2). Reconnect counters start
// fresh.
func (ct *ConnTable) Clone() *ConnTable {
	c := NewConnTable(ct.env)
	c.nextID = ct.nextID
	for id, conn := range ct.conns {
		cc := *conn
		c.conns[id] = &cc
	}
	return c
}

// PendingCount returns how many connections still await their re-do.
func (ct *ConnTable) PendingCount() int {
	n := 0
	for _, c := range ct.conns {
		if c.State == StatePending {
			n++
		}
	}
	return n
}

// IOCache records which connections a function uses deterministically
// right after booting (§3.3). It is produced during a cold boot and
// consulted by warm boots.
type IOCache struct {
	order []string
	ops   map[string]uint8 // path → op bits (bit0 read, bit1 write)
}

// NewIOCache returns an empty cache. Its map is made at the first use.
func NewIOCache() *IOCache {
	return &IOCache{}
}

// RecordUse notes that path was used (op: 'r' or 'w') during the
// post-boot window of a cold boot.
func (c *IOCache) RecordUse(path string, write bool) {
	path = Clean(path)
	bit := uint8(1)
	if write {
		bit = 2
	}
	if c.ops == nil {
		c.ops = make(map[string]uint8)
	}
	if _, ok := c.ops[path]; !ok {
		c.order = append(c.order, path)
	}
	c.ops[path] |= bit
}

// Contains reports whether path is cached.
func (c *IOCache) Contains(path string) bool {
	_, ok := c.ops[Clean(path)]
	return ok
}

// Len returns the number of cached paths.
func (c *IOCache) Len() int { return len(c.order) }

// Paths returns cached paths in first-use order.
func (c *IOCache) Paths() []string {
	out := make([]string, len(c.order))
	copy(out, c.order)
	return out
}

// Bytes returns the serialized size of the cache: per entry a 2-byte
// length prefix, the path, and an op byte. This is the "I/O Cache" column
// of Table 3.
func (c *IOCache) Bytes() int {
	n := 0
	for _, p := range c.order {
		n += 2 + len(p) + 1
	}
	return n
}
