// Package replication implements N-way replication of write data across
// controller caches (§6.1): a write is acknowledged only after N blade
// caches hold the dirty data, so N−1 blade failures lose nothing. Replicas
// are released once the owner destages the block, and surviving holders
// destage a dead owner's replicas during recovery.
package replication

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/cache"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

const ctrlSize = 64

// Replica is a dirty block held on behalf of another blade.
type Replica struct {
	Owner   int
	Version uint64
	Data    []byte
}

type putReq struct {
	Key     cache.Key
	Owner   int
	Version uint64
	Data    []byte
}
type putResp struct{}
type dropReq struct {
	Key     cache.Key
	Owner   int
	Version uint64
}
type dropResp struct{}

// placement is where one dirty block was replicated: its buddies, a window
// of the manager's ring, and the version pushed to them.
type placement struct {
	buddies []int
	version uint64
}

// Manager runs replication for one blade: it pushes this blade's dirty
// blocks to buddies and stores replicas for peers.
type Manager struct {
	conn  *simnet.Conn
	peers []simnet.Addr
	self  int
	// n is the total number of cache copies per dirty block (owner
	// included); n=1 disables replication.
	n     int
	alive []int
	// ring is alive without this blade, twice over: the candidates for its
	// buddies, so that a block's buddy list is a window of it. SetAlive makes
	// a new one and nothing writes an old one, so a list outlives the
	// membership it was chosen under.
	ring []int
	// held maps (owner, key) → replica stored for that owner.
	held map[int]map[cache.Key]Replica
	// placed records where this blade replicated each of its own dirty
	// blocks, and for which version, so OnClean drops from the right buddies
	// even when a per-file factor differs from the default. OnClean deletes
	// a record once it cleans the recorded version.
	placed map[cache.Key]placement
	pushes sim.Spare[*push] // push states, given back (see ReplicateDirty)
	// Retry bounds each replica push (per-attempt deadline, attempt
	// budget, jittered backoff). New sets the fabric's default policy;
	// a cluster replaces it with its blades' defaulted one.
	Retry simnet.RetryPolicy
	// Stats
	Puts, Drops, Recovered int64
}

// New builds a manager and registers its handlers on conn (which may be
// shared with the coherence engine — method names do not collide). The
// manager runs on its callers' processes, so it keeps no kernel.
func New(_ *sim.Kernel, conn *simnet.Conn, peers []simnet.Addr, self, n int) *Manager {
	m := &Manager{
		conn: conn, peers: peers, self: self, n: n,
		held:   make(map[int]map[cache.Key]Replica),
		placed: make(map[cache.Key]placement),
		Retry:  simnet.RetryPolicy{}.WithDefaults(),
	}
	all := make([]int, len(peers))
	for i := range all {
		all[i] = i
	}
	m.SetAlive(all)
	conn.Register("repl.put", m.handlePut)
	conn.Register("repl.drop", m.handleDrop)
	return m
}

// SetAlive installs the live membership (must match the coherence layer).
func (m *Manager) SetAlive(alive []int) {
	m.alive = append([]int(nil), alive...)
	others := slices.DeleteFunc(slices.Clone(alive), func(id int) bool { return id == m.self })
	m.ring = append(others, others...)
}

// RegisterTelemetry publishes the manager's counters under s: replica
// pushes/releases, recoveries replayed, and replicas currently held for
// peers.
func (m *Manager) RegisterTelemetry(s telemetry.Scope) {
	s.Int("puts", func() int64 { return m.Puts })
	s.Int("drops", func() int64 { return m.Drops })
	s.Int("recovered", func() int64 { return m.Recovered })
	s.Int("held_blocks", func() int64 { return int64(m.HeldBlocks()) })
}

// buddies returns the factor−1 blades (≠ self) that replicate key for this
// blade, chosen deterministically so recovery can be audited: a window of
// the ring, which the caller must not write. factor ≤ 0 selects the manager
// default.
func (m *Manager) buddies(key cache.Key, factor int) []int {
	if factor <= 0 {
		factor = m.n
	}
	live := len(m.ring) / 2
	want := min(factor-1, live)
	if want <= 0 {
		return nil
	}
	start := int(key.Hash() % uint64(live))
	return m.ring[start : start+want : start+want]
}

// ReplicateDirty pushes the block to all buddies and blocks until every
// one acknowledges — the paper's write-ack condition. It has the exact
// signature of coherence.Config.ReplicateDirty. factor overrides the
// manager's default replication factor when positive (per-file policy §4).
func (m *Manager) ReplicateDirty(p *sim.Proc, key cache.Key, data []byte, version uint64, factor int) error {
	// The placement is recorded by value: a buddy list is a window of the
	// ring, so recording it allocates nothing.
	buddies := m.buddies(key, factor)
	m.placed[key] = placement{buddies, version}
	if len(buddies) == 0 {
		return nil
	}
	var sp *trace.Active
	if ctx := trace.FromProc(p); ctx.Valid() {
		sp = ctx.Child("replicate", trace.Repl, fmt.Sprintf("blade%d", m.self))
	}
	// The per-buddy push processes must parent under the replicate span,
	// not the op root, so its context is pushed around the fork.
	pop := sp.Push(p)
	ps, ok := m.pushes.Get()
	if !ok {
		ps = &push{m: m}
		ps.put = ps.to
	}
	ps.buddies, ps.req = buddies, putReq{Key: key, Owner: m.self, Version: version, Data: data}
	err := sim.Fork(p, "repl.put", len(buddies), ps.put)
	*ps = push{m: m, put: ps.put}
	m.pushes.Put(ps)
	pop()
	sp.End()
	m.Puts++
	return err
}

// push is one ReplicateDirty's fan-out and its item, bound once, kept on
// Manager.pushes (DESIGN §22). Each item sends its own copy of req.
type push struct {
	m       *Manager
	buddies []int
	req     putReq
	put     func(q *sim.Proc, i int) error
}

func (ps *push) to(q *sim.Proc, i int) error {
	b := ps.buddies[i]
	if _, err := ps.m.conn.CallRetry(q, ps.m.peers[b], "repl.put", ps.req, ctrlSize+len(ps.req.Data), ps.m.Retry); err != nil {
		return fmt.Errorf("replication: put to blade %d: %w", b, err)
	}
	return nil
}

// OnClean releases replicas after the owner destaged version. It has the
// exact signature of coherence.Config.OnClean and is fire-and-forget. The
// block's placement record goes with them, unless a newer write made it.
func (m *Manager) OnClean(p *sim.Proc, key cache.Key, version uint64) {
	pl, ok := m.placed[key]
	targets := pl.buddies
	if !ok {
		targets = m.buddies(key, 0)
	} else if version >= pl.version {
		delete(m.placed, key)
	}
	for _, b := range targets {
		m.conn.Cast(p, m.peers[b], "repl.drop",
			dropReq{Key: key, Owner: m.self, Version: version}, ctrlSize)
	}
	m.Drops++
}

func (m *Manager) handlePut(p *sim.Proc, from simnet.Addr, args any) (any, int) {
	req := args.(putReq)
	byOwner, ok := m.held[req.Owner]
	if !ok {
		byOwner = make(map[cache.Key]Replica)
		m.held[req.Owner] = byOwner
	}
	// The pushed buffer is the owner's frozen cache buffer (coherence's
	// freeze rule): nobody writes it, so the replica keeps it itself.
	if old, exists := byOwner[req.Key]; !exists || req.Version >= old.Version {
		byOwner[req.Key] = Replica{Owner: req.Owner, Version: req.Version, Data: req.Data}
	}
	return putResp{}, ctrlSize
}

func (m *Manager) handleDrop(p *sim.Proc, from simnet.Addr, args any) (any, int) {
	req := args.(dropReq)
	if byOwner, ok := m.held[req.Owner]; ok {
		if r, exists := byOwner[req.Key]; exists && r.Version <= req.Version {
			delete(byOwner, req.Key)
		}
	}
	return dropResp{}, ctrlSize
}

// HeldBlocks returns the total replica count stored on this blade.
func (m *Manager) HeldBlocks() int {
	n := 0
	for _, byOwner := range m.held {
		n += len(byOwner)
	}
	return n
}

// RecoverFor destages every replica held for the dead owner via write and
// discards it, returning the number recovered. The cluster calls this on
// every survivor when a blade dies; together the survivors cover all of
// the dead blade's acknowledged-but-undestaged writes (unless all N
// holders died).
func (m *Manager) RecoverFor(p *sim.Proc, dead int, write func(p *sim.Proc, key cache.Key, data []byte) error) (int, error) {
	byOwner := m.held[dead]
	// Destage in key order, not map order: recovery I/O timing must be
	// identical across runs with the same seed.
	keys := make([]cache.Key, 0, len(byOwner))
	for key := range byOwner {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Vol != keys[j].Vol {
			return keys[i].Vol < keys[j].Vol
		}
		return keys[i].LBA < keys[j].LBA
	})
	n := 0
	for _, key := range keys {
		if err := write(p, key, byOwner[key].Data); err != nil {
			return n, err
		}
		delete(byOwner, key)
		n++
		m.Recovered++
	}
	return n, nil
}

// DropOwner discards all replicas held for owner without destaging (used
// when the owner recovered by itself).
func (m *Manager) DropOwner(owner int) { delete(m.held, owner) }
