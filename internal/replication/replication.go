// Package replication implements N-way replication of write data across
// controller caches (§6.1): a write is acknowledged only after N blade
// caches hold the dirty data, so N−1 blade failures lose nothing. Replicas
// are released once the owner destages the block, and surviving holders
// destage a dead owner's replicas during recovery.
package replication

import (
	"fmt"
	"hash/fnv"
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

// Manager runs replication for one blade: it pushes this blade's dirty
// blocks to buddies and stores replicas for peers.
type Manager struct {
	k     *sim.Kernel
	conn  *simnet.Conn
	peers []simnet.Addr
	self  int
	// n is the total number of cache copies per dirty block (owner
	// included); n=1 disables replication.
	n     int
	alive []int
	// held maps (owner, key) → replica stored for that owner.
	held map[int]map[cache.Key]Replica
	// placed records where this blade last replicated each of its own
	// dirty blocks, so OnClean drops from the right buddies even when a
	// per-file factor differs from the default.
	placed map[cache.Key][]int
	// Retry bounds each replica push (per-attempt deadline, attempt
	// budget, jittered backoff); the zero value falls back to a single
	// 2 s-deadline attempt per buddy, the pre-retry behaviour.
	Retry simnet.RetryPolicy
	// Stats
	Puts, Drops, Recovered int64
}

// New builds a manager and registers its handlers on conn (which may be
// shared with the coherence engine — method names do not collide).
func New(k *sim.Kernel, conn *simnet.Conn, peers []simnet.Addr, self, n int) *Manager {
	m := &Manager{
		k: k, conn: conn, peers: peers, self: self, n: n,
		held:   make(map[int]map[cache.Key]Replica),
		placed: make(map[cache.Key][]int),
	}
	for i := range peers {
		m.alive = append(m.alive, i)
	}
	conn.Register("repl.put", m.handlePut)
	conn.Register("repl.drop", m.handleDrop)
	return m
}

// SetAlive installs the live membership (must match the coherence layer).
func (m *Manager) SetAlive(alive []int) {
	m.alive = append([]int(nil), alive...)
}

// Factor returns the replication factor N.
func (m *Manager) Factor() int { return m.n }

// RegisterTelemetry publishes the manager's counters under s: replica
// pushes/releases, recoveries replayed, and replicas currently held for
// peers.
func (m *Manager) RegisterTelemetry(s telemetry.Scope) {
	s.Int("puts", func() int64 { return m.Puts })
	s.Int("drops", func() int64 { return m.Drops })
	s.Int("recovered", func() int64 { return m.Recovered })
	s.Int("held_blocks", func() int64 { return int64(m.HeldBlocks()) })
}

// SetFactor changes N for subsequent writes. The paper allows the level to
// be "dynamically specified on a file-by-file basis"; the per-write factor
// is plumbed through the PFS policy layer via managers configured per class.
func (m *Manager) SetFactor(n int) { m.n = n }

// buddies returns the factor−1 blades (≠ self) that replicate key for
// this blade, chosen deterministically so recovery can be audited.
// factor ≤ 0 selects the manager default.
func (m *Manager) buddies(key cache.Key, factor int) []int {
	if factor <= 0 {
		factor = m.n
	}
	want := factor - 1
	if want <= 0 {
		return nil
	}
	live := make([]int, 0, len(m.alive))
	for _, id := range m.alive {
		if id != m.self {
			live = append(live, id)
		}
	}
	if len(live) == 0 {
		return nil
	}
	if want > len(live) {
		want = len(live)
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", key.Vol, key.LBA)
	start := int(h.Sum64() % uint64(len(live)))
	out := make([]int, 0, want)
	for i := 0; i < want; i++ {
		out = append(out, live[(start+i)%len(live)])
	}
	return out
}

// ReplicateDirty pushes the block to all buddies and blocks until every
// one acknowledges — the paper's write-ack condition. It has the exact
// signature of coherence.Config.ReplicateDirty. factor overrides the
// manager's default replication factor when positive (per-file policy §4).
func (m *Manager) ReplicateDirty(p *sim.Proc, key cache.Key, data []byte, version uint64, factor int) error {
	buddies := m.buddies(key, factor)
	m.placed[key] = buddies
	if len(buddies) == 0 {
		return nil
	}
	pol := m.Retry
	if pol.Timeout <= 0 {
		pol.Timeout = 2 * sim.Second
	}
	if pol.Attempts < 1 {
		// Match the coherence layer's default: a single dropped packet
		// should not fail an acknowledged write.
		pol.Attempts = 3
	}
	var sp *trace.Active
	if ctx := trace.FromProc(p); ctx.Valid() {
		sp = ctx.Child("replicate", trace.Repl, fmt.Sprintf("blade%d", m.self))
	}
	// The per-buddy push processes must parent under the replicate span,
	// not the op root, so push its context while spawning.
	pop := sp.Push(p)
	grp := sim.NewGroup(m.k)
	var firstErr error
	for _, b := range buddies {
		b := b
		grp.Add(1)
		m.k.Go("repl.put", func(q *sim.Proc) {
			defer grp.Done()
			_, err := m.conn.CallRetry(q, m.peers[b], "repl.put",
				putReq{Key: key, Owner: m.self, Version: version, Data: data},
				ctrlSize+len(data), pol)
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("replication: put to blade %d: %w", b, err)
			}
		})
	}
	pop()
	grp.Wait(p)
	sp.End()
	m.Puts++
	return firstErr
}

// OnClean releases replicas after the owner destaged version. It has the
// exact signature of coherence.Config.OnClean and is fire-and-forget.
func (m *Manager) OnClean(p *sim.Proc, key cache.Key, version uint64) {
	targets, ok := m.placed[key]
	if !ok {
		targets = m.buddies(key, 0)
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
	if old, exists := byOwner[req.Key]; !exists || req.Version >= old.Version {
		byOwner[req.Key] = Replica{Owner: req.Owner, Version: req.Version, Data: append([]byte(nil), req.Data...)}
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

// HeldFor returns the replicas this blade stores for owner (for recovery
// and tests).
func (m *Manager) HeldFor(owner int) map[cache.Key]Replica {
	out := make(map[cache.Key]Replica, len(m.held[owner]))
	for k, v := range m.held[owner] {
		out[k] = v
	}
	return out
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
