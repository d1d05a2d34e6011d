package hotcache

import (
	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/sim"
)

// NodeStats counts one cache node's traffic.
type NodeStats struct {
	Hits          int64 // reads served from the node's store
	Misses        int64 // reads that fell through to the coherence plane
	Fills         int64 // miss results installed into the store
	FillAborts    int64 // installs abandoned because the key was written
	Invalidations int64 // write-through invalidations applied
}

// Node is one blade's shard of the upper cache layer: a small LRU of
// clean block copies for the hot keys this blade owns under
// PartitionHash. Copies enter only through fills (reads through the
// coherence plane) and leave through write-through invalidation or
// eviction — they are shadow copies outside the directory's jurisdiction,
// so they carry no dirty state, ever.
type Node struct {
	self   int
	engine *coherence.Engine
	store  *cache.Cache

	// epoch[key] counts invalidations of key. A fill records it before
	// issuing its coherence read and installs only if it did not move —
	// the same install guard the coherence engine uses (engine.go
	// readBlock), shrunk to this node's jurisdiction. There are no yields
	// between the recheck and the install, so the guard cannot be raced
	// by a concurrent event.
	epoch map[cache.Key]uint64

	stats NodeStats
}

// epochSweepAt bounds the epoch map: once it outgrows this multiple of
// the store's capacity, entries for keys not currently cached are
// dropped. Dropping is safe in one direction only — a fill that recorded
// a pruned epoch later reads 0, mismatches, and aborts — so pruning can
// cause a spurious fill abort but never a stale install.
const epochSweepAt = 8

func newNode(self int, engine *coherence.Engine, blocks int) *Node {
	return &Node{
		self:   self,
		engine: engine,
		store:  cache.New(blocks),
		epoch:  make(map[cache.Key]uint64),
	}
}

// Read serves one block read through the cache node. A hit costs the
// blade engine's per-op CPU charge and returns the cached copy; a miss
// reads through the coherence plane (which does its own CPU accounting)
// and installs the result if no write intervened. Neither is a
// copy: nobody writes FetchBlock's result (frozen, or fresh) or Read's.
func (n *Node) Read(p *sim.Proc, key cache.Key, priority int) ([]byte, error) {
	if ent, ok := n.store.Get(key); ok {
		n.stats.Hits++
		n.engine.Busy(p, n.engine.OpDelay())
		return ent.Data, nil
	}
	n.stats.Misses++
	epoch := n.epoch[key]
	// FetchBlock, not ReadBlock: the fill must stay outside the coherence
	// domain. A ReadBlock fill would register this blade as a sharer and
	// install a Shared coherence copy, making every later write to the
	// hot key pay an invalidation round trip inside its grant — the tier
	// carries its own freshness guarantee (epoch guard + write-through
	// hook), so the MSI bookkeeping would be pure overhead.
	data, err := n.engine.FetchBlock(p, key, priority)
	if err != nil {
		return nil, err
	}
	if n.epoch[key] == epoch {
		n.makeRoom()
		n.store.Put(key, data, cache.Shared, false, priority)
		n.stats.Fills++
	} else {
		n.stats.FillAborts++
	}
	return data, nil
}

// makeRoom evicts until one entry fits. Every entry is clean, so
// eviction is a plain drop — no writeback, no epoch bump (removing a
// copy cannot create staleness; only installing one can).
func (n *Node) makeRoom() {
	for n.store.NeedsRoom(1) {
		v := n.store.Victim()
		if v == nil {
			return
		}
		n.store.Evict(v)
	}
}

// Invalidate applies a write-through invalidation for keys: each key's
// epoch advances (killing in-flight fills) and any cached copy is
// removed. It runs synchronously inside the home's exclusive grant, so
// by the time the writer learns it owns the block, this node holds
// nothing stale.
func (n *Node) Invalidate(keys []cache.Key) {
	for _, key := range keys {
		n.epoch[key]++
		n.stats.Invalidations++
		n.store.Remove(key)
	}
	if len(n.epoch) > epochSweepAt*n.store.Capacity() {
		for k := range n.epoch {
			if _, cached := n.store.Peek(k); !cached {
				delete(n.epoch, k)
			}
		}
	}
}

// Stats returns a copy of the node's counters.
func (n *Node) Stats() NodeStats { return n.stats }

// Occupancy reports the fraction of the node's store in use.
func (n *Node) Occupancy() float64 {
	if n.store.Capacity() == 0 {
		return 0
	}
	return float64(n.store.Len()) / float64(n.store.Capacity())
}
