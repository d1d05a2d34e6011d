// Package cache implements the per-blade block cache of §2.2: an LRU cache
// with retention-priority lanes (file metadata can "override cache retention
// priorities", §4), dirty tracking for write-back, and the coherence state
// tag maintained by the inter-controller protocol in internal/coherence.
package cache

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Key identifies a cached block: a virtual volume name plus block address.
type Key struct {
	Vol string
	LBA int64
}

func (k Key) String() string { return fmt.Sprintf("%s/%d", k.Vol, k.LBA) }

// fnv1a64 constants (hash/fnv), inlined so Hash stays allocation-free.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Hash is the 64-bit FNV-1a hash of the key's String form — exactly what
// fnv.New64a fed fmt.Fprintf("%s/%d", Vol, LBA) sums to — without the writer
// or the formatter, so it allocates nothing. A block's coherence home and its
// replication buddies are both placed by it.
func (k Key) Hash() uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(k.Vol); i++ {
		h ^= uint64(k.Vol[i])
		h *= fnvPrime64
	}
	h ^= '/'
	h *= fnvPrime64
	var buf [20]byte
	for _, c := range strconv.AppendInt(buf[:0], k.LBA, 10) {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

// lbaBits is the width of the LBA field of an Index ID: 2^40 blocks, 4 PiB
// of 4 KiB blocks per volume. The volume number takes the other 24 bits.
const lbaBits = 40

// Index numbers keys for the maps that are touched once per block. A map
// keyed by Key hashes the volume name on every access; an Index numbers
// each name once and remembers the last one, so a run of keys on one volume
// costs one string compare per key, and the map beneath hashes a uint64.
// An ID packs (volume number, LBA); it means something only to the Index
// that made it, so each owner keeps its own Index and no ID leaves it.
// The zero Index is ready to use.
type Index struct {
	vols map[string]uint64
	last string
	num  uint64 // last's number; 0 before the first key
}

// ID returns key's number in x. An LBA outside [0, 2^40) panics: it would
// alias another volume's key.
func (x *Index) ID(key Key) uint64 {
	if uint64(key.LBA) >= 1<<lbaBits {
		panic(fmt.Sprintf("cache: key %v: LBA outside [0, 2^%d)", key, lbaBits))
	}
	if x.num == 0 || key.Vol != x.last {
		x.number(key.Vol)
	}
	return x.num<<lbaBits | uint64(key.LBA)
}

// number makes vol the last name, numbering it if it is new.
func (x *Index) number(vol string) {
	n, ok := x.vols[vol]
	if !ok {
		if x.vols == nil {
			x.vols = make(map[string]uint64)
		}
		n = uint64(len(x.vols)) + 1
		if n >= 1<<(64-lbaBits) {
			panic(fmt.Sprintf("cache: volume %q: the Index is out of volume numbers", vol))
		}
		x.vols[vol] = n
	}
	x.last, x.num = vol, n
}

// State is the block's coherence state on this blade.
type State uint8

// MSI coherence states.
const (
	Invalid  State = iota
	Shared         // clean, possibly cached on other blades too
	Modified       // exclusive; may be dirty
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Modified:
		return "M"
	default:
		return "?"
	}
}

// NumPriorities is the count of retention lanes; priority 0 evicts first.
const NumPriorities = 4

// Entry is one cached block.
type Entry struct {
	Key   Key
	Data  []byte
	State State
	// Dirty is read-only outside this package: the cache indexes its dirty
	// entries, so every change goes through Put or SetDirty.
	Dirty bool
	// Lent marks a Data buffer that crossed the fabric: a peer may hold it,
	// so nobody writes it (see coherence's freeze rule). A new entry starts
	// without it.
	Lent     bool
	Priority int
	// Pinned entries are immune to eviction (e.g. mid-writeback).
	Pinned bool
	// Version increments on every data update; writeback paths use it to
	// detect concurrent modification before clearing Dirty.
	Version uint64

	// prev and next link the entry into its lane (see lane); resident is
	// false once the entry has left the cache.
	prev, next *Entry
	resident   bool
	lane       int
	// age is the recency stamp taken whenever the entry moves to the back of
	// its lane, so ascending age is exactly the lane's LRU order.
	age uint64
	// dirtyIdx is the entry's slot in Cache.dirty, -1 when not indexed.
	dirtyIdx int
}

// Stats counts cache activity. Inserts counts new entries only; replacing
// an existing entry's content via Put counts as a Replace, not an Insert
// (Len and capacity accounting are unaffected by replaces).
type Stats struct {
	Hits, Misses, Evictions, Inserts, Replaces int64
}

// Cache is a fixed-capacity block cache. It is a passive data structure:
// all policy (writeback, coherence messaging) lives in the caller.
type Cache struct {
	capacity int
	ids      Index
	entries  map[uint64]*Entry // by ids.ID(Entry.Key)
	lanes    [NumPriorities]lane
	clock    uint64   // source of Entry.age
	dirty    []*Entry // every resident dirty entry, unordered
	// spare holds the released records of entries that left (see Release),
	// never more than the cache has empty slots.
	spare sim.Spare[*Entry]
	stats Stats
}

// lane is one retention lane: a doubly linked list of resident entries,
// threaded through their own prev/next fields so that an insert allocates
// nothing beyond the entry. head is the LRU victim end.
type lane struct{ head, tail *Entry }

func (l *lane) pushBack(e *Entry) {
	e.prev, e.next = l.tail, nil
	if l.tail != nil {
		l.tail.next = e
	} else {
		l.head = e
	}
	l.tail = e
}

func (l *lane) remove(e *Entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// New returns a cache holding up to capacity blocks.
func New(capacity int) *Cache {
	return &Cache{capacity: capacity, entries: make(map[uint64]*Entry)}
}

// Capacity returns the configured block capacity.
func (c *Cache) Capacity() int { return c.capacity }

// Len returns the number of cached blocks.
func (c *Cache) Len() int { return len(c.entries) }

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// RegisterTelemetry publishes the cache's counters and occupancy under s.
func (c *Cache) RegisterTelemetry(s telemetry.Scope) {
	s.Int("hits", func() int64 { return c.stats.Hits })
	s.Int("misses", func() int64 { return c.stats.Misses })
	s.Int("evictions", func() int64 { return c.stats.Evictions })
	s.Int("inserts", func() int64 { return c.stats.Inserts })
	s.Int("replaces", func() int64 { return c.stats.Replaces })
	s.Int("len", func() int64 { return int64(len(c.entries)) })
	s.Int("capacity", func() int64 { return int64(c.capacity) })
}

// Get returns the entry for key and refreshes its recency; ok is false on
// miss. Hit/miss counters update accordingly.
func (c *Cache) Get(key Key) (*Entry, bool) {
	e, ok := c.entries[c.ids.ID(key)]
	if !ok {
		c.stats.Misses++
		return nil, false
	}
	c.stats.Hits++
	if l := &c.lanes[e.lane]; l.tail != e {
		l.remove(e)
		l.pushBack(e)
	}
	c.touch(e)
	return e, true
}

// Peek returns the entry without touching recency or counters.
func (c *Cache) Peek(key Key) (*Entry, bool) {
	e, ok := c.entries[c.ids.ID(key)]
	return e, ok
}

// Put inserts or replaces an entry. The caller must have made room first
// (Put never evicts; see Victim). Data is stored by reference, neither
// copied nor freed: whoever puts a buffer answers for who else holds it. A
// new entry takes the record Release handed back most recently, if any.
func (c *Cache) Put(key Key, data []byte, state State, dirty bool, priority int) *Entry {
	if priority < 0 {
		priority = 0
	}
	if priority >= NumPriorities {
		priority = NumPriorities - 1
	}
	id := c.ids.ID(key)
	if e, ok := c.entries[id]; ok {
		c.lanes[e.lane].remove(e)
		e.Data, e.State, e.Priority = data, state, priority
		c.SetDirty(e, dirty)
		// The replace path rewrites Data, so it must bump Version like
		// every other data update: writeback paths compare Version before
		// clearing Dirty, and a silent replace would let a concurrent
		// destage mark the new content clean without persisting it.
		e.Version++
		e.lane = priority
		c.lanes[priority].pushBack(e)
		c.touch(e)
		c.stats.Replaces++
		return e
	}
	e, ok := c.spare.Get()
	if !ok {
		e = new(Entry)
	}
	*e = Entry{Key: key, Data: data, State: state, Priority: priority, resident: true, lane: priority, dirtyIdx: -1}
	c.lanes[priority].pushBack(e)
	c.touch(e)
	c.entries[id] = e
	c.SetDirty(e, dirty)
	c.stats.Inserts++
	return e
}

func (c *Cache) touch(e *Entry) {
	c.clock++
	e.age = c.clock
}

// SetDirty marks e dirty or clean, keeping the dirty index in step. An
// entry that has already left the cache (a destage finishing after its
// block was invalidated) only has its flag updated.
func (c *Cache) SetDirty(e *Entry, dirty bool) {
	e.Dirty = dirty
	switch {
	case dirty && e.dirtyIdx < 0 && e.resident:
		e.dirtyIdx = len(c.dirty)
		c.dirty = append(c.dirty, e)
	case !dirty && e.dirtyIdx >= 0:
		c.untrack(e)
	}
}

// untrack swap-removes e from the dirty index.
func (c *Cache) untrack(e *Entry) {
	last := len(c.dirty) - 1
	moved := c.dirty[last]
	c.dirty[e.dirtyIdx] = moved
	moved.dirtyIdx = e.dirtyIdx
	c.dirty[last] = nil
	c.dirty = c.dirty[:last]
	e.dirtyIdx = -1
}

// drop unlinks a resident entry from the lanes, the map and the dirty index.
func (c *Cache) drop(e *Entry) {
	c.lanes[e.lane].remove(e)
	e.resident = false
	delete(c.entries, c.ids.ID(e.Key))
	if e.dirtyIdx >= 0 {
		c.untrack(e)
	}
}

// Remove drops key from the cache (no writeback — caller's job).
func (c *Cache) Remove(key Key) {
	if e, ok := c.entries[c.ids.ID(key)]; ok {
		c.drop(e)
	}
}

// NeedsRoom reports whether inserting n new blocks would exceed capacity.
func (c *Cache) NeedsRoom(n int) bool { return len(c.entries)+n > c.capacity }

// Victim returns the best eviction candidate: the least-recently-used,
// lowest-priority entry, preferring clean over dirty (dirty victims force a
// writeback on the caller). Pinned entries are skipped. Returns nil if no
// candidate exists.
func (c *Cache) Victim() *Entry {
	// First pass: clean entries, lowest lane first.
	for i := range c.lanes {
		for e := c.lanes[i].head; e != nil; e = e.next {
			if !e.Pinned && !e.Dirty {
				return e
			}
		}
	}
	// Second pass: accept a dirty victim.
	for i := range c.lanes {
		for e := c.lanes[i].head; e != nil; e = e.next {
			if !e.Pinned {
				return e
			}
		}
	}
	return nil
}

// Release hands back the record of e, which has left the cache and which
// its caller knows nobody holds, for the next Put to reuse; until then e is
// the non-resident record it was. A record beyond the cache's empty slots is
// left to the collector, and a resident entry panics.
func (c *Cache) Release(e *Entry) {
	if e.resident {
		panic(fmt.Sprintf("cache: Release of resident entry %v", e.Key))
	}
	if c.spare.Len() < c.capacity-len(c.entries) {
		c.spare.Put(e)
	}
}

// Evict removes e and counts the eviction; an entry that has already left
// the cache is ignored.
func (c *Cache) Evict(e *Entry) {
	if !e.resident {
		return
	}
	c.drop(e)
	c.stats.Evictions++
}

// DirtyEntries returns all dirty entries (oldest first per lane), for the
// background flusher and for flush-on-failure recovery. The cost depends on
// the number of dirty entries only, not on the cache's size: a flusher tick
// over a clean cache is free.
func (c *Cache) DirtyEntries() []*Entry {
	if len(c.dirty) == 0 {
		return nil
	}
	out := append([]*Entry(nil), c.dirty...)
	sort.Sort(byLaneAge(out))
	return out
}

// byLaneAge orders entries as a walk of the lanes would meet them: lowest
// lane first, least recently used first within a lane.
type byLaneAge []*Entry

func (s byLaneAge) Len() int      { return len(s) }
func (s byLaneAge) Swap(i, j int) { s[i], s[j] = s[j], s[i] }
func (s byLaneAge) Less(i, j int) bool {
	if s[i].lane != s[j].lane {
		return s[i].lane < s[j].lane
	}
	return s[i].age < s[j].age
}

// Clear drops every entry without writeback (cold restart after a
// membership change; dirty data must have been flushed by the caller).
func (c *Cache) Clear() {
	for _, e := range c.entries {
		e.prev, e.next, e.resident, e.dirtyIdx = nil, nil, false, -1
	}
	c.dirty = nil
	c.entries = make(map[uint64]*Entry)
	c.lanes = [NumPriorities]lane{}
}
