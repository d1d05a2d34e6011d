// Package cache implements the per-blade block cache of §2.2: an LRU cache
// with retention-priority lanes (file metadata can "override cache retention
// priorities", §4), dirty tracking for write-back, and the coherence state
// tag maintained by the inter-controller protocol in internal/coherence.
package cache

import (
	"container/list"
	"fmt"
	"sort"

	"repro/internal/telemetry"
)

// Key identifies a cached block: a virtual volume name plus block address.
type Key struct {
	Vol string
	LBA int64
}

func (k Key) String() string { return fmt.Sprintf("%s/%d", k.Vol, k.LBA) }

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
	Dirty    bool
	Priority int
	// Pinned entries are immune to eviction (e.g. mid-writeback).
	Pinned bool
	// Version increments on every data update; writeback paths use it to
	// detect concurrent modification before clearing Dirty.
	Version uint64

	elem *list.Element // nil once the entry has left the cache
	lane int
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
	entries  map[Key]*Entry
	lanes    [NumPriorities]*list.List // front = LRU victim end
	clock    uint64                    // source of Entry.age
	dirty    []*Entry                  // every resident dirty entry, unordered
	stats    Stats
}

// New returns a cache holding up to capacity blocks.
func New(capacity int) *Cache {
	c := &Cache{capacity: capacity, entries: make(map[Key]*Entry)}
	for i := range c.lanes {
		c.lanes[i] = list.New()
	}
	return c
}

// Capacity returns the configured block capacity.
func (c *Cache) Capacity() int { return c.capacity }

// SetCapacity adjusts capacity (the caller evicts the overflow).
func (c *Cache) SetCapacity(n int) { c.capacity = n }

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
	e, ok := c.entries[key]
	if !ok {
		c.stats.Misses++
		return nil, false
	}
	c.stats.Hits++
	c.lanes[e.lane].MoveToBack(e.elem)
	c.touch(e)
	return e, true
}

// Peek returns the entry without touching recency or counters.
func (c *Cache) Peek(key Key) (*Entry, bool) {
	e, ok := c.entries[key]
	return e, ok
}

// Put inserts or replaces an entry. The caller must have made room first
// (Put never evicts; see Victim). Data is stored by reference.
func (c *Cache) Put(key Key, data []byte, state State, dirty bool, priority int) *Entry {
	if priority < 0 {
		priority = 0
	}
	if priority >= NumPriorities {
		priority = NumPriorities - 1
	}
	if e, ok := c.entries[key]; ok {
		c.lanes[e.lane].Remove(e.elem)
		e.Data, e.State, e.Priority = data, state, priority
		c.SetDirty(e, dirty)
		// The replace path rewrites Data, so it must bump Version like
		// every other data update: writeback paths compare Version before
		// clearing Dirty, and a silent replace would let a concurrent
		// destage mark the new content clean without persisting it.
		e.Version++
		e.lane = priority
		e.elem = c.lanes[priority].PushBack(e)
		c.touch(e)
		c.stats.Replaces++
		return e
	}
	e := &Entry{Key: key, Data: data, State: state, Priority: priority, lane: priority, dirtyIdx: -1}
	e.elem = c.lanes[priority].PushBack(e)
	c.touch(e)
	c.entries[key] = e
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
	case dirty && e.dirtyIdx < 0 && e.elem != nil:
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
	c.lanes[e.lane].Remove(e.elem)
	e.elem = nil
	delete(c.entries, e.Key)
	if e.dirtyIdx >= 0 {
		c.untrack(e)
	}
}

// Remove drops key from the cache (no writeback — caller's job).
func (c *Cache) Remove(key Key) {
	if e, ok := c.entries[key]; ok {
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
	for lane := 0; lane < NumPriorities; lane++ {
		for el := c.lanes[lane].Front(); el != nil; el = el.Next() {
			e := el.Value.(*Entry)
			if !e.Pinned && !e.Dirty {
				return e
			}
		}
	}
	// Second pass: accept a dirty victim.
	for lane := 0; lane < NumPriorities; lane++ {
		for el := c.lanes[lane].Front(); el != nil; el = el.Next() {
			e := el.Value.(*Entry)
			if !e.Pinned {
				return e
			}
		}
	}
	return nil
}

// Evict removes e and counts the eviction.
func (c *Cache) Evict(e *Entry) {
	if _, ok := c.entries[e.Key]; !ok {
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

// DirtyCount reports how many dirty entries the cache holds.
func (c *Cache) DirtyCount() int { return len(c.dirty) }

// Keys returns all cached keys (unspecified order).
func (c *Cache) Keys() []Key {
	out := make([]Key, 0, len(c.entries))
	for k := range c.entries {
		out = append(out, k)
	}
	return out
}

// Clear drops every entry without writeback (cold restart after a
// membership change; dirty data must have been flushed by the caller).
func (c *Cache) Clear() {
	for _, e := range c.entries {
		e.elem, e.dirtyIdx = nil, -1
	}
	c.dirty = nil
	c.entries = make(map[Key]*Entry)
	for i := range c.lanes {
		c.lanes[i] = list.New()
	}
}

// HitRate returns hits/(hits+misses), 0 when no accesses.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}
