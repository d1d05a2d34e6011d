package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func key(i int64) Key { return Key{Vol: "v", LBA: i} }

func TestPutGet(t *testing.T) {
	c := New(10)
	c.Put(key(1), []byte{1}, Shared, false, 0)
	e, ok := c.Get(key(1))
	if !ok || e.Data[0] != 1 || e.State != Shared {
		t.Fatal("get after put failed")
	}
	if _, ok := c.Get(key(2)); ok {
		t.Fatal("hit on absent key")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPutReplaces(t *testing.T) {
	c := New(10)
	c.Put(key(1), []byte{1}, Shared, false, 0)
	c.Put(key(1), []byte{2}, Modified, true, 1)
	if c.Len() != 1 {
		t.Fatalf("len = %d", c.Len())
	}
	e, _ := c.Peek(key(1))
	if e.Data[0] != 2 || e.State != Modified || !e.Dirty || e.Priority != 1 {
		t.Fatal("replace did not update fields")
	}
}

func TestVictimIsLRU(t *testing.T) {
	c := New(3)
	c.Put(key(1), nil, Shared, false, 0)
	c.Put(key(2), nil, Shared, false, 0)
	c.Put(key(3), nil, Shared, false, 0)
	c.Get(key(1)) // refresh 1; victim should now be 2
	v := c.Victim()
	if v.Key != key(2) {
		t.Fatalf("victim = %v, want v/2", v.Key)
	}
}

func TestVictimPrefersCleanOverDirty(t *testing.T) {
	c := New(3)
	c.Put(key(1), nil, Modified, true, 0) // older but dirty
	c.Put(key(2), nil, Shared, false, 0)  // clean
	if v := c.Victim(); v.Key != key(2) {
		t.Fatalf("victim = %v, want clean v/2", v.Key)
	}
}

func TestVictimPrefersLowPriority(t *testing.T) {
	c := New(3)
	c.Put(key(1), nil, Shared, false, 3) // high retention (§4 override)
	c.Put(key(2), nil, Shared, false, 0)
	c.Get(key(1))
	c.Get(key(2)) // 2 is most recent but lowest priority
	if v := c.Victim(); v.Key != key(2) {
		t.Fatalf("victim = %v, want low-priority v/2", v.Key)
	}
}

func TestVictimSkipsPinned(t *testing.T) {
	c := New(2)
	e1 := c.Put(key(1), nil, Shared, false, 0)
	e1.Pinned = true
	c.Put(key(2), nil, Shared, false, 0)
	if v := c.Victim(); v.Key != key(2) {
		t.Fatalf("victim = %v, want v/2 (1 pinned)", v.Key)
	}
	e2, _ := c.Peek(key(2))
	e2.Pinned = true
	if v := c.Victim(); v != nil {
		t.Fatalf("victim = %v, want nil (all pinned)", v.Key)
	}
}

func TestVictimFallsBackToDirty(t *testing.T) {
	c := New(2)
	c.Put(key(1), nil, Modified, true, 2)
	c.Put(key(2), nil, Modified, true, 1)
	if v := c.Victim(); v.Key != key(2) {
		t.Fatalf("victim = %v, want lowest-lane dirty v/2", v.Key)
	}
}

func TestEvictAndRemove(t *testing.T) {
	c := New(5)
	c.Put(key(1), nil, Shared, false, 0)
	e, _ := c.Peek(key(1))
	c.Evict(e)
	if c.Len() != 0 || c.Stats().Evictions != 1 {
		t.Fatal("evict bookkeeping wrong")
	}
	c.Evict(e) // double evict is a no-op
	if c.Stats().Evictions != 1 {
		t.Fatal("double evict counted")
	}
	c.Put(key(2), nil, Shared, false, 0)
	c.Remove(key(2))
	if c.Len() != 0 {
		t.Fatal("remove failed")
	}
}

func TestDirtyEntries(t *testing.T) {
	c := New(10)
	c.Put(key(1), nil, Modified, true, 0)
	c.Put(key(2), nil, Shared, false, 0)
	c.Put(key(3), nil, Modified, true, 2)
	ds := c.DirtyEntries()
	if len(ds) != 2 {
		t.Fatalf("dirty = %d, want 2", len(ds))
	}
}

func TestNeedsRoom(t *testing.T) {
	c := New(2)
	c.Put(key(1), nil, Shared, false, 0)
	if c.NeedsRoom(1) {
		t.Fatal("room exists")
	}
	c.Put(key(2), nil, Shared, false, 0)
	if !c.NeedsRoom(1) {
		t.Fatal("full cache claims room")
	}
}

func TestClear(t *testing.T) {
	c := New(5)
	c.Put(key(1), nil, Shared, false, 0)
	c.Put(key(2), nil, Modified, true, 3)
	c.Clear()
	if c.Len() != 0 {
		t.Fatal("clear left entries")
	}
	if v := c.Victim(); v != nil {
		t.Fatal("victim on empty cache")
	}
}

func TestPriorityClamping(t *testing.T) {
	c := New(5)
	e := c.Put(key(1), nil, Shared, false, 99)
	if e.Priority != NumPriorities-1 {
		t.Fatalf("priority = %d, want clamped to %d", e.Priority, NumPriorities-1)
	}
	e2 := c.Put(key(2), nil, Shared, false, -5)
	if e2.Priority != 0 {
		t.Fatalf("priority = %d, want clamped to 0", e2.Priority)
	}
}

func TestHitRate(t *testing.T) {
	c := New(5)
	c.Put(key(1), nil, Shared, false, 0)
	c.Get(key(1))
	c.Get(key(2))
	c.Get(key(1))
	if hr := c.Stats().HitRate(); hr < 0.66 || hr > 0.67 {
		t.Fatalf("hit rate = %v, want 2/3", hr)
	}
	if (Stats{}).HitRate() != 0 {
		t.Fatal("empty hit rate not 0")
	}
}

// Property: Len never exceeds inserted keys; evicting every victim in a
// loop always empties the cache (no stranded entries).
func TestDrainProperty(t *testing.T) {
	f := func(keys []int64) bool {
		c := New(8)
		for _, k := range keys {
			if c.NeedsRoom(1) {
				v := c.Victim()
				if v == nil {
					return false
				}
				c.Evict(v)
			}
			c.Put(key(k%16), nil, Shared, false, int(k)%NumPriorities)
		}
		if c.Len() > 8 {
			return false
		}
		for c.Len() > 0 {
			v := c.Victim()
			if v == nil {
				return false
			}
			c.Evict(v)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the victim is never more recently used than any other entry in
// the same lane with the same dirtiness class.
func TestVictimLRUWithinLaneProperty(t *testing.T) {
	f := func(accesses []uint8) bool {
		c := New(64)
		order := make(map[Key]int)
		step := 0
		for _, a := range accesses {
			k := key(int64(a % 32))
			step++
			if _, ok := c.Peek(k); ok {
				c.Get(k)
			} else {
				c.Put(k, nil, Shared, false, 0)
			}
			order[k] = step
		}
		v := c.Victim()
		if v == nil {
			return len(order) == 0
		}
		for k, s := range order {
			if _, ok := c.Peek(k); ok && s < order[v.Key] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPutReplaceBumpsVersion(t *testing.T) {
	c := New(10)
	e := c.Put(key(1), []byte{1}, Shared, false, 0)
	v0 := e.Version
	// Replacing the content must bump Version: writeback paths compare
	// the version they captured before destaging against the entry's
	// current version before clearing Dirty, and a silent replace would
	// let them mark the new content clean without persisting it.
	e2 := c.Put(key(1), []byte{2}, Modified, true, 0)
	if e2 != e {
		t.Fatal("replace allocated a new entry")
	}
	if e2.Version <= v0 {
		t.Fatalf("Version = %d after replace, want > %d", e2.Version, v0)
	}
	prev := e2.Version
	c.Put(key(1), []byte{3}, Modified, true, 0)
	if e2.Version <= prev {
		t.Fatalf("Version = %d after second replace, want > %d", e2.Version, prev)
	}
}

func TestPutCountsInsertsAndReplacesSeparately(t *testing.T) {
	c := New(10)
	c.Put(key(1), []byte{1}, Shared, false, 0)
	c.Put(key(2), []byte{2}, Shared, false, 0)
	c.Put(key(1), []byte{9}, Modified, true, 0) // replace, not insert
	st := c.Stats()
	if st.Inserts != 2 {
		t.Fatalf("Inserts = %d, want 2 (replaces must not count)", st.Inserts)
	}
	if st.Replaces != 1 {
		t.Fatalf("Replaces = %d, want 1", st.Replaces)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

// scanDirty is DirtyEntries as it was before the cache indexed its dirty
// entries: a walk of every lane, front (LRU) to back.
func scanDirty(c *Cache) []*Entry {
	var out []*Entry
	for lane := 0; lane < NumPriorities; lane++ {
		for el := c.lanes[lane].Front(); el != nil; el = el.Next() {
			if e := el.Value.(*Entry); e.Dirty {
				out = append(out, e)
			}
		}
	}
	return out
}

// The dirty index must be invisible: after any sequence of operations
// DirtyEntries returns exactly what the full scan would, in its order
// (lane, then LRU age) — the flusher picks its batch from the front of it —
// and the count never drifts from the truth.
func TestDirtyIndexMatchesFullScan(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := New(64)
		var held []*Entry // entries handed out earlier, some no longer resident
		check := func(op string, i int) {
			t.Helper()
			got, want := c.DirtyEntries(), scanDirty(c)
			if len(got) != len(want) || c.DirtyCount() != len(want) {
				t.Fatalf("seed %d op %d (%s): DirtyEntries %d, DirtyCount %d, full scan %d",
					seed, i, op, len(got), c.DirtyCount(), len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("seed %d op %d (%s): position %d is %v, full scan has %v",
						seed, i, op, j, got[j].Key, want[j].Key)
				}
			}
		}
		for i := 0; i < 4000; i++ {
			k := key(int64(rng.Intn(96)))
			var op string
			switch r := rng.Intn(100); {
			case r < 30:
				op = "put"
				for c.NeedsRoom(1) {
					c.Evict(c.Victim())
				}
				held = append(held, c.Put(k, nil, Modified, rng.Intn(2) == 0, rng.Intn(NumPriorities)))
			case r < 55:
				op = "get"
				c.Get(k)
			case r < 80:
				op = "setdirty"
				if len(held) > 0 {
					// Any entry ever handed out, resident or not: a destage
					// may finish after its block was invalidated.
					c.SetDirty(held[rng.Intn(len(held))], rng.Intn(2) == 0)
				}
			case r < 88:
				op = "evict"
				if v := c.Victim(); v != nil {
					c.Evict(v)
				}
			case r < 99:
				op = "remove"
				c.Remove(k)
			default:
				op = "clear"
				c.Clear()
			}
			check(op, i)
		}
	}
}
