package cache

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
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
	if st := c.Stats(); st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 2/1", st.Hits, st.Misses)
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
			c.Put(key(k&31), nil, Shared, false, int(k)%NumPriorities) // LBAs 0..31: an Index rejects negative ones
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

// The Lent flag sits in the padding beside State and Dirty: a record is
// still 128 bytes on a 64-bit host, the size class it had without it.
func TestEntryDoesNotGrow(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are those of a 64-bit host")
	}
	if n := unsafe.Sizeof(Entry{}); n > 128 {
		t.Errorf("cache.Entry is %d bytes, want at most 128", n)
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
		for e := c.lanes[lane].head; e != nil; e = e.next {
			if e.Dirty {
				out = append(out, e)
			}
		}
	}
	return out
}

// checkLanes reports the first way the intrusive lanes disagree with the
// map: every lane walks head to tail in ascending age, a backward walk from
// tail meets the same entries in reverse, and together the lanes hold
// exactly the resident entries, each in the lane it records.
func checkLanes(c *Cache) error {
	n := 0
	for i := range c.lanes {
		l := &c.lanes[i]
		var fwd []*Entry
		for e := l.head; e != nil; e = e.next {
			if len(fwd) > 0 && e.age <= fwd[len(fwd)-1].age {
				return fmt.Errorf("lane %d: %v (age %d) follows %v (age %d)", i, e.Key, e.age, fwd[len(fwd)-1].Key, fwd[len(fwd)-1].age)
			}
			if e.lane != i || !e.resident || c.entries[c.ids.ID(e.Key)] != e {
				return fmt.Errorf("lane %d holds %v (lane %d, resident %v), not the map's entry", i, e.Key, e.lane, e.resident)
			}
			fwd = append(fwd, e)
		}
		j := len(fwd)
		for e := l.tail; e != nil; e = e.prev {
			if j--; j < 0 || fwd[j] != e {
				return fmt.Errorf("lane %d: backward walk from tail disagrees with the forward walk at %v", i, e.Key)
			}
		}
		if j != 0 {
			return fmt.Errorf("lane %d: backward walk met %d of %d entries", i, len(fwd)-j, len(fwd))
		}
		n += len(fwd)
	}
	if n != len(c.entries) {
		return fmt.Errorf("lanes hold %d entries, map %d", n, len(c.entries))
	}
	return nil
}

// The dirty index must be invisible: after any sequence of operations
// DirtyEntries returns exactly what the full scan would, in its order
// (lane, then LRU age) — the flusher picks its batch from the front of it —
// and the count never drifts from the truth. The same sequence holds the
// intrusive lanes to their invariants (checkLanes), and Clear to leaving
// every lane empty.
func TestDirtyIndexMatchesFullScan(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := New(64)
		var held []*Entry // entries handed out earlier, some no longer resident
		check := func(op string, i int) {
			t.Helper()
			got, want := c.DirtyEntries(), scanDirty(c)
			if len(got) != len(want) || len(c.dirty) != len(want) {
				t.Fatalf("seed %d op %d (%s): DirtyEntries %d, dirty index %d, full scan %d",
					seed, i, op, len(got), len(c.dirty), len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("seed %d op %d (%s): position %d is %v, full scan has %v",
						seed, i, op, j, got[j].Key, want[j].Key)
				}
			}
			if err := checkLanes(c); err != nil {
				t.Fatalf("seed %d op %d (%s): %v", seed, i, op, err)
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
				for l := range c.lanes {
					if c.lanes[l] != (lane{}) || c.Len() != 0 {
						t.Fatalf("seed %d op %d: lane %d not empty after Clear (len %d)", seed, i, l, c.Len())
					}
				}
			}
			check(op, i)
		}
	}
}

// TestIndexIDsDistinct: keys over three volumes, visited with their names
// interleaved so the remembered last name keeps changing, at the lowest and
// the highest LBA an ID holds, get pairwise distinct IDs, and the same key
// gets the same ID whenever it comes back.
func TestIndexIDsDistinct(t *testing.T) {
	var x Index
	vols := []string{"a", "bb", "a2", ""}
	lbas := []int64{0, 1, 1<<lbaBits - 1}
	seen := make(map[uint64]Key)
	for round := 0; round < 2; round++ {
		for _, lba := range lbas {
			for _, vol := range vols {
				k := Key{Vol: vol, LBA: lba}
				id := x.ID(k)
				if prev, ok := seen[id]; ok && prev != k {
					t.Fatalf("%v and %v share ID %#x", prev, k, id)
				}
				seen[id] = k
			}
		}
	}
	if len(seen) != len(vols)*len(lbas) {
		t.Fatalf("%d IDs for %d keys", len(seen), len(vols)*len(lbas))
	}
}

// TestIndexRejectsOutOfRangeLBA: an LBA an ID cannot hold panics, naming
// the key, instead of aliasing another volume's block.
func TestIndexRejectsOutOfRangeLBA(t *testing.T) {
	for _, k := range []Key{{Vol: "v", LBA: -1}, {Vol: "v", LBA: 1 << lbaBits}} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, k.String()) {
					t.Errorf("ID(%v): panic %q, want one naming the key", k, msg)
				}
			}()
			var x Index
			x.ID(k)
		}()
	}
}
