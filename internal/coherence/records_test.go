package coherence

import (
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/cache"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// A warm 64-block miss run whose blocks are homed on all 8 blades costs
// nothing per home, and four arrays per op: the op's requests, each beside
// room for its answer, carved into one array with one vector per home, and
// the evict notices with one vector per home. The vectors travel by pointer
// and are answered in place, and the envelopes of the calls and casts go by
// value.
func TestReadRunAllocationsPerHome(t *testing.T) {
	const bs, cacheBlocks, run, blades = 4096, 1024, 64, 8
	h := newHarnessSized(1, blades, cacheBlocks, bs, &failingBacking{delay: 2 * sim.Millisecond}, simnet.RetryPolicy{})
	defer h.k.Close()
	e := h.engines[0]
	dst := make([]byte, run*bs)
	read := func(p *sim.Proc, i int) error {
		return e.ReadRun(p, "v", int64(i*run)%(2*cacheBlocks), 0, dst)
	}
	h.run(func(p *sim.Proc) {
		for i := 0; i < 2*cacheBlocks/run; i++ { // fill the cache: the runs below evict
			read(p, i)
		}
		homes := make(map[int]bool)
		for lba := range int64(run) {
			home, _ := e.home(kb(lba))
			homes[home] = true
		}
		if len(homes) != blades {
			t.Fatalf("a run's blocks are homed on %d blades, want %d", len(homes), blades)
		}
		i := 0
		misses := e.stats.DiskReads
		allocs := testing.AllocsPerRun(20, func() {
			if err := read(p, i); err != nil {
				t.Error(err)
			}
			i++
		})
		if n := e.stats.DiskReads - misses; n != 21*run {
			t.Fatalf("%d blocks read from the store over 21 runs of %d, want every one: the runs did not miss", n, run)
		}
		if want := 4; allocs > float64(want) {
			t.Errorf("a warm %d-block miss run at %d homes: %v allocs, want ≤ %d", run, blades, allocs, want)
		}
	})
}

// A warm, uncontended coh.getx — the key's record exists and the requester
// already owns it, so the home invalidates nobody — allocates nothing at the
// home: every grant answers with the one boxed empty reply.
func TestWarmGetXAllocatesNothing(t *testing.T) {
	const blades = 2
	h := newHarness(1, blades, 16)
	defer h.k.Close()
	key := kb(0)
	home := h.engines[homeOf(key, blades)]
	from := h.engines[1-home.self].conn.Addr()
	var args any = dirReq{Key: key}
	h.run(func(p *sim.Proc) {
		home.handleGetX(p, from, args) // makes the record: Modified, owned by from
		grants := home.stats.DirRequests
		allocs := testing.AllocsPerRun(100, func() {
			resp, _ := home.handleGetX(p, from, args)
			if r := resp.(dirResp); r.Redirect || r.Data != nil {
				t.Fatalf("grant answered %+v, want an empty reply", r)
			}
		})
		if n := home.stats.DirRequests - grants; n != 101 {
			t.Fatalf("%d grants over 101 calls: the test exercises nothing", n)
		}
		if allocs > 0 {
			t.Errorf("a warm coh.getx grant: %v allocs, want 0", allocs)
		}
	})
}

// An evict notice from a life of a key's record that was pruned reaches the
// home after the blade re-registered the key: it must not deregister the
// fresh copy. The old life's epochs are below the new life's only because
// pruning raised the epoch base; a record that restarted at a constant would
// re-register under the notice's epoch, and the notice would strand the copy
// outside the sharer set, where the write below could not invalidate it.
func TestPrunedLifeEvictNoticeIgnored(t *testing.T) {
	const blades, n = 2, 8
	h := newHarness(1, blades, n)
	for i := int64(0); i < 2*n; i++ {
		h.backing.data[kb(i)] = blk(byte(i + 1))
	}
	reader := h.engines[0]
	var key cache.Key
	for i := int64(0); i < n; i++ {
		if key = kb(i); homeOf(key, blades) != reader.self {
			break
		}
	}
	home := h.engines[homeOf(key, blades)]
	type held struct {
		from simnet.Addr
		args any
	}
	var notices []held
	home.conn.Register("coh.evict", func(p *sim.Proc, from simnet.Addr, args any) (any, int) {
		notices = append(notices, held{from, args})
		return nil, 0
	})
	h.run(func(p *sim.Proc) {
		if _, err := reader.ReadBlock(p, key, 0); err != nil {
			t.Fatal(err)
		}
		// An op between its lookup and its install keeps the record, so the
		// eviction below ages the record's own epoch; the record is pruned
		// once the op lets go.
		reader.record(key).holds++
		if _, err := readRun(p, reader, n, n); err != nil { // evicts key
			t.Fatal(err)
		}
		p.Sleep(sim.Millisecond)
		reader.release(key)
		if _, ok := reader.keys[reader.ids.ID(key)]; ok {
			t.Fatalf("%v keeps its record with no copy, no directory state and no op holding it", key)
		}
		stale := notices
		notices = nil
		if len(stale) == 0 {
			t.Fatal("no evict notice held: the test exercises nothing")
		}
		if d, err := reader.ReadBlock(p, key, 0); err != nil || d[0] != byte(key.LBA+1) {
			t.Fatalf("re-read %v: %v", key, err)
		}
		for _, nt := range stale {
			home.handleEvictNote(p, nt.from, nt.args)
		}
	})
	ent := home.keys[home.ids.ID(key)]
	if ent == nil || ent.state != dirShared {
		t.Fatalf("%v after the stale notice: record %+v, want Shared", key, ent)
	}
	if _, ok := ent.sharers.epoch(reader.self); !ok {
		t.Fatalf("%v after the stale notice: sharers %v, want the reader still registered", key, ent.sharers)
	}
	h.run(func(p *sim.Proc) {
		if err := home.WriteBlock(p, key, blk(99), 0); err != nil {
			t.Fatal(err)
		}
		if d, err := reader.ReadBlock(p, key, 0); err != nil || d[0] != 99 {
			t.Fatalf("reader rereads %v as %d (%v) after the write, want 99", key, d[0], err)
		}
	})
}

// The engines' records stay bounded by what is cached, not by how long the
// workload runs: 8 blades under 25% writes over a set four times one blade's
// cache, resident in the pooled cache, keep at most 2 × blades × cache blocks
// records live after N ops and after 4N. A record that outlived its key's use
// would grow with the keys each blade ever touched, up to the whole set per
// blade: twice the bound here.
func TestRecordsStayBounded(t *testing.T) {
	const blades, cacheBlocks, set, n = 8, 64, 256, 1500
	h := newHarness(1, blades, cacheBlocks)
	rng := rand.New(rand.NewSource(1))
	live := func() (total int) {
		for _, e := range h.engines {
			total += len(e.keys)
		}
		return total
	}
	ops := func(count int) {
		h.run(func(p *sim.Proc) {
			for range count {
				e := h.engines[rng.Intn(blades)]
				key := kb(rng.Int63n(set))
				if rng.Intn(4) == 0 {
					if err := e.WriteBlock(p, key, blk(byte(rng.Intn(256))), 0); err != nil {
						t.Fatal(err)
					}
				} else if _, err := e.ReadBlock(p, key, 0); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	const bound = 2 * blades * cacheBlocks
	ops(n)
	if got := live(); got > bound {
		t.Fatalf("%d live records after %d ops, want ≤ %d", got, n, bound)
	}
	ops(3 * n)
	if got := live(); got > bound {
		t.Fatalf("%d live records after %d ops, want ≤ %d", got, 4*n, bound)
	}
	checkDirectoryInvariants(t, h, set)
}

// A record is 128 bytes, a size class of its own: one more field would make
// every record 144.
func TestKeyStateDoesNotGrow(t *testing.T) {
	if n := unsafe.Sizeof(keyState{}); n != 128 {
		t.Errorf("keyState is %d bytes, want 128", n)
	}
}

// Home overrides are the keys homed away from their hash, on every blade: a
// key migrated away and back, or a redirect that names the hash home, leaves
// no override behind. The ex-home keeps its forwarder, since a blade that
// missed the sethome broadcast still asks there.
func TestHomeOverridesAreKeysHomedAway(t *testing.T) {
	const blades, keys = 4, 16
	h := newHarness(1, blades, 64)
	ctl := simnet.NewConn(h.net, "ctl")
	h.net.Connect("ctl", "fabric", simnet.FC2G)
	retry := simnet.RetryPolicy{}.WithDefaults()
	migrate := func(p *sim.Proc, key cache.Key, from, to int) {
		if moved, err := RequestMigrate(p, ctl, h.engines[from].peers[from], key, to, retry); err != nil || !moved {
			t.Fatalf("migrate %v from %d to %d: moved=%v err=%v", key, from, to, moved, err)
		}
	}
	overrides := func(want int) {
		for _, e := range h.engines {
			if n := len(e.homeOverride); n != want {
				t.Errorf("blade %d holds %d home overrides, want %d: the keys homed away", e.self, n, want)
			}
		}
	}
	h.run(func(p *sim.Proc) {
		for k := range int64(keys) {
			if _, err := h.engines[0].ReadBlock(p, kb(k), 0); err != nil {
				t.Fatal(err)
			}
			from := homeOf(kb(k), blades)
			migrate(p, kb(k), from, (from+1)%blades)
		}
		overrides(keys)
		for k := int64(0); k < keys; k += 2 { // half of them come back
			from := homeOf(kb(k), blades)
			migrate(p, kb(k), (from+1)%blades, from)
		}
		overrides(keys / 2)
		// A blade that missed the broadcast asks the ex-home, which
		// redirects it to the hash home: the override goes.
		key := kb(0)
		exHome := h.engines[(homeOf(key, blades)+1)%blades]
		if _, ok := exHome.forward[exHome.ids.ID(key)]; !ok {
			t.Fatalf("ex-home %d dropped its forwarder for %v", exHome.self, key)
		}
		reader := h.engines[(homeOf(key, blades)+2)%blades]
		if reader.self == 0 { // blade 0 holds a copy: its read would hit
			reader = h.engines[(homeOf(key, blades)+3)%blades]
		}
		reader.homeOverride[reader.ids.ID(key)] = exHome.self
		if _, err := reader.ReadBlock(p, key, 0); err != nil {
			t.Fatal(err)
		}
		if reader.Stats().RedirectsFollowed == 0 {
			t.Fatal("the stale override was not redirected")
		}
		overrides(keys / 2)
	})
	checkDirectoryInvariants(t, h, keys)
}
