package hotcache

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/sim"
	"repro/internal/simnet"
)

const blockSize = 512

// memBacking is a shared stable store with a fixed access delay (same
// shape as the coherence package's test backing).
type memBacking struct {
	delay         sim.Duration
	data          map[cache.Key][]byte
	reads, writes int64
}

func newMemBacking(delay sim.Duration) *memBacking {
	return &memBacking{delay: delay, data: make(map[cache.Key][]byte)}
}

func (m *memBacking) ReadBlockInto(p *sim.Proc, key cache.Key, dst []byte) error {
	p.Sleep(m.delay)
	m.reads++
	clear(dst)
	for i := 0; i*blockSize < len(dst); i++ {
		copy(dst[i*blockSize:(i+1)*blockSize], m.data[cache.Key{Vol: key.Vol, LBA: key.LBA + int64(i)}])
	}
	return nil
}

func (m *memBacking) WriteBlocks(p *sim.Proc, key cache.Key, data []byte) error {
	p.Sleep(m.delay)
	m.writes++
	for i := 0; i*blockSize < len(data); i++ {
		m.data[cache.Key{Vol: key.Vol, LBA: key.LBA + int64(i)}] = append([]byte(nil), data[i*blockSize:(i+1)*blockSize]...)
	}
	return nil
}

// harness is a blade cluster with the cache tier wired in, built from
// the coherence package's exported surface only.
type harness struct {
	k       *sim.Kernel
	net     *simnet.Network
	engines []*coherence.Engine
	conns   []*simnet.Conn
	peers   []simnet.Addr
	backing *memBacking
	tier    *Tier
}

func newHarness(seed int64, blades, cohBlocks int, cfg Config) *harness {
	k := sim.NewKernel(seed)
	net := simnet.New(k)
	backing := newMemBacking(2 * sim.Millisecond)
	h := &harness{k: k, net: net, backing: backing}
	h.peers = make([]simnet.Addr, blades)
	for i := range h.peers {
		h.peers[i] = simnet.Addr(fmt.Sprintf("blade%d", i))
		net.Connect(h.peers[i], "fabric", simnet.FC2G)
	}
	for i := 0; i < blades; i++ {
		conn := simnet.NewConn(net, h.peers[i])
		h.conns = append(h.conns, conn)
		h.engines = append(h.engines, coherence.New(k, coherence.Config{
			Conn:         conn,
			Peers:        h.peers,
			Self:         i,
			Cache:        cache.New(cohBlocks),
			Backing:      backing,
			BlockSize:    blockSize,
			OpDelay:      10 * sim.Microsecond,
			HandlerDelay: 5 * sim.Microsecond,
		}))
	}
	h.tier = New(cfg, Deps{
		K:       k,
		Engines: h.engines,
		Conns:   h.conns,
		Peers:   h.peers,
		Retry:   coherence.NormalizeRetry(simnet.RetryPolicy{}),
	})
	return h
}

func (h *harness) run(body func(p *sim.Proc)) {
	h.k.Go("test", body)
	h.k.Run()
}

func blk(v byte) []byte { return bytes.Repeat([]byte{v}, blockSize) }

func kb(i int64) cache.Key { return cache.Key{Vol: "v", LBA: i} }

// Len reports the number of cached blocks.
func (n *Node) Len() int { return n.store.Len() }

// readVia routes one read through the tier exactly as a client would:
// resolve the home, ask the tier, dispatch to the cache node or the home
// engine, bracketing with the inflight accounting.
func (h *harness) readVia(p *sim.Proc, key cache.Key) ([]byte, error) {
	d, _, err := h.readViaInfo(p, key)
	return d, err
}

// readViaInfo is readVia exposing the routing decision (property-test
// failure diagnostics).
func (h *harness) readViaInfo(p *sim.Proc, key cache.Key) ([]byte, bool, error) {
	home, err := h.engines[0].Home(key)
	if err != nil {
		return nil, false, err
	}
	blade, via := h.tier.Route(key, home)
	done := h.tier.OpStart(blade)
	defer done()
	if via {
		d, err := h.tier.Node(blade).Read(p, key, 0)
		return d, true, err
	}
	d, err := h.engines[blade].ReadBlock(p, key, 0)
	return d, false, err
}

func TestPartitionHashIndependentOfHomeHash(t *testing.T) {
	// Over a block of consecutive keys, the directory-home partition and
	// the cache partition must disagree on most keys — co-location would
	// collapse the two-choice routing to one choice. Homes come from a
	// real engine (rendezvous over the live membership), cache blades
	// from CacheBlade.
	const blades, keys = 4, 256
	h := newHarness(1, blades, 64, Config{})
	same := 0
	for i := int64(0); i < keys; i++ {
		home, err := h.engines[0].Home(kb(i))
		if err != nil {
			t.Fatal(err)
		}
		if CacheBlade(kb(i), blades) == home {
			same++
		}
	}
	// Independent hashes collide on 1/blades of keys in expectation
	// (64/256); allow generous slack but reject correlation.
	if same < keys/16 || same > keys/2 {
		t.Fatalf("cache blade == home for %d/%d keys; partitions look correlated", same, keys)
	}
}

func TestCacheBladeStableAndInRange(t *testing.T) {
	for n := 1; n <= 16; n++ {
		for i := int64(0); i < 100; i++ {
			b1, b2 := CacheBlade(kb(i), n), CacheBlade(kb(i), n)
			if b1 != b2 {
				t.Fatalf("CacheBlade not deterministic: %d vs %d", b1, b2)
			}
			if b1 < 0 || b1 >= n {
				t.Fatalf("CacheBlade(%d, %d) = %d out of range", i, n, b1)
			}
		}
	}
}

func TestRouteColdGoesHome(t *testing.T) {
	h := newHarness(1, 4, 64, Config{HotMin: 100}) // nothing gets hot
	h.tier.SetEnabled(true)
	h.run(func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			if _, err := h.readVia(p, kb(7)); err != nil {
				t.Errorf("read: %v", err)
			}
		}
	})
	st := h.tier.Stats()
	if st.RoutedCache != 0 {
		t.Fatalf("cold key routed to cache %d times", st.RoutedCache)
	}
	if st.RoutedCold == 0 {
		t.Fatal("no cold routings recorded")
	}
}

func TestHotKeyFillsAndHits(t *testing.T) {
	h := newHarness(1, 4, 64, Config{HotMin: 1})
	h.tier.SetEnabled(true)
	key := kb(3)
	h.backing.data[key] = blk(9)
	cb := CacheBlade(key, 4)
	home, _ := h.engines[0].Home(key)
	if cb == home {
		t.Skipf("key 3 co-located (cb=home=%d); pick another key for this seed", cb)
	}
	h.run(func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			d, err := h.readVia(p, key)
			if err != nil || d[0] != 9 {
				t.Errorf("read %d: %v %v", i, d[0], err)
			}
		}
	})
	ns := h.tier.Node(cb).Stats()
	if ns.Fills == 0 {
		t.Fatalf("hot key never filled the cache node: %+v", ns)
	}
	if ns.Hits == 0 {
		t.Fatalf("hot key never hit the cache node: %+v", ns)
	}
}

func TestWriteThroughInvalidates(t *testing.T) {
	h := newHarness(1, 4, 64, Config{HotMin: 1})
	h.tier.SetEnabled(true)
	key := kb(3)
	h.backing.data[key] = blk(1)
	cb := CacheBlade(key, 4)
	home, _ := h.engines[0].Home(key)
	if cb == home {
		t.Skip("key co-located for this membership")
	}
	h.run(func(p *sim.Proc) {
		// Heat the key until it is cached.
		for i := 0; i < 6; i++ {
			h.readVia(p, key)
		}
		if h.tier.Node(cb).Len() == 0 {
			t.Fatal("key not cached after hot reads")
		}
		// Write from an unrelated blade; the grant must kill the copy.
		if err := h.engines[(home+1)%4].WriteBlock(p, key, blk(2), 0); err != nil {
			t.Fatalf("write: %v", err)
		}
		if h.tier.Node(cb).Len() != 0 {
			t.Fatal("cache copy survived an acked write")
		}
		// And the next tier read sees the new data.
		d, err := h.readVia(p, key)
		if err != nil || d[0] != 2 {
			t.Fatalf("read after write: %v %v, want 2", d[0], err)
		}
	})
	if h.tier.Node(cb).Stats().Invalidations == 0 {
		t.Fatal("no write-through invalidation recorded")
	}
}

func TestWriteToUncachedKeyCostsNoRPC(t *testing.T) {
	h := newHarness(1, 4, 64, Config{HotMin: 1})
	h.tier.SetEnabled(true)
	h.run(func(p *sim.Proc) {
		// Never routed through the tier: no mark, so the exclusive-grant
		// hook must skip the fan-out entirely.
		for i := int64(100); i < 120; i++ {
			if err := h.engines[int(i)%4].WriteBlock(p, kb(i), blk(byte(i)), 0); err != nil {
				t.Fatalf("write: %v", err)
			}
		}
	})
	if st := h.tier.Stats(); st.Invals != 0 || st.InvalKeys != 0 {
		t.Fatalf("unmarked writes paid invalidation work: %+v", st)
	}
}

func TestDisableClearsAndStopsRouting(t *testing.T) {
	h := newHarness(1, 4, 16, Config{HotMin: 1})
	h.tier.SetEnabled(true)
	h.run(func(p *sim.Proc) {
		for i := int64(0); i < 8; i++ {
			for j := 0; j < 4; j++ {
				h.readVia(p, kb(i))
			}
		}
	})
	cached := 0
	for i := 0; i < 4; i++ {
		cached += h.tier.Node(i).Len()
	}
	if cached == 0 {
		t.Fatal("nothing cached while enabled")
	}
	h.tier.SetEnabled(false)
	for i := 0; i < 4; i++ {
		if n := h.tier.Node(i).Len(); n != 0 {
			t.Fatalf("node%d still holds %d blocks after disable", i, n)
		}
	}
	before := h.tier.Stats()
	h.run(func(p *sim.Proc) {
		h.readVia(p, kb(0))
	})
	after := h.tier.Stats()
	if after.RoutedCache != before.RoutedCache || after.RoutedCold != before.RoutedCold {
		t.Fatalf("disabled tier still routing: %+v -> %+v", before, after)
	}
}

func TestNodeEvictionUnderPressure(t *testing.T) {
	h := newHarness(1, 2, 64, Config{HotMin: 1, BlocksPerNode: 4})
	h.tier.SetEnabled(true)
	h.run(func(p *sim.Proc) {
		for round := 0; round < 3; round++ {
			for i := int64(0); i < 32; i++ {
				for j := 0; j < 2; j++ {
					if _, err := h.readVia(p, kb(i)); err != nil {
						t.Fatalf("read: %v", err)
					}
				}
			}
		}
	})
	for i := 0; i < 2; i++ {
		if n := h.tier.Node(i).Len(); n > 4 {
			t.Fatalf("node%d holds %d blocks, capacity 4", i, n)
		}
	}
}

// TestRebalancerSurface checks what a caller arming the tier relies on: it
// starts disabled, SetEnabled arms it, and every blade has an empty node.
func TestRebalancerSurface(t *testing.T) {
	h := newHarness(1, 4, 64, Config{})
	if h.tier.enabled {
		t.Fatal("tier must start disabled")
	}
	h.tier.SetEnabled(true)
	if !h.tier.enabled {
		t.Fatal("SetEnabled(true) did not arm")
	}
	for i := 0; i < 4; i++ {
		if n := h.tier.Node(i); n == nil || n.Len() != 0 || n.Occupancy() != 0 {
			t.Fatalf("node%d is missing or not empty", i)
		}
	}
	if st := h.tier.Stats(); st != (TierStats{}) {
		t.Fatalf("fresh tier has nonzero stats: %+v", st)
	}
}

func TestRouteChoiceInvariants(t *testing.T) {
	cases := []struct {
		cb, home, ifCB, ifHome int
		wantBlade              int
		wantVia                bool
	}{
		{1, 2, 0, 0, 1, true},   // tie → cache node
		{1, 2, 3, 5, 1, true},   // cache node less loaded
		{1, 2, 5, 3, 2, false},  // home less loaded
		{2, 2, 0, 9, 2, false},  // collision: no second choice
		{0, 3, 10, 10, 0, true}, // tie at load
	}
	for _, c := range cases {
		blade, via := routeChoice(c.cb, c.home, c.ifCB, c.ifHome)
		if blade != c.wantBlade || via != c.wantVia {
			t.Fatalf("routeChoice(%d,%d,%d,%d) = (%d,%v), want (%d,%v)",
				c.cb, c.home, c.ifCB, c.ifHome, blade, via, c.wantBlade, c.wantVia)
		}
	}
}
