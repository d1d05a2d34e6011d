package coherence

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/cache"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// memBacking is a shared stable store with a fixed access delay per call,
// whatever the length of the run read.
type memBacking struct {
	delay         sim.Duration
	data          map[cache.Key][]byte
	reads, writes int64
	runs          [][2]int64         // every read served: first LBA, blocks
	bad           map[cache.Key]bool // a read that touches one of these fails
	wruns         []writeRun         // every write served, in arrival order
	// midWrite, when set, runs while a write is in flight (after the delay,
	// before the store takes the data); an error it returns fails the write.
	midWrite func(p *sim.Proc, w writeRun) error
}

// writeRun is one backing write: its first block and how many it carried.
type writeRun struct {
	key    cache.Key
	blocks int
}

func newMemBacking(delay sim.Duration) *memBacking {
	return &memBacking{delay: delay, data: make(map[cache.Key][]byte)}
}

func (m *memBacking) ReadBlockInto(p *sim.Proc, key cache.Key, dst []byte) error {
	p.Sleep(m.delay)
	m.reads++
	m.runs = append(m.runs, [2]int64{key.LBA, int64(len(dst) / blockSize)})
	clear(dst)
	for i := 0; i*blockSize < len(dst); i++ {
		k := cache.Key{Vol: key.Vol, LBA: key.LBA + int64(i)}
		if m.bad[k] {
			return fmt.Errorf("backing: unreadable block %v", k)
		}
		copy(dst[i*blockSize:(i+1)*blockSize], m.data[k])
	}
	return nil
}

func (m *memBacking) WriteBlocks(p *sim.Proc, key cache.Key, data []byte) error {
	w := writeRun{key, len(data) / blockSize}
	m.wruns = append(m.wruns, w)
	p.Sleep(m.delay)
	if m.midWrite != nil {
		if err := m.midWrite(p, w); err != nil {
			return err
		}
	}
	m.writes++
	for i := 0; i < w.blocks; i++ {
		m.data[cache.Key{Vol: key.Vol, LBA: key.LBA + int64(i)}] = append([]byte(nil), data[i*blockSize:(i+1)*blockSize]...)
	}
	return nil
}

const blockSize = 512

type harness struct {
	k       *sim.Kernel
	net     *simnet.Network
	engines []*Engine
	backing *memBacking
}

func newHarness(seed int64, blades, cacheBlocks int) *harness {
	k := sim.NewKernel(seed)
	net := simnet.New(k)
	backing := newMemBacking(2 * sim.Millisecond)
	peers := make([]simnet.Addr, blades)
	for i := range peers {
		peers[i] = simnet.Addr(fmt.Sprintf("blade%d", i))
		net.Connect(peers[i], "fabric", simnet.FC2G)
	}
	h := &harness{k: k, net: net, backing: backing}
	for i := 0; i < blades; i++ {
		conn := simnet.NewConn(net, peers[i])
		h.engines = append(h.engines, New(k, Config{
			Conn:         conn,
			Peers:        peers,
			Self:         i,
			Cache:        cache.New(cacheBlocks),
			Backing:      backing,
			BlockSize:    blockSize,
			OpDelay:      10 * sim.Microsecond,
			HandlerDelay: 5 * sim.Microsecond,
		}))
	}
	return h
}

func (h *harness) run(body func(p *sim.Proc)) {
	h.k.Go("test", body)
	h.k.Run()
}

// setBatched puts every engine's client paths on the batched plane or off it.
func (h *harness) setBatched(on bool) {
	for _, e := range h.engines {
		e.SetBatched(on)
	}
}

// readRun reads blocks [lba, lba+n) of the test volume through e as one op
// and returns them one slice per block.
func readRun(p *sim.Proc, e *Engine, lba int64, n int) ([][]byte, error) {
	dst := make([]byte, n*blockSize)
	if err := e.ReadRun(p, kb(lba).Vol, lba, 0, dst); err != nil {
		return nil, err
	}
	out := make([][]byte, n)
	for i := range out {
		out[i] = dst[i*blockSize : (i+1)*blockSize]
	}
	return out, nil
}

func blk(v byte) []byte { return bytes.Repeat([]byte{v}, blockSize) }

func kb(i int64) cache.Key { return cache.Key{Vol: "v", LBA: i} }

func TestReadMissThenHit(t *testing.T) {
	h := newHarness(1, 4, 64)
	h.backing.data[kb(1)] = blk(7)
	h.run(func(p *sim.Proc) {
		d, err := h.engines[0].ReadBlock(p, kb(1), 0)
		if err != nil || d[0] != 7 {
			t.Errorf("first read: %v %v", d[0], err)
		}
		d2, err := h.engines[0].ReadBlock(p, kb(1), 0)
		if err != nil || d2[0] != 7 {
			t.Errorf("second read: %v", err)
		}
	})
	st := h.engines[0].Stats()
	if st.LocalHits != 1 {
		t.Fatalf("hits = %d, want 1", st.LocalHits)
	}
	if h.backing.reads != 1 {
		t.Fatalf("disk reads = %d, want 1", h.backing.reads)
	}
}

func TestPeerCacheTransfer(t *testing.T) {
	h := newHarness(1, 4, 64)
	h.backing.data[kb(5)] = blk(9)
	h.run(func(p *sim.Proc) {
		h.engines[0].ReadBlock(p, kb(5), 0) // 0 becomes sharer (disk read)
		d, err := h.engines[1].ReadBlock(p, kb(5), 0)
		if err != nil || d[0] != 9 {
			t.Errorf("peer read: %v", err)
		}
	})
	if h.backing.reads != 1 {
		t.Fatalf("disk reads = %d, want 1 (second read from peer cache)", h.backing.reads)
	}
	if h.engines[1].Stats().PeerFetches != 1 {
		t.Fatalf("peer fetches = %d, want 1", h.engines[1].Stats().PeerFetches)
	}
}

func TestWriteThenRemoteRead(t *testing.T) {
	h := newHarness(1, 4, 64)
	h.run(func(p *sim.Proc) {
		if err := h.engines[2].WriteBlock(p, kb(3), blk(42), 0); err != nil {
			t.Errorf("write: %v", err)
		}
		// Owner-forwarding: the dirty owner serves this read directly
		// without a writeback.
		d, err := h.engines[0].ReadBlock(p, kb(3), 0)
		if err != nil || d[0] != 42 {
			t.Errorf("remote read after write: got %v err %v", d[0], err)
		}
		if h.backing.writes != 0 {
			t.Errorf("read of dirty block forced %d writebacks; owner-forwarding broken", h.backing.writes)
		}
		// After the owner destages, a read completes the downgrade and the
		// reader may cache a Shared copy.
		h.engines[2].FlushOnce(p, 0)
		d, err = h.engines[0].ReadBlock(p, kb(3), 0)
		if err != nil || d[0] != 42 {
			t.Errorf("read after destage: got %v err %v", d[0], err)
		}
		if _, ok := h.engines[0].Cache().Peek(kb(3)); !ok {
			t.Error("reader did not cache after clean downgrade")
		}
	})
	if got := h.backing.data[kb(3)]; got == nil || got[0] != 42 {
		t.Fatal("backing store stale after flush")
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	h := newHarness(1, 4, 64)
	h.backing.data[kb(8)] = blk(1)
	h.run(func(p *sim.Proc) {
		h.engines[0].ReadBlock(p, kb(8), 0)
		h.engines[1].ReadBlock(p, kb(8), 0)
		if err := h.engines[2].WriteBlock(p, kb(8), blk(2), 0); err != nil {
			t.Errorf("write: %v", err)
		}
		// Both old sharers must observe the new value.
		for i := 0; i < 2; i++ {
			d, err := h.engines[i].ReadBlock(p, kb(8), 0)
			if err != nil || d[0] != 2 {
				t.Errorf("blade %d read stale %v err %v", i, d[0], err)
			}
		}
	})
	if h.engines[0].Stats().Invalidations == 0 && h.engines[1].Stats().Invalidations == 0 {
		t.Fatal("no invalidations recorded")
	}
}

func TestOwnershipMigration(t *testing.T) {
	h := newHarness(1, 4, 64)
	h.run(func(p *sim.Proc) {
		h.engines[0].WriteBlock(p, kb(9), blk(1), 0)
		h.engines[1].WriteBlock(p, kb(9), blk(2), 0)
		h.engines[0].WriteBlock(p, kb(9), blk(3), 0)
		for i := 0; i < 4; i++ {
			d, err := h.engines[i].ReadBlock(p, kb(9), 0)
			if err != nil || d[0] != 3 {
				t.Errorf("blade %d sees %v err %v, want 3", i, d[0], err)
			}
		}
	})
}

func TestRepeatedLocalWrite(t *testing.T) {
	h := newHarness(1, 2, 64)
	h.run(func(p *sim.Proc) {
		for v := byte(1); v <= 10; v++ {
			if err := h.engines[0].WriteBlock(p, kb(4), blk(v), 0); err != nil {
				t.Errorf("write %d: %v", v, err)
			}
		}
		d, _ := h.engines[0].ReadBlock(p, kb(4), 0)
		if d[0] != 10 {
			t.Errorf("final value %d, want 10", d[0])
		}
	})
	if h.backing.writes > 1 {
		t.Fatalf("backing writes = %d; repeated writes should coalesce in cache", h.backing.writes)
	}
}

func TestEvictionWritesBackDirty(t *testing.T) {
	h := newHarness(1, 2, 4) // tiny cache forces eviction
	h.run(func(p *sim.Proc) {
		// Fill the whole cache with dirty blocks so eviction has no clean
		// victim to prefer, then force an eviction with a read.
		for i := int64(1); i <= 4; i++ {
			h.engines[0].WriteBlock(p, kb(i), blk(byte(10+i)), 0)
		}
		h.engines[0].ReadBlock(p, kb(50), 0) // evicts dirty kb(1) (LRU)
		d, err := h.engines[0].ReadBlock(p, kb(1), 0)
		if err != nil || d[0] != 11 {
			t.Errorf("read after eviction: %v err %v", d[0], err)
		}
	})
	if got := h.backing.data[kb(1)]; got == nil || got[0] != 11 {
		t.Fatal("dirty eviction did not write back")
	}
}

func TestFlusherDestages(t *testing.T) {
	h := newHarness(1, 2, 64)
	stop := h.engines[0].StartFlusher(10*sim.Millisecond, 8)
	h.run(func(p *sim.Proc) {
		h.engines[0].WriteBlock(p, kb(2), blk(5), 0)
		p.Sleep(50 * sim.Millisecond)
		if h.engines[0].DirtyBlocks() != 0 {
			t.Error("flusher left dirty blocks")
		}
		stop()
	})
	h.k.Close()
	if got := h.backing.data[kb(2)]; got == nil || got[0] != 5 {
		t.Fatal("flusher did not write data")
	}
}

func TestFlushOnceRespectsBatch(t *testing.T) {
	h := newHarness(1, 2, 64)
	h.run(func(p *sim.Proc) {
		for i := int64(0); i < 6; i++ {
			h.engines[0].WriteBlock(p, kb(i), blk(byte(i)), 0)
		}
		n := h.engines[0].FlushOnce(p, 2)
		if n != 2 {
			t.Errorf("flushed %d, want 2", n)
		}
		if h.engines[0].DirtyBlocks() != 4 {
			t.Errorf("dirty = %d, want 4", h.engines[0].DirtyBlocks())
		}
	})
}

func TestRecoverFlushesAndColdStarts(t *testing.T) {
	h := newHarness(1, 4, 64)
	h.run(func(p *sim.Proc) {
		h.engines[0].WriteBlock(p, kb(7), blk(70), 0)
		// Blade 3 dies; survivors recover with new membership.
		alive := []int{0, 1, 2}
		for _, id := range alive {
			h.engines[id].Recover(p, alive)
		}
		if h.engines[0].Cache().Len() != 0 {
			t.Error("cache not cold after recover")
		}
		d, err := h.engines[1].ReadBlock(p, kb(7), 0)
		if err != nil || d[0] != 70 {
			t.Errorf("read after recover: %v err %v", d[0], err)
		}
	})
	if got := h.backing.data[kb(7)]; got == nil || got[0] != 70 {
		t.Fatal("recover did not flush dirty data")
	}
}

func TestConcurrentReadersSameBlock(t *testing.T) {
	h := newHarness(1, 8, 64)
	h.backing.data[kb(1)] = blk(3)
	errs := 0
	g := sim.NewGroup(h.k)
	for i := 0; i < 8; i++ {
		i := i
		g.Add(1)
		h.k.Go("reader", func(p *sim.Proc) {
			defer g.Done()
			d, err := h.engines[i].ReadBlock(p, kb(1), 0)
			if err != nil || d[0] != 3 {
				errs++
			}
		})
	}
	h.k.Run()
	if errs != 0 {
		t.Fatalf("%d concurrent readers failed", errs)
	}
}

func TestConcurrentWritersConverge(t *testing.T) {
	h := newHarness(1, 4, 64)
	g := sim.NewGroup(h.k)
	for i := 0; i < 4; i++ {
		i := i
		g.Add(1)
		h.k.Go("writer", func(p *sim.Proc) {
			defer g.Done()
			h.engines[i].WriteBlock(p, kb(2), blk(byte(i+1)), 0)
		})
	}
	var vals [4]byte
	h.k.Go("checker", func(p *sim.Proc) {
		g.Wait(p)
		p.Sleep(sim.Millisecond)
		for i := 0; i < 4; i++ {
			d, err := h.engines[i].ReadBlock(p, kb(2), 0)
			if err != nil {
				t.Errorf("read %d: %v", i, err)
				return
			}
			vals[i] = d[0]
		}
	})
	h.k.Run()
	for i := 1; i < 4; i++ {
		if vals[i] != vals[0] {
			t.Fatalf("blades disagree: %v", vals)
		}
	}
	if vals[0] < 1 || vals[0] > 4 {
		t.Fatalf("final value %d not among written values", vals[0])
	}
}

// Property: under an arbitrary serial schedule of reads and writes from
// arbitrary blades, every read returns the most recently written value
// (sequential consistency for serial issue).
func TestSerialLinearizabilityProperty(t *testing.T) {
	f := func(seed int64, script []uint16) bool {
		h := newHarness(seed, 4, 8) // small cache: exercise evictions
		last := make(map[int64]byte)
		ok := true
		h.run(func(p *sim.Proc) {
			for i, op := range script {
				if i >= 40 {
					break
				}
				blade := int(op) % 4
				lba := int64(op>>2) % 6
				if op%3 == 0 {
					v := byte(op>>8) | 1
					if err := h.engines[blade].WriteBlock(p, kb(lba), blk(v), 0); err != nil {
						ok = false
						return
					}
					last[lba] = v
				} else {
					d, err := h.engines[blade].ReadBlock(p, kb(lba), 0)
					if err != nil {
						ok = false
						return
					}
					want := last[lba]
					if d[0] != want {
						ok = false
						return
					}
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: after any concurrent workload quiesces and all flushers drain,
// all blades agree on every block's value, and the backing store matches.
func TestQuiescentAgreementProperty(t *testing.T) {
	f := func(seed int64, script []uint16) bool {
		h := newHarness(seed, 4, 16)
		g := sim.NewGroup(h.k)
		for i, op := range script {
			if i >= 24 {
				break
			}
			op := op
			blade := int(op) % 4
			lba := int64(op>>2) % 4
			g.Add(1)
			h.k.Go("w", func(p *sim.Proc) {
				defer g.Done()
				p.Sleep(sim.Duration(op%7) * sim.Millisecond)
				if op%2 == 0 {
					h.engines[blade].WriteBlock(p, kb(lba), blk(byte(op>>8)|1), 0)
				} else {
					h.engines[blade].ReadBlock(p, kb(lba), 0)
				}
			})
		}
		ok := true
		h.k.Go("check", func(p *sim.Proc) {
			g.Wait(p)
			p.Sleep(10 * sim.Millisecond)
			for _, e := range h.engines {
				e.FlushOnce(p, 0)
			}
			for lba := int64(0); lba < 4; lba++ {
				var ref []byte
				for _, e := range h.engines {
					d, err := e.ReadBlock(p, kb(lba), 0)
					if err != nil {
						ok = false
						return
					}
					if ref == nil {
						ref = d
					} else if !bytes.Equal(ref, d) {
						ok = false
						return
					}
				}
			}
		})
		h.k.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDownBladeRejectsIO(t *testing.T) {
	h := newHarness(1, 2, 16)
	h.engines[1].SetDown(true)
	h.run(func(p *sim.Proc) {
		if _, err := h.engines[1].ReadBlock(p, kb(0), 0); err == nil {
			t.Error("down blade served a read")
		}
		if err := h.engines[1].WriteBlock(p, kb(0), blk(1), 0); err == nil {
			t.Error("down blade served a write")
		}
	})
}

func TestHomeDistribution(t *testing.T) {
	// Blocks should spread across homes roughly evenly — the basis of the
	// "no hot controller" claim for directory load.
	h := newHarness(1, 8, 16)
	counts := make(map[int]int)
	for i := int64(0); i < 4096; i++ {
		home, err := h.engines[0].home(kb(i))
		if err != nil {
			t.Fatal(err)
		}
		counts[home]++
	}
	for id, c := range counts {
		if c < 300 || c > 800 {
			t.Fatalf("home %d has %d/4096 blocks; poor distribution %v", id, c, counts)
		}
	}
}

func TestHomeConsistentAcrossBlades(t *testing.T) {
	h := newHarness(1, 5, 16)
	for i := int64(0); i < 100; i++ {
		h0, _ := h.engines[0].home(kb(i))
		for _, e := range h.engines[1:] {
			hi, _ := e.home(kb(i))
			if hi != h0 {
				t.Fatalf("blades disagree on home of block %d", i)
			}
		}
	}
}

func TestReadYourOwnEvictedWrite(t *testing.T) {
	// Regression: owner evicts (async directory notice), then re-reads.
	// The stale directory M(owner) entry must resolve via invariant 3.
	h := newHarness(1, 2, 2)
	h.run(func(p *sim.Proc) {
		h.engines[0].WriteBlock(p, kb(1), blk(21), 0)
		// Force eviction of block 1 by touching others.
		h.engines[0].ReadBlock(p, kb(2), 0)
		h.engines[0].ReadBlock(p, kb(3), 0)
		d, err := h.engines[0].ReadBlock(p, kb(1), 0)
		if err != nil || d[0] != 21 {
			t.Errorf("re-read own evicted write: %v err %v", d[0], err)
		}
	})
}

func TestRetentionPriorityHonored(t *testing.T) {
	h := newHarness(1, 2, 4)
	h.run(func(p *sim.Proc) {
		h.engines[0].ReadBlock(p, kb(100), 3) // pinned-priority block (§4)
		for i := int64(0); i < 8; i++ {
			h.engines[0].ReadBlock(p, kb(i), 0)
		}
		if _, ok := h.engines[0].Cache().Peek(kb(100)); !ok {
			t.Error("high-retention block evicted before low-priority blocks")
		}
	})
}

// Waiting out a pinned entry is event-driven: every waiter resumes at the
// unpin instant, in the order it arrived, and the wait itself costs the
// kernel nothing — a handful of events per waiter, where polling spent one
// per waiter every 50 µs for as long as the writeback took.
func TestPinnedWaitersWakeAtUnpinInArrivalOrder(t *testing.T) {
	const (
		waiters = 8
		held    = 100 * sim.Millisecond // 2,000 polling ticks per waiter
	)
	h := newHarness(1, 2, 64)
	e := h.engines[0]
	var order []int
	var wokeAt []sim.Time
	var unpinAt sim.Time
	var before uint64
	h.run(func(p *sim.Proc) {
		if err := e.WriteBlock(p, kb(1), blk(1), 0); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		ent, _ := e.cache.Peek(kb(1))
		e.pin(ent)
		for i := 0; i < waiters; i++ {
			i := i
			h.k.Go("waiter", func(q *sim.Proc) {
				// Arrive in the reverse of spawn order, a microsecond apart.
				q.Sleep(sim.Duration(waiters-i) * sim.Microsecond)
				e.waitUnpinned(q, ent)
				order = append(order, i)
				wokeAt = append(wokeAt, q.Now())
			})
		}
		before = h.k.Events()
		p.Sleep(held)
		unpinAt = p.Now()
		e.unpin(ent)
	})
	if len(order) != waiters {
		t.Fatalf("%d of %d waiters woke", len(order), waiters)
	}
	for j, i := range order {
		if want := waiters - 1 - j; i != want {
			t.Fatalf("wake order %v: position %d is waiter %d, want arrival order (waiter %d)", order, j, i, want)
		}
		if wokeAt[j] != unpinAt {
			t.Errorf("waiter %d woke at %v, unpin was at %v", i, wokeAt[j], unpinAt)
		}
	}
	// Each waiter: its arrival sleep and its wake-up; plus the holder's sleep.
	if n := h.k.Events() - before; n > 4*waiters {
		t.Errorf("%d kernel events for %d waiters over %v pinned, want O(waiters): no polling", n, waiters, held)
	}
	if len(e.unpinned) != 0 {
		t.Errorf("%d pin-wait futures left behind", len(e.unpinned))
	}
}

// A local hit read into the caller's buffer copies the block once and
// allocates no payload — neither a clone for the caller nor a staging copy.
func TestLocalHitReadIntoAllocatesNoPayload(t *testing.T) {
	h := newHarness(1, 2, 64)
	defer h.k.Close()
	h.backing.data[kb(1)] = blk(7)
	dst := make([]byte, blockSize)
	h.k.Go("reader", func(p *sim.Proc) {
		for { // one hit per OpDelay (10 µs) after the first miss
			if err := h.engines[0].ReadBlockInto(p, kb(1), 0, dst); err != nil {
				t.Errorf("read: %v", err)
				return
			}
		}
	})
	h.k.RunFor(10 * sim.Millisecond)
	hits := h.engines[0].Stats().LocalHits
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	const reads = 1000
	h.k.RunFor(reads * 10 * sim.Microsecond)
	runtime.ReadMemStats(&m1)
	if got := h.engines[0].Stats().LocalHits - hits; got != reads {
		t.Fatalf("%d local hits in the measured window, want %d", got, reads)
	}
	if dst[0] != 7 || dst[blockSize-1] != 7 {
		t.Fatalf("caller buffer not filled: %d..%d", dst[0], dst[blockSize-1])
	}
	if perRead := (m1.TotalAlloc - m0.TotalAlloc) / reads; perRead >= blockSize/2 {
		t.Errorf("%d bytes allocated per %d-byte local hit: the payload is still being copied to the heap", perRead, blockSize)
	}
}
