package coherence

import (
	"errors"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/cache"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// failingBacking refuses every write after the first `allow` and serves
// zero-filled reads — a stable store that has stopped draining.
type failingBacking struct {
	delay  sim.Duration
	allow  int
	writes int64
}

func (f *failingBacking) ReadBlockInto(p *sim.Proc, key cache.Key, dst []byte) error {
	p.Sleep(f.delay)
	clear(dst)
	return nil
}

func (f *failingBacking) WriteBlocks(p *sim.Proc, key cache.Key, data []byte) error {
	p.Sleep(f.delay)
	f.writes++
	if f.writes > int64(f.allow) {
		return errors.New("backing store refusing writes")
	}
	return nil
}

// newHarnessFull is newHarness with a caller-supplied backing store and
// fabric retry policy.
func newHarnessFull(seed int64, blades, cacheBlocks int, backing Backing, retry simnet.RetryPolicy) *harness {
	return newHarnessSized(seed, blades, cacheBlocks, blockSize, backing, retry)
}

// newHarnessSized is newHarnessFull with blocks of bs bytes.
func newHarnessSized(seed int64, blades, cacheBlocks, bs int, backing Backing, retry simnet.RetryPolicy) *harness {
	k := sim.NewKernel(seed)
	net := simnet.New(k)
	peers := make([]simnet.Addr, blades)
	for i := range peers {
		peers[i] = simnet.Addr(fmt.Sprintf("blade%d", i))
		net.Connect(peers[i], "fabric", simnet.FC2G)
	}
	h := &harness{k: k, net: net}
	for i := 0; i < blades; i++ {
		conn := simnet.NewConn(net, peers[i])
		h.engines = append(h.engines, New(k, Config{
			Conn:        conn,
			Peers:       peers,
			Self:        i,
			Cache:       cache.New(cacheBlocks),
			Backing:     backing,
			BlockSize:   bs,
			BladeConfig: BladeConfig{OpDelay: 10 * sim.Microsecond, Retry: retry}.WithDefaults(),
		}))
	}
	return h
}

func newHarnessBacking(seed int64, blades, cacheBlocks int, backing Backing) *harness {
	return newHarnessFull(seed, blades, cacheBlocks, backing, simnet.RetryPolicy{})
}

// Regression: makeRoom used to spin forever when the backing store kept
// refusing the writeback of the selected dirty victim — Victim() reselects
// the same entry, so a persistent error wedged the process. It must now
// give up after a bounded number of attempts and surface the error.
func TestMakeRoomBoundedOnFailingBacking(t *testing.T) {
	fb := &failingBacking{delay: 2 * sim.Millisecond}
	h := newHarnessBacking(1, 2, 1, fb)
	var werr error
	h.run(func(p *sim.Proc) {
		// First write fills the 1-block cache with a dirty entry.
		if err := h.engines[0].WriteBlock(p, kb(1), blk(1), 0); err != nil {
			t.Errorf("first write: %v", err)
		}
		// Second write needs room; the dirty victim cannot be destaged.
		werr = h.engines[0].WriteBlock(p, kb(2), blk(2), 0)
	})
	if werr == nil {
		t.Fatal("write succeeded despite undrainable cache")
	}
	st := h.engines[0].Stats()
	if st.WritebackErrors != maxWritebackFailures {
		t.Fatalf("WritebackErrors = %d, want %d (bounded retry)", st.WritebackErrors, maxWritebackFailures)
	}
	// The dirty block must still be cached (nothing was lost).
	if e, ok := h.engines[0].Cache().Peek(kb(1)); !ok || !e.Dirty {
		t.Fatal("dirty victim discarded after failed writeback")
	}
}

// The read path degrades instead: a failed makeRoom serves the block
// uncached rather than failing the read.
func TestReadDegradesWhenCacheCannotDrain(t *testing.T) {
	fb := &failingBacking{delay: 2 * sim.Millisecond}
	h := newHarnessBacking(1, 2, 1, fb)
	var data []byte
	var rerr error
	h.run(func(p *sim.Proc) {
		if err := h.engines[0].WriteBlock(p, kb(1), blk(1), 0); err != nil {
			t.Errorf("write: %v", err)
		}
		data, rerr = h.engines[0].ReadBlock(p, kb(2), 0)
	})
	if rerr != nil {
		t.Fatalf("read failed instead of degrading: %v", rerr)
	}
	if len(data) != blockSize {
		t.Fatalf("read returned %d bytes", len(data))
	}
	if _, ok := h.engines[0].Cache().Peek(kb(2)); ok {
		t.Fatal("degraded read installed a copy despite a full, undrainable cache")
	}
}

// Regression for the write-retry livelock path: writer A wins the GetX
// grant for a block, then blocks in makeRoom destaging a dirty victim;
// writer B steals ownership meanwhile (InvM bumps A's epoch); A's
// post-makeRoom epoch re-check must detect the theft and retry rather than
// install a second Modified copy. Both writes must land.
func TestWriteRetryAcrossMakeRoom(t *testing.T) {
	h := newHarness(1, 4, 1) // 1-block caches force makeRoom on every write
	target := kb(100)
	var errA, errB error
	h.run(func(p *sim.Proc) {
		grp := sim.NewGroup(h.k)
		grp.Add(2)
		h.k.Go("writerA", func(q *sim.Proc) {
			defer grp.Done()
			// Dirty A's cache so the contended write must makeRoom
			// (2 ms of backing-store writeback).
			if err := h.engines[0].WriteBlock(q, kb(1), blk(1), 0); err != nil {
				errA = err
				return
			}
			errA = h.engines[0].WriteBlock(q, target, blk(0xA), 0)
		})
		h.k.Go("writerB", func(q *sim.Proc) {
			defer grp.Done()
			// Staggered to land inside A's makeRoom writeback window
			// (A blocks ~2 ms destaging kb(1) after winning the grant).
			q.Sleep(sim.Millisecond)
			errB = h.engines[1].WriteBlock(q, target, blk(0xB), 0)
		})
		grp.Wait(p)
	})
	if errA != nil || errB != nil {
		t.Fatalf("writes failed: A=%v B=%v", errA, errB)
	}
	retries := h.engines[0].Stats().WriteRetries + h.engines[1].Stats().WriteRetries
	if retries == 0 {
		t.Fatal("no write retry recorded; the ownership theft never happened and the test is vacuous")
	}
	// Exactly one writer's data must have won; read it back from a third
	// blade and check for a torn or lost block.
	var got []byte
	var rerr error
	h.run(func(p *sim.Proc) {
		got, rerr = h.engines[2].ReadBlock(p, target, 0)
	})
	if rerr != nil {
		t.Fatalf("readback: %v", rerr)
	}
	if got[0] != 0xA && got[0] != 0xB {
		t.Fatalf("readback = %#x, want one writer's value", got[0])
	}
	for i := range got {
		if got[i] != got[0] {
			t.Fatalf("torn block: byte %d = %#x, byte 0 = %#x", i, got[i], got[0])
		}
	}
}

// Under a lossy fabric the retry layer must absorb the injected faults:
// every operation completes, data converges, and nothing wedges.
func TestLossyFabricConverges(t *testing.T) {
	// A short per-attempt deadline with a deeper attempt budget: nested
	// handler chains (GetX → InvM) stack deadlines, so failing fast and
	// retrying beats three 2 s stalls.
	backing := newMemBacking(2 * sim.Millisecond)
	h := newHarnessFull(7, 4, 64, backing, simnet.RetryPolicy{
		Timeout:    50 * sim.Millisecond,
		Attempts:   6,
		Backoff:    sim.Millisecond,
		MaxBackoff: 8 * sim.Millisecond,
		Jitter:     sim.Millisecond,
	})
	h.net.SetFaultsAll(simnet.FaultPlan{
		DropProb:      0.02,
		DupProb:       0.01,
		DelayProb:     0.05,
		MaxExtraDelay: sim.Millisecond,
	})
	const nKeys = 24
	var errs []error
	h.run(func(p *sim.Proc) {
		grp := sim.NewGroup(h.k)
		for i := 0; i < nKeys; i++ {
			i := i
			grp.Add(1)
			h.k.Go("writer", func(q *sim.Proc) {
				defer grp.Done()
				if err := h.engines[i%4].WriteBlock(q, kb(int64(i)), blk(byte(i+1)), 0); err != nil {
					errs = append(errs, err)
				}
			})
		}
		grp.Wait(p)
		// Cross-reads from a different blade than the writer.
		for i := 0; i < nKeys; i++ {
			d, err := h.engines[(i+1)%4].ReadBlock(p, kb(int64(i)), 0)
			if err != nil {
				errs = append(errs, err)
				continue
			}
			if d[0] != byte(i+1) {
				t.Errorf("key %d = %#x, want %#x", i, d[0], byte(i+1))
			}
		}
	})
	if len(errs) != 0 {
		t.Fatalf("operations failed under lossy fabric: %v", errs)
	}
	if h.net.Faults.Dropped == 0 {
		t.Fatal("no faults injected; test is vacuous")
	}
	var retries int64
	for _, e := range h.engines {
		retries += e.RPCStats().Retries
	}
	if retries == 0 {
		t.Fatal("drops injected but no RPC retries recorded")
	}
}

// homeOf mirrors Engine.home for the test: rendezvous over a full alive
// set of n blades.
func homeOf(key cache.Key, n int) int {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", key.Vol, key.LBA)
	return int(h.Sum64() % uint64(n))
}

// A read whose home blade dies mid-call must fail within the retry budget
// instead of wedging the client process forever (the pre-retry behaviour
// with no default deadline).
func TestReadFailsCleanlyWhenHomeDies(t *testing.T) {
	h := newHarness(1, 4, 64)
	// Find a key homed on blade 1, read from blade 0.
	var key cache.Key
	for lba := int64(0); ; lba++ {
		if key = kb(lba); homeOf(key, 4) == 1 {
			break
		}
	}
	// The home dies while the GetS is in flight: the request is swallowed
	// at arrival, the attempt times out, and the retry finds the peer
	// unreachable.
	h.k.After(2*sim.Microsecond, func() { h.net.SetDown("blade1", true) })
	var rerr error
	var took sim.Time
	h.run(func(p *sim.Proc) {
		_, rerr = h.engines[0].ReadBlock(p, key, 0)
		took = p.Now()
	})
	if rerr == nil {
		t.Fatal("read to a dead home succeeded")
	}
	// One 2 s default deadline plus slack — not forever.
	if took > sim.Time(10*sim.Second) {
		t.Fatalf("read took %v to fail; deadline not bounding the call", took)
	}
}
