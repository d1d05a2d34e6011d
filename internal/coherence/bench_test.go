package coherence

import (
	"runtime"
	"testing"

	"repro/internal/cache"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// benchOps times b.N coherence operations issued by one proc of a 4-blade
// harness. The harness is built, and warm run, before the clock starts: the
// figure is host time and allocations per simulated op, nothing else.
func benchOps(b *testing.B, warm func(h *harness, p *sim.Proc), body func(h *harness, p *sim.Proc, i int)) {
	b.Helper()
	h := newHarness(1, 4, 4096)
	defer h.k.Close()
	b.ReportAllocs()
	h.run(func(p *sim.Proc) {
		if warm != nil {
			warm(h, p)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			body(h, p, i)
		}
		b.StopTimer()
	})
}

// BenchmarkLocalHit: repeated reads of one cached block on one blade.
func BenchmarkLocalHit(b *testing.B) {
	dst := make([]byte, blockSize)
	benchOps(b, func(h *harness, p *sim.Proc) {
		h.engines[0].ReadBlock(p, kb(1), 0)
	}, func(h *harness, p *sim.Proc, i int) {
		h.engines[0].ReadRun(p, "v", 1, 0, dst)
	})
}

// BenchmarkReadMiss: every read touches a fresh block (GetS + disk).
func BenchmarkReadMiss(b *testing.B) {
	benchOps(b, nil, func(h *harness, p *sim.Proc, i int) {
		h.engines[0].ReadBlock(p, kb(int64(i)), 0)
	})
}

// BenchmarkWriteOwned: repeated writes to one owned block.
func BenchmarkWriteOwned(b *testing.B) {
	benchOps(b, nil, func(h *harness, p *sim.Proc, i int) {
		h.engines[0].WriteBlock(p, kb(1), blk(byte(i)), 0)
	})
}

// BenchmarkOwnershipPingPong: two blades alternately writing one block —
// the protocol's worst case (invalidate + migrate per write).
func BenchmarkOwnershipPingPong(b *testing.B) {
	benchOps(b, nil, func(h *harness, p *sim.Proc, i int) {
		h.engines[i%2].WriteBlock(p, kb(1), blk(byte(i)), 0)
	})
}

// BenchmarkPeerFetch: a second blade reading a block the first has just
// cached (a miss, then the same block served cache-to-cache, no disk).
func BenchmarkPeerFetch(b *testing.B) {
	benchOps(b, nil, func(h *harness, p *sim.Proc, i int) {
		h.engines[0].ReadBlock(p, kb(int64(i)), 0)
		h.engines[1].ReadBlock(p, kb(int64(i)), 0)
	})
}

// BenchmarkPinnedWait: a remote read arrives while the owner's dirty block
// is pinned under a 2 ms destage, and waits it out — one wake-up at the
// unpin, where polling spent an event every 50 µs. Each iteration is the
// whole write, flush, remote-read cycle.
func BenchmarkPinnedWait(b *testing.B) {
	benchOps(b, nil, func(h *harness, p *sim.Proc, i int) {
		h.engines[0].WriteBlock(p, kb(1), blk(byte(i)), 0)
		h.k.Go("flush", func(q *sim.Proc) { h.engines[0].FlushOnce(q, 0) })
		p.Yield() // the flush has pinned the block
		h.engines[1].ReadBlock(p, kb(1), 0)
	})
}

// BenchmarkFlushTickClean: one flusher tick over a full cache with nothing
// to destage — what every blade pays every flush interval on a read-mostly
// workload.
func BenchmarkFlushTickClean(b *testing.B) {
	benchOps(b, func(h *harness, p *sim.Proc) {
		for i := int64(0); i < 4096; i++ {
			h.engines[0].ReadBlock(p, kb(i), 0)
		}
	}, func(h *harness, p *sim.Proc, i int) {
		h.engines[0].FlushOnce(p, 64)
	})
}

// evictingReader returns a 4-blade harness of bs-byte blocks whose blades
// cache 1024 blocks each, over a zero-filled store that is never written,
// and read, which makes blade 0 read the i-th 64-block run of a set twice
// the cache: once the set has been read through, every block of a run
// misses, comes from the store and evicts the least recently used block —
// the stream's miss path.
func evictingReader(bs int) (h *harness, read func(p *sim.Proc, i int) error) {
	const cacheBlocks, run = 1024, 64
	h = newHarnessSized(1, 4, cacheBlocks, bs, &failingBacking{delay: 2 * sim.Millisecond}, simnet.RetryPolicy{})
	dst := make([]byte, run*bs)
	return h, func(p *sim.Proc, i int) error {
		lba := int64(i*run) % (2 * cacheBlocks)
		return h.engines[0].ReadRun(p, "v", lba, 0, dst)
	}
}

// BenchmarkReadRunEvicting: 64-block miss runs of 4 KiB blocks, each block
// evicting one (see evictingReader).
func BenchmarkReadRunEvicting(b *testing.B) {
	h, read := evictingReader(4096)
	defer h.k.Close()
	b.ReportAllocs()
	h.run(func(p *sim.Proc) {
		for i := 0; i < 2*1024/64; i++ { // fill the cache: the runs below evict
			read(p, i)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := read(p, i); err != nil {
				b.Error(err)
				return
			}
		}
		b.StopTimer()
	})
}

// A block that misses and evicts costs less than a block-sized allocation:
// its cache entry reuses the buffer of the block it evicted.
func TestReadRunEvictingReusesBuffers(t *testing.T) {
	const bs, runs = 4096, 100
	h, read := evictingReader(bs)
	defer h.k.Close()
	var before, after runtime.MemStats
	h.run(func(p *sim.Proc) {
		for i := 0; i < 2*1024/64; i++ {
			read(p, i)
		}
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if err := read(p, i); err != nil {
				t.Error(err)
				return
			}
		}
		runtime.ReadMemStats(&after)
	})
	blocks := uint64(runs * 64)
	if perBlock := (after.TotalAlloc - before.TotalAlloc) / blocks; perBlock >= bs {
		t.Fatalf("a missed block allocates %d bytes, want < %d (one block buffer)", perBlock, bs)
	}
	if ev := h.engines[0].Cache().Stats().Evictions; ev < int64(blocks) {
		t.Fatalf("%d evictions over %d missed blocks: the runs did not evict", ev, blocks)
	}
}

// A missed block that evicts takes the evicted block's record as well as its
// buffer: a warm 64-block run on a full cache installs every block in a
// record that was already resident before it, so it allocates no
// cache.Entry, and it allocates fewer objects than it has blocks.
func TestReadRunEvictingReusesRecords(t *testing.T) {
	const bs, run, keys = 4096, 64, 2 * 1024
	h, read := evictingReader(bs)
	defer h.k.Close()
	c := h.engines[0].Cache()
	resident := func() map[*cache.Entry]bool {
		m := make(map[*cache.Entry]bool)
		for lba := int64(0); lba < keys; lba++ {
			if ent, ok := c.Peek(kb(lba)); ok {
				m[ent] = true
			}
		}
		return m
	}
	h.run(func(p *sim.Proc) {
		for i := 0; i < keys/run; i++ { // fill the cache: the runs below evict
			read(p, i)
		}
		before, evictions := resident(), c.Stats().Evictions
		i := 0
		allocs := testing.AllocsPerRun(20, func() {
			if err := read(p, i); err != nil {
				t.Error(err)
			}
			i++
		})
		if ev := c.Stats().Evictions - evictions; ev < 21*run {
			t.Fatalf("%d evictions over %d missed blocks: the runs did not evict", ev, 21*run)
		}
		for ent := range resident() {
			if !before[ent] {
				t.Fatalf("block %v was installed in a new cache.Entry", ent.Key)
			}
		}
		if allocs >= run {
			t.Errorf("a warm %d-block miss run: %v allocs, want fewer than one per block", run, allocs)
		}
	})
}
