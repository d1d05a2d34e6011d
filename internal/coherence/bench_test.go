package coherence

import (
	"testing"

	"repro/internal/sim"
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
		h.engines[0].ReadBlockInto(p, kb(1), 0, dst)
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
