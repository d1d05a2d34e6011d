package coherence

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// An evicted clean block's buffer is the one the next fill installs, and the
// evicted entry lets go of it; a written block's buffer is never taken back.
func TestEvictedCleanBufferIsReused(t *testing.T) {
	h := newHarness(1, 2, 2)
	defer h.k.Close()
	e := h.engines[0]
	h.run(func(p *sim.Proc) {
		read := func(lba int64) bool {
			_, err := e.ReadBlock(p, kb(lba), 0)
			if err != nil {
				t.Errorf("read %d: %v", lba, err)
			}
			return err == nil
		}
		if !read(0) || !read(1) {
			return
		}
		old, _ := e.cache.Peek(kb(0))
		buf := &old.Data[0]
		if !read(2) { // evicts block 0, the least recently used
			return
		}
		if _, ok := e.cache.Peek(kb(0)); ok {
			t.Errorf("block 0 still cached")
			return
		}
		if old.Data != nil {
			t.Errorf("evicted entry keeps its buffer")
		}
		if ent, _ := e.cache.Peek(kb(2)); &ent.Data[0] != buf {
			t.Errorf("block 2 was installed in a new buffer, not block 0's")
		}

		// Block 3 is written and destaged: clean, but its buffer went to the
		// store, so evicting it gives nothing back.
		if err := e.WriteBlock(p, kb(3), blk(3), 0); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		e.FlushOnce(p, 0)
		w, _ := e.cache.Peek(kb(3))
		if w.Dirty {
			t.Errorf("block 3 still dirty after a flush")
		}
		if !read(4) || !read(5) { // evict blocks 2 and 3
			return
		}
		if _, ok := e.cache.Peek(kb(3)); ok {
			t.Errorf("block 3 still cached")
		}
		if !bytes.Equal(w.Data, blk(3)) {
			t.Errorf("a written block's buffer was recycled")
		}
		if len(e.free) > e.cache.Capacity()-e.cache.Len() {
			t.Errorf("free list holds %d buffers, the cache has %d empty slots", len(e.free), e.cache.Capacity()-e.cache.Len())
		}
	})
}

// payloadOf is block lba as write seq left it: every 8-byte word names both,
// so a block read back says whose it is, and a torn block or another
// block's buffer cannot pass for it. seq 0 is the store's initial content.
func payloadOf(lba int64, seq int) []byte {
	b := make([]byte, blockSize)
	for i := 0; i < blockSize; i += 8 {
		binary.LittleEndian.PutUint32(b[i:], uint32(lba))
		binary.LittleEndian.PutUint32(b[i+4:], uint32(seq))
	}
	return b
}

// checkPayload reports how b fails to be lba's payload of a write no later
// than seq maxSeq.
func checkPayload(b []byte, lba int64, maxSeq int) error {
	if len(b) != blockSize {
		return fmt.Errorf("block %d: %d bytes", lba, len(b))
	}
	seq := int(binary.LittleEndian.Uint32(b[4:]))
	if !bytes.Equal(b, payloadOf(lba, seq)) {
		return fmt.Errorf("block %d holds another block's bytes (first word names block %d)", lba, binary.LittleEndian.Uint32(b))
	}
	if seq > maxSeq {
		return fmt.Errorf("block %d at write %d, only %d issued", lba, seq, maxSeq)
	}
	return nil
}

// The free list may hand a buffer to another block only once nobody can
// read it as the old one. Three blades with 8-block caches stream reads,
// write and invalidate one another's copies over a set five times a cache,
// with a flusher destaging; every read must return its own block, every
// resident entry must hold its own block in a buffer of its own, no buffer
// may be both free and in use, and a replica of a write must keep its bytes.
// Run over 12 seeds, on a clean fabric and under E11's drops, duplicates and
// delays.
func TestBufferReuseStress(t *testing.T) {
	seeds := []int64{1, 2, 3, 5, 7, 11, 42, 99, 1234, 2024, 31337, 98765}
	for _, faulty := range []bool{false, true} {
		reused := 0
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("faults=%v/seed=%d", faulty, seed), func(t *testing.T) {
				reused += runReuseStress(t, seed, faulty)
			})
		}
		t.Logf("faults=%v: %d reuses seen", faulty, reused)
		if !t.Failed() && reused == 0 {
			t.Errorf("faults=%v: no buffer was seen under two blocks; the test is vacuous", faulty)
		}
	}
}

// runReuseStress runs one schedule and returns how many times the checker
// saw a buffer move to another block.
func runReuseStress(t *testing.T, seed int64, faulty bool) (reused int) {
	const (
		blades      = 3
		cacheBlocks = 8
		keys        = 40
		ops         = 40
	)
	backing := newMemBacking(2 * sim.Millisecond)
	for k := int64(0); k < keys; k++ {
		backing.data[kb(k)] = payloadOf(k, 0)
	}
	var retry simnet.RetryPolicy
	if faulty { // E11's fabric
		retry = simnet.RetryPolicy{Timeout: 50 * sim.Millisecond, Attempts: 4, Backoff: sim.Millisecond, MaxBackoff: 8 * sim.Millisecond, Jitter: sim.Millisecond}
	}
	h := newHarnessFull(seed, blades, cacheBlocks, backing, retry)
	defer h.k.Close()
	if faulty {
		h.net.SetFaultsAll(simnet.FaultPlan{DropProb: 0.01, DupProb: 0.005, DelayProb: 0.05, MaxExtraDelay: 5 * sim.Millisecond})
	}

	// issued[k] is the last write seq handed to a writer for block k (block k
	// is written only from blade k%blades, so acked[k] is its last
	// acknowledged one); replicas are every write's buffer as the
	// replication hook received it, and the bytes it must keep.
	issued, acked := make([]int, keys), make([]int, keys)
	type replica struct{ held, want []byte }
	var replicas []replica
	for _, e := range h.engines {
		e.replicate = func(p *sim.Proc, key cache.Key, data []byte, version uint64, factor int) error {
			replicas = append(replicas, replica{data, bytes.Clone(data)})
			return nil
		}
	}
	fail := func(format string, args ...any) {
		t.Helper()
		if !t.Failed() {
			t.Errorf(format, args...)
		}
	}
	owner := make(map[*byte]cache.Key) // buffer → the block the checker last saw in it
	check := func() {
		for _, e := range h.engines {
			if len(e.free) > max(0, e.cache.Capacity()-e.cache.Len()) { // makeRoom may overfill the cache when every entry is pinned
				fail("blade %d: %d free buffers, %d empty slots", e.self, len(e.free), e.cache.Capacity()-e.cache.Len())
			}
			inUse := make(map[*byte]cache.Key)
			for k := int64(0); k < keys; k++ {
				ent, ok := e.cache.Peek(kb(k))
				if !ok {
					continue
				}
				if err := checkPayload(ent.Data, k, issued[k]); err != nil {
					fail("blade %d cache: %v", e.self, err)
					continue
				}
				buf := &ent.Data[0]
				if other, ok := inUse[buf]; ok {
					fail("blade %d: blocks %v and %v share a buffer", e.self, other, kb(k))
				}
				inUse[buf] = kb(k)
				if prev, ok := owner[buf]; ok && prev != kb(k) {
					reused++
				}
				owner[buf] = kb(k)
			}
			for _, b := range e.free {
				if k, ok := inUse[&b[0]]; ok {
					fail("blade %d: block %v's buffer is on the free list", e.self, k)
				}
			}
		}
		for _, r := range replicas {
			if !bytes.Equal(r.held, r.want) {
				fail("a replica's buffer was rewritten")
			}
		}
	}

	h.run(func(p *sim.Proc) {
		var stops []func()
		for _, e := range h.engines {
			stops = append(stops, e.StartFlusher(5*sim.Millisecond, 4))
		}
		done := false
		h.k.Go("checker", func(q *sim.Proc) {
			for !done {
				check()
				q.Sleep(500 * sim.Microsecond)
			}
		})
		verify := func(who string, lba int64, d []byte) {
			for i := 0; i*blockSize < len(d); i++ {
				if err := checkPayload(d[i*blockSize:(i+1)*blockSize], lba+int64(i), issued[lba+int64(i)]); err != nil {
					fail("%s read: %v", who, err)
				}
			}
		}
		err := sim.Fork(p, "client", 3*blades, func(q *sim.Proc, i int) error {
			b := i % blades
			e, rng := h.engines[b], rand.New(rand.NewSource(seed*100+int64(i)))
			switch i / blades {
			case 0: // a stream: runs of 4–16 blocks, one after another
				lba := int64(rng.Intn(keys))
				for n := 0; n < ops; n++ {
					run := 4 + rng.Intn(13)
					if lba+int64(run) > keys {
						lba = 0
					}
					d, err := readRun(q, e, lba, run)
					if err == nil {
						verify(fmt.Sprintf("blade %d stream", b), lba, bytes.Join(d, nil))
					}
					lba += int64(run)
				}
			case 1: // writes to this blade's blocks, each invalidating the others' copies
				for n := 0; n < ops; n++ {
					k := int64(rng.Intn(keys/blades)*blades + b)
					issued[k]++
					seq := issued[k]
					if err := e.WriteBlock(q, kb(k), payloadOf(k, seq), 0); err == nil {
						acked[k] = seq
					} else if !faulty {
						fail("blade %d write %d: %v", b, k, err)
					}
					q.Sleep(sim.Duration(rng.Intn(500)) * sim.Microsecond)
				}
			default: // single blocks anywhere
				for n := 0; n < ops; n++ {
					k := int64(rng.Intn(keys))
					if d, err := e.ReadBlock(q, kb(k), 0); err == nil {
						verify(fmt.Sprintf("blade %d", b), k, d)
					} else if !faulty {
						fail("blade %d read %d: %v", b, k, err)
					}
				}
			}
			return nil
		})
		if err != nil {
			fail("%v", err)
		}
		for _, stop := range stops {
			stop()
		}
		done = true
		check()
		// Every block, from every blade, reads as its last acknowledged write
		// (under faults, a write whose ack was lost may have landed too).
		for k := int64(0); k < keys; k++ {
			for _, e := range h.engines {
				d, err := e.ReadBlock(p, kb(k), 0)
				if err != nil {
					if !faulty {
						fail("final read %d: %v", k, err)
					}
					continue
				}
				verify("final", k, d)
				if seq := int(binary.LittleEndian.Uint32(d[4:])); seq < acked[k] || !faulty && seq != acked[k] {
					fail("final read of block %d at blade %d: write %d, last acked %d", k, e.self, seq, acked[k])
				}
			}
		}
	})
	if faulty && h.net.Faults.Dropped+h.net.Faults.Duplicated+h.net.Faults.Delayed == 0 {
		t.Errorf("no fault injected")
	}
	if !faulty && !t.Failed() {
		ks := make([]cache.Key, keys)
		for k := range ks {
			ks[k] = kb(int64(k))
		}
		if err := CheckInvariants(h.engines, ks); err != nil {
			t.Error(err)
		}
	}
	return reused
}
