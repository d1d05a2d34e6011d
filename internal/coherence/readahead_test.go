package coherence

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// newReadAheadHarness builds a harness whose engines prefetch.
func newReadAheadHarness(blades, cacheBlocks, readAhead int) *harness {
	k := sim.NewKernel(1)
	net := simnet.New(k)
	backing := newMemBacking(5 * sim.Millisecond)
	peers := make([]simnet.Addr, blades)
	for i := range peers {
		peers[i] = simnet.Addr(fmt.Sprintf("blade%d", i))
		net.Connect(peers[i], "fabric", simnet.FC2G)
	}
	h := &harness{k: k, net: net, backing: backing}
	for i := 0; i < blades; i++ {
		conn := simnet.NewConn(net, peers[i])
		h.engines = append(h.engines, New(k, Config{
			Conn: conn, Peers: peers, Self: i,
			Cache: cache.New(cacheBlocks), Backing: backing,
			BlockSize: blockSize, OpDelay: 10 * sim.Microsecond,
			HandlerDelay: 5 * sim.Microsecond, ReadAhead: readAhead,
		}))
	}
	return h
}

func TestReadAheadPrefetchesSequentialRun(t *testing.T) {
	h := newReadAheadHarness(2, 256, 8)
	for i := int64(0); i < 64; i++ {
		h.backing.data[kb(i)] = blk(byte(i))
	}
	h.run(func(p *sim.Proc) {
		// Establish a sequential run.
		for i := int64(0); i < 4; i++ {
			h.engines[0].ReadBlock(p, kb(i), 0)
		}
		p.Sleep(100 * sim.Millisecond) // let prefetchers land
		// Blocks ahead of the run should now be cached.
		hitsBefore := h.engines[0].Cache().Stats().Hits
		for i := int64(4); i < 10; i++ {
			d, err := h.engines[0].ReadBlock(p, kb(i), 0)
			if err != nil || d[0] != byte(i) {
				t.Errorf("read %d: %v", i, err)
			}
		}
		hits := h.engines[0].Cache().Stats().Hits - hitsBefore
		if hits < 5 {
			t.Errorf("only %d/6 reads hit after readahead", hits)
		}
	})
	if h.engines[0].Stats().Prefetches == 0 {
		t.Fatal("no prefetches recorded")
	}
}

func TestReadAheadOffByDefault(t *testing.T) {
	h := newHarness(1, 2, 256) // default config: ReadAhead 0
	h.run(func(p *sim.Proc) {
		for i := int64(0); i < 6; i++ {
			h.engines[0].ReadBlock(p, kb(i), 0)
		}
		p.Sleep(50 * sim.Millisecond)
	})
	if h.engines[0].Stats().Prefetches != 0 {
		t.Fatal("prefetches with readahead disabled")
	}
}

func TestRandomAccessDoesNotPrefetch(t *testing.T) {
	h := newReadAheadHarness(1, 256, 8)
	h.run(func(p *sim.Proc) {
		for _, lba := range []int64{40, 7, 23, 55, 3, 61} {
			h.engines[0].ReadBlock(p, kb(lba), 0)
		}
		p.Sleep(50 * sim.Millisecond)
	})
	if n := h.engines[0].Stats().Prefetches; n != 0 {
		t.Fatalf("%d prefetches on random access", n)
	}
}

func TestReadAheadSpeedsSequentialScan(t *testing.T) {
	scan := func(readAhead int) sim.Duration {
		h := newReadAheadHarness(1, 512, readAhead)
		var elapsed sim.Duration
		h.run(func(p *sim.Proc) {
			t0 := p.Now()
			for i := int64(0); i < 128; i++ {
				h.engines[0].ReadBlock(p, kb(i), 0)
			}
			elapsed = p.Now().Sub(t0)
		})
		return elapsed
	}
	without := scan(0)
	with := scan(16)
	if with*2 > without {
		t.Fatalf("readahead scan %v not ≥2× faster than without (%v)", with, without)
	}
}

func TestReadAheadCoherent(t *testing.T) {
	// A prefetched block must still be invalidated by a writer.
	h := newReadAheadHarness(2, 256, 4)
	h.run(func(p *sim.Proc) {
		for i := int64(0); i < 4; i++ {
			h.engines[0].ReadBlock(p, kb(i), 0)
		}
		p.Sleep(100 * sim.Millisecond) // prefetch kb(4..7) onto blade 0
		if _, ok := h.engines[0].Cache().Peek(kb(5)); !ok {
			t.Error("kb(5) not prefetched; test premise broken")
			return
		}
		h.engines[1].WriteBlock(p, kb(5), blk(99), 0)
		d, err := h.engines[0].ReadBlock(p, kb(5), 0)
		if err != nil || d[0] != 99 {
			t.Errorf("prefetched block served stale after write: %v err=%v", d[0], err)
		}
	})
}

// The prefetch window is one run: one backing read however many blocks, not
// a seek per block. The detector sees an op once, with its first and last
// block, so a 4-block op is a sequential run of its own; the next window
// skips what the previous one already brought in.
func TestReadAheadWindowIsOneRun(t *testing.T) {
	h := newReadAheadHarness(1, 256, 8)
	for i := int64(0); i < 64; i++ {
		h.backing.data[kb(i)] = blk(byte(i))
	}
	e := h.engines[0]
	h.run(func(p *sim.Proc) {
		if _, err := readRun(p, e, 0, 4); err != nil {
			t.Fatalf("read: %v", err)
		}
		p.Sleep(100 * sim.Millisecond)
		got := slices.Clone(h.backing.runs) // the op and its window run side by side
		slices.SortFunc(got, func(a, b [2]int64) int { return int(a[0] - b[0]) })
		if want := [][2]int64{{0, 4}, {4, 8}}; !slices.Equal(got, want) {
			t.Fatalf("backing served runs %v, want the op and one 8-block window: %v", got, want)
		}
		if n := e.Stats().Prefetches; n != 8 {
			t.Fatalf("%d prefetches, want 8", n)
		}
		hits := e.Cache().Stats().Hits
		out, err := readRun(p, e, 4, 4)
		if err != nil || out[3][0] != 7 {
			t.Fatalf("second op: %v", err)
		}
		if got := e.Cache().Stats().Hits - hits; got != 4 {
			t.Errorf("second op hit %d of its 4 blocks", got)
		}
		p.Sleep(100 * sim.Millisecond)
		if got, want := h.backing.runs[2:], [][2]int64{{12, 4}}; !slices.Equal(got, want) {
			t.Fatalf("second window read %v, want only the blocks the first left: %v", got, want)
		}
	})
}
