package coherence

import (
	"slices"
	"testing"

	"repro/internal/sim"
)

// Surrendering one of four adjacent dirty blocks destages all four in one
// backing write and releases every one's replicas, naming the version
// sampled at the pin; the InvMs that follow for the others find them clean
// and destage nothing.
func TestSurrenderDestagesItsDirtyRun(t *testing.T) {
	h := newHarness(1, 2, 64)
	e := h.engines[0]
	var log []cleaned
	h.run(func(p *sim.Proc) {
		vers := dirtyRun(t, h, p, 10, 4, &log)
		if err := h.engines[1].WriteBlock(p, kb(12), blk(77), 0); err != nil {
			t.Fatalf("peer write: %v", err)
		}
		if want := []writeRun{{kb(10), 4}}; !slices.Equal(h.backing.wruns, want) {
			t.Errorf("backing writes %v, want %v", h.backing.wruns, want)
		}
		if st := e.Stats(); st.WritebackRuns != 1 || st.Writebacks != 4 {
			t.Errorf("%d writebacks in %d runs, want 4 in 1", st.Writebacks, st.WritebackRuns)
		}
		want := []cleaned{{kb(10), vers[0]}, {kb(11), vers[1]}, {kb(12), vers[2]}, {kb(13), vers[3]}}
		if !slices.Equal(log, want) {
			t.Errorf("onClean calls %v, want %v", log, want)
		}
		if _, ok := e.cache.Peek(kb(12)); ok {
			t.Error("the surrendered block is still cached")
		}
		for _, i := range []int64{10, 11, 13} {
			if ent, _ := e.cache.Peek(kb(i)); ent.Pinned || ent.Dirty {
				t.Errorf("block %d: pinned %v dirty %v", i, ent.Pinned, ent.Dirty)
			}
		}
		for _, i := range []int64{11, 13} {
			if err := h.engines[1].WriteBlock(p, kb(i), blk(byte(80+i)), 0); err != nil {
				t.Fatalf("peer write %d: %v", i, err)
			}
		}
		if len(h.backing.wruns) != 1 {
			t.Errorf("backing writes %v: a clean run mate was destaged again", h.backing.wruns)
		}
	})
}

// A neighbour rewritten while the surrender's run is in flight stays dirty
// at its new version, its replicas held; the next flush destages it.
func TestSurrenderRunKeepsNeighbourRewrite(t *testing.T) {
	h := newHarness(1, 2, 64)
	e := h.engines[0]
	var log []cleaned
	h.run(func(p *sim.Proc) {
		vers := dirtyRun(t, h, p, 10, 4, &log)
		h.k.Go("rewriter", func(q *sim.Proc) {
			q.Sleep(sim.Millisecond) // the surrender's backing write starts first
			if err := e.WriteBlock(q, kb(13), blk(99), 0); err != nil {
				t.Errorf("rewrite: %v", err)
			}
		})
		if err := h.engines[1].WriteBlock(p, kb(10), blk(77), 0); err != nil {
			t.Fatalf("peer write: %v", err)
		}
		if want := []writeRun{{kb(10), 4}}; !slices.Equal(h.backing.wruns, want) {
			t.Errorf("backing writes %v, want %v", h.backing.wruns, want)
		}
		if want := []cleaned{{kb(10), vers[0]}, {kb(11), vers[1]}, {kb(12), vers[2]}}; !slices.Equal(log, want) {
			t.Errorf("onClean calls %v, want %v", log, want)
		}
		ent, _ := e.cache.Peek(kb(13))
		if !ent.Dirty || ent.Pinned || ent.Version <= vers[3] || ent.Data[0] != 99 {
			t.Errorf("rewritten block: dirty %v pinned %v version %d (was %d) data %d", ent.Dirty, ent.Pinned, ent.Version, vers[3], ent.Data[0])
		}
		e.FlushOnce(p, 0)
		if got := h.backing.data[kb(13)]; got[0] != 99 || len(e.cache.DirtyEntries()) != 0 {
			t.Errorf("after a flush: block 13 holds %d, %d dirty", got[0], len(e.cache.DirtyEntries()))
		}
	})
}

// A run reaches down to LBA 0 and no further, and up to the flusher's batch.
func TestSurrenderRunBounds(t *testing.T) {
	h := newHarness(1, 2, 128)
	var log []cleaned
	h.run(func(p *sim.Proc) {
		dirtyRun(t, h, p, 0, FlushBatch+6, &log)
		if err := h.engines[1].WriteBlock(p, kb(2), blk(77), 0); err != nil {
			t.Fatalf("peer write: %v", err)
		}
		if err := h.engines[1].WriteBlock(p, kb(FlushBatch+5), blk(78), 0); err != nil {
			t.Fatalf("peer write: %v", err)
		}
		want := []writeRun{{kb(0), FlushBatch}, {kb(FlushBatch), 6}}
		if !slices.Equal(h.backing.wruns, want) {
			t.Errorf("backing writes %v, want %v", h.backing.wruns, want)
		}
	})
}
