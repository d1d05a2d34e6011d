package coherence

import (
	"errors"
	"runtime"
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// cleaned is one onClean call: the block whose replicas were released and
// the version the release named.
type cleaned struct {
	key cache.Key
	ver uint64
}

// dirtyRun makes blocks [lba, lba+n) of the test volume dirty on blade 0 of
// a two-blade harness whose onClean calls land in *log, and returns the
// versions a flush would sample.
func dirtyRun(t *testing.T, h *harness, p *sim.Proc, lba int64, n int, log *[]cleaned) []uint64 {
	t.Helper()
	e := h.engines[0]
	e.onClean = func(_ *sim.Proc, key cache.Key, ver uint64) { *log = append(*log, cleaned{key, ver}) }
	vers := make([]uint64, n)
	for i := range vers {
		if err := e.WriteBlock(p, kb(lba+int64(i)), blk(byte(i+1)), 0); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		ent, _ := e.cache.Peek(kb(lba + int64(i)))
		vers[i] = ent.Version
	}
	return vers
}

// Four adjacent dirty blocks destage as one backing write, and each entry
// then gets the single-block epilogue: the one rewritten while the write was
// in flight stays dirty with its replicas held, the others go clean and
// release theirs once, naming the version sampled at the pin.
func TestRunWritebackEpilogueIsPerEntry(t *testing.T) {
	h := newHarness(1, 2, 64)
	e := h.engines[0]
	var log []cleaned
	h.run(func(p *sim.Proc) {
		vers := dirtyRun(t, h, p, 10, 4, &log)
		h.k.Go("rewriter", func(q *sim.Proc) {
			q.Sleep(sim.Millisecond) // the backing write takes two
			if err := e.WriteBlock(q, kb(11), blk(99), 0); err != nil {
				t.Errorf("rewrite: %v", err)
			}
		})
		if n := e.FlushOnce(p, 0); n != 4 {
			t.Errorf("flushed %d, want 4", n)
		}
		if want := []writeRun{{kb(10), 4}}; !slices.Equal(h.backing.wruns, want) {
			t.Errorf("backing writes %v, want %v", h.backing.wruns, want)
		}
		if want := []cleaned{{kb(10), vers[0]}, {kb(12), vers[2]}, {kb(13), vers[3]}}; !slices.Equal(log, want) {
			t.Errorf("onClean calls %v, want %v", log, want)
		}
		for i := int64(10); i < 14; i++ {
			ent, _ := e.cache.Peek(kb(i))
			if ent.Pinned || ent.Dirty != (i == 11) {
				t.Errorf("block %d: pinned %v dirty %v", i, ent.Pinned, ent.Dirty)
			}
		}
		if st := e.Stats(); st.Writebacks != 3 || st.WritebackRuns != 1 || st.WritebackErrors != 0 {
			t.Errorf("writebacks %d in %d runs, %d errors; want 3 in 1, 0", st.Writebacks, st.WritebackRuns, st.WritebackErrors)
		}
		// The next round takes the rewritten block alone.
		e.FlushOnce(p, 0)
		if got := h.backing.data[kb(11)]; len(e.cache.DirtyEntries()) != 0 || got[0] != 99 || len(log) != 4 {
			t.Errorf("after the second round: %d dirty, block 11 holds %d, %d onClean calls", len(e.cache.DirtyEntries()), got[0], len(log))
		}
	})
}

// A backing write that fails leaves every entry of its run dirty, unpinned
// and counted, with no replica released.
func TestRunWritebackErrorLeavesRunDirty(t *testing.T) {
	h := newHarness(1, 2, 64)
	e := h.engines[0]
	var log []cleaned
	h.run(func(p *sim.Proc) {
		dirtyRun(t, h, p, 10, 4, &log)
		h.backing.midWrite = func(*sim.Proc, writeRun) error { return errors.New("store refuses") }
		e.FlushOnce(p, 0)
		for i := int64(10); i < 14; i++ {
			if ent, _ := e.cache.Peek(kb(i)); ent.Pinned || !ent.Dirty {
				t.Errorf("block %d: pinned %v dirty %v", i, ent.Pinned, ent.Dirty)
			}
		}
		if st := e.Stats(); st.WritebackErrors != 4 || st.Writebacks != 0 || len(log) != 0 {
			t.Errorf("%d errors, %d writebacks, %d onClean calls; want 4, 0, 0", st.WritebackErrors, st.Writebacks, len(log))
		}
	})
}

// A handler that must not overlap a writeback parks on the entry whichever
// run carries it, and resumes at the run's unpin: a peer's write (surrender)
// and a peer's read (handleDowngrade) of two blocks in the middle of a run in
// flight finish just after the backing write does, and the surrendered block
// — clean by then — is not destaged a second time.
func TestRunMatesWakeAtUnpin(t *testing.T) {
	h := newHarness(1, 2, 64)
	var log []cleaned
	var flushed, wrote, read sim.Time
	h.run(func(p *sim.Proc) {
		dirtyRun(t, h, p, 10, 4, &log)
		grp := sim.NewGroup(h.k)
		grp.Add(2)
		h.k.Go("peer-write", func(q *sim.Proc) {
			defer grp.Done()
			q.Sleep(sim.Millisecond)
			if err := h.engines[1].WriteBlock(q, kb(12), blk(77), 0); err != nil {
				t.Errorf("peer write: %v", err)
			}
			wrote = q.Now()
		})
		h.k.Go("peer-read", func(q *sim.Proc) {
			defer grp.Done()
			q.Sleep(sim.Millisecond)
			if d, err := h.engines[1].ReadBlock(q, kb(11), 0); err != nil || d[0] != 2 {
				t.Errorf("peer read: %v, err %v", d, err)
			}
			read = q.Now()
		})
		h.engines[0].FlushOnce(p, 0)
		flushed = p.Now()
		grp.Wait(p)
	})
	for _, at := range []sim.Time{wrote, read} {
		if at < flushed || at.Sub(flushed) > sim.Millisecond {
			t.Errorf("peer op finished at %v, the run's write at %v: want just after it", at, flushed)
		}
	}
	if want := []writeRun{{kb(10), 4}}; !slices.Equal(h.backing.wruns, want) {
		t.Errorf("backing writes %v, want %v", h.backing.wruns, want)
	}
	if len(h.engines[0].unpinned) != 0 {
		t.Errorf("%d pin-wait futures left behind", len(h.engines[0].unpinned))
	}
}

// Runs never join blocks of two volumes or blocks with a gap between them,
// and they issue in address order whatever order the blocks were dirtied in,
// the same on every same-seed run.
func TestRunsSplitAtVolumeAndGap(t *testing.T) {
	key := func(vol string, lba int64) cache.Key { return cache.Key{Vol: vol, LBA: lba} }
	issue := func() []writeRun {
		h := newHarness(7, 2, 64)
		h.run(func(p *sim.Proc) {
			// w/12 follows v/11 by LBA but not by volume; w/15 follows a gap.
			for _, k := range []cache.Key{key("w", 15), key("v", 11), key("w", 13), key("v", 10), key("w", 12)} {
				if err := h.engines[0].WriteBlock(p, k, blk(byte(k.LBA)), 0); err != nil {
					t.Fatalf("write %v: %v", k, err)
				}
			}
			h.engines[0].FlushOnce(p, 0)
		})
		return h.backing.wruns
	}
	got := issue()
	if want := []writeRun{{key("v", 10), 2}, {key("w", 12), 2}, {key("w", 15), 1}}; !slices.Equal(got, want) {
		t.Errorf("runs %v, want %v", got, want)
	}
	if again := issue(); !slices.Equal(again, got) {
		t.Errorf("same seed issued %v, then %v", got, again)
	}
}

// A warm destage of a run of four adjacent blocks joins them in the engine's
// staging buffer, which the last flush gave back: the flush allocates less
// than one block, where joining the run in a new buffer took four.
func TestRunDestageReusesStagingBuffer(t *testing.T) {
	const bs, runs = 4096, 20
	h := newHarnessSized(1, 2, 64, bs, &failingBacking{delay: 2 * sim.Millisecond, allow: 1 << 30}, simnet.RetryPolicy{})
	defer h.k.Close()
	e := h.engines[0]
	var bytes uint64
	h.run(func(p *sim.Proc) {
		data := make([]byte, bs)
		for i := range runs + 1 {
			for b := range int64(4) {
				if err := e.WriteBlock(p, kb(10+b), data, 0); err != nil {
					t.Fatal(err)
				}
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			if n := e.FlushOnce(p, 0); n != 4 {
				t.Fatalf("flushed %d blocks, want 4", n)
			}
			runtime.ReadMemStats(&m1)
			if i > 0 { // the first flush makes the staging buffer
				bytes += m1.TotalAlloc - m0.TotalAlloc
			}
		}
	})
	if runs := e.Stats().WritebackRuns; runs != 21 {
		t.Fatalf("%d backing writes for 21 flushes of one run", runs)
	}
	if per := bytes / runs; per >= bs {
		t.Errorf("a warm 4-block destage allocates %d bytes, want < %d: the run is joined in a new buffer", per, bs)
	}
}
