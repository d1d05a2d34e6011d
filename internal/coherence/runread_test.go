package coherence

import (
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/sim"
)

// The run-granular read: phase 1 per block, then one backing read per
// maximal run of blocks the backing store must supply, then one install per
// block under that block's own guards. These tests drive the window between
// a block's directory answer and its install — 2 ms wide here, the backing
// store's delay. Each body runs as the "per-key" subtest, named for the
// protocol: the directory grants and the cache installs one key at a time.

// A writer on the reader's own blade installs Modified while the run's
// backing read is in flight. The home sends the requester's own blade no
// invalidation, so the epoch cannot tell; the install must see the entry
// present and leave it, or the older disk data would replace an
// acknowledged write. The rest of the run installs.
func TestRunReadKeepsLocalWriterInstalledMidRead(t *testing.T) {
	t.Run("per-key", func(t *testing.T) {
		h := newHarness(1, 2, 64)
		for i := int64(0); i < 8; i++ {
			h.backing.data[kb(i)] = blk(byte(10 + i))
		}
		e := h.engines[0]
		h.k.Go("writer", func(p *sim.Proc) {
			p.Sleep(sim.Millisecond) // the run's backing read is half done
			if err := e.WriteBlock(p, kb(3), blk(99), 0); err != nil {
				t.Errorf("write: %v", err)
			}
		})
		h.run(func(p *sim.Proc) {
			if _, err := readRun(p, e, 0, 8); err != nil {
				t.Fatalf("run read: %v", err)
			}
			ent, ok := e.Cache().Peek(kb(3))
			if !ok || ent.State != cache.Modified || !ent.Dirty || ent.Data[0] != 99 {
				t.Fatalf("the writer's Modified copy of block 3 did not survive the run's install (cached %v)", ok)
			}
			for i := int64(0); i < 8; i++ {
				d, err := e.ReadBlock(p, kb(i), 0)
				want := byte(10 + i)
				if i == 3 {
					want = 99
				}
				if err != nil || d[0] != want {
					t.Errorf("block %d reads %d (%v), want %d", i, d[0], err, want)
				}
			}
		})
		if got := h.backing.runs; len(got) != 1 || got[0] != [2]int64{0, 8} {
			t.Fatalf("backing reads %v, want the one run [0 8] and every later read a hit", got)
		}
	})
}

// A writer on another blade takes ownership of one block between the
// reader's grant and its install: the invalidation bumps that block's epoch
// on the reader, so that one block stays uninstalled — the next read goes
// back to the directory and finds the new data — while the rest of the run
// installs.
func TestRunReadSkipsBlockInvalidatedMidRead(t *testing.T) {
	t.Run("per-key", func(t *testing.T) {
		h := newHarness(1, 2, 64)
		for i := int64(0); i < 8; i++ {
			h.backing.data[kb(i)] = blk(byte(10 + i))
		}
		reader, writer := h.engines[0], h.engines[1]
		h.k.Go("writer", func(p *sim.Proc) {
			p.Sleep(sim.Millisecond)
			if err := writer.WriteBlock(p, kb(5), blk(77), 0); err != nil {
				t.Errorf("write: %v", err)
			}
		})
		h.run(func(p *sim.Proc) {
			out, err := readRun(p, reader, 0, 8)
			if err != nil {
				t.Fatalf("run read: %v", err)
			}
			if out[5][0] != 15 {
				t.Errorf("block 5 read %d: the read began before the write and its data came off the disk, want 15", out[5][0])
			}
			for i := int64(0); i < 8; i++ {
				_, cached := reader.Cache().Peek(kb(i))
				if cached != (i != 5) {
					t.Errorf("block %d cached on the reader: %v", i, cached)
				}
			}
			if d, err := reader.ReadBlock(p, kb(5), 0); err != nil || d[0] != 77 {
				t.Errorf("block 5 rereads %d (%v), want the other blade's write 77", d[0], err)
			}
		})
		if err := CheckInvariants(h.engines, []cache.Key{kb(0), kb(5), kb(7)}); err != nil {
			t.Fatal(err)
		}
	})
}

// Blocks already cached split a run: with every 8th of 64 blocks resident,
// the backing store sees the eight 7-block runs between them, each once.
func TestRunReadSplitsAroundCachedBlocks(t *testing.T) {
	t.Run("per-key", func(t *testing.T) {
		h := newHarness(1, 2, 128)
		for i := int64(0); i < 64; i++ {
			h.backing.data[kb(i)] = blk(byte(100 + i))
		}
		e := h.engines[0]
		h.run(func(p *sim.Proc) {
			for i := int64(0); i < 64; i += 8 {
				if _, err := e.ReadBlock(p, kb(i), 0); err != nil {
					t.Fatalf("warm %d: %v", i, err)
				}
			}
			h.backing.runs = nil
			hits := e.Stats().LocalHits
			out, err := readRun(p, e, 0, 64)
			if err != nil {
				t.Fatalf("run read: %v", err)
			}
			for i := range out {
				if out[i][0] != byte(100+i) {
					t.Errorf("block %d reads %d, want %d", i, out[i][0], 100+i)
				}
			}
			if got := e.Stats().LocalHits - hits; got != 8 {
				t.Errorf("%d local hits, want the 8 resident blocks", got)
			}
		})
		var want [][2]int64
		for i := int64(1); i < 64; i += 8 {
			want = append(want, [2]int64{i, 7})
		}
		got := slices.Clone(h.backing.runs)
		slices.SortFunc(got, func(a, b [2]int64) int { return int(a[0] - b[0]) })
		if !slices.Equal(got, want) {
			t.Fatalf("backing served runs %v, want %v", got, want)
		}
		if n := h.engines[0].Cache().Len(); n != 64 {
			t.Fatalf("%d blocks cached after the run, want all 64", n)
		}
	})
}

// A backing error on one run fails the op, and nothing of that run is
// installed: its buffer holds no data anyone may serve.
func TestRunReadBackingErrorInstallsNothingOfThatRun(t *testing.T) {
	t.Run("per-key", func(t *testing.T) {
		h := newHarness(1, 2, 64)
		for i := int64(0); i < 16; i++ {
			h.backing.data[kb(i)] = blk(byte(1 + i))
		}
		h.backing.bad = map[cache.Key]bool{kb(12): true}
		e := h.engines[0]
		h.run(func(p *sim.Proc) {
			if _, err := e.ReadBlock(p, kb(8), 0); err != nil { // splits the op: runs 0..7 and 9..15
				t.Fatalf("warm: %v", err)
			}
			if _, err := readRun(p, e, 0, 16); err == nil {
				t.Fatal("run read over an unreadable block succeeded")
			}
			for i := int64(9); i < 16; i++ {
				if _, cached := e.Cache().Peek(kb(i)); cached {
					t.Errorf("block %d of the failed run was installed", i)
				}
			}
			if d, err := e.ReadBlock(p, kb(2), 0); err != nil || d[0] != 3 {
				t.Errorf("block 2, of the run that succeeded, reads %d (%v)", d[0], err)
			}
		})
	})
}

// A warm local-hit run takes no coroutine for its blocks: each one's CPU
// charge and hit run as steps of a step process, so the op's one resume is
// its caller's, woken when the last block ends. (With a coroutine per block,
// every block was resumed at its start and again after its charge.)
func TestWarmHitRunResumesNoCoroutine(t *testing.T) {
	for _, n := range []int{4, 64} {
		h := newHarness(1, 2, 128)
		e := h.engines[0]
		h.run(func(p *sim.Proc) {
			if _, err := readRun(p, e, 0, n); err != nil { // warm: all n cached here
				t.Fatalf("warm-up read: %v", err)
			}
			hits, resumes := e.Stats().LocalHits, h.k.Resumes()
			if _, err := readRun(p, e, 0, n); err != nil {
				t.Fatalf("read: %v", err)
			}
			if got := e.Stats().LocalHits - hits; got != int64(n) {
				t.Fatalf("%d of %d blocks hit", got, n)
			}
			if got := h.k.Resumes() - resumes; got != 1 {
				t.Errorf("a warm %d-block hit resumed %d coroutines, want only its caller", n, got)
			}
		})
		h.k.Close()
	}
}
