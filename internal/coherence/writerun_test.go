package coherence

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/simnet"
)

// putRun stores vals as the run of blocks that starts at lba through e as
// one op — WriteRun is the client write entry point of both planes.
func putRun(p *sim.Proc, e *Engine, lba int64, vals [][]byte) error {
	data := make([]byte, 0, len(vals)*blockSize)
	for _, v := range vals {
		data = append(data, v...)
	}
	return e.WriteRun(p, kb(lba).Vol, lba, data, 0, 0)
}

// TestWriteRunBothPlanes drives the same seeded script of overlapping
// WriteRun / ReadRun ops from three engines through each plane, with a home
// migration (one engine then forgets the new address, so it has to follow a
// Redirect) and an ownership steal between a grant and its install forced
// mid-run. Every read and the final read-back match a model map, and each
// engine's Stats().Writes equals the blocks it wrote: the steal fallback of
// the batched plane hands the block to the per-key loop, which counts it
// again, so the vector's count has to be taken back first.
func TestWriteRunBothPlanes(t *testing.T) {
	onBothPlanes(t, func(t *testing.T, batched bool) {
		t.Run("script", func(t *testing.T) { runWriteRunScript(t, batched) })
		t.Run("redirect-loop", func(t *testing.T) { runRedirectLoop(t, batched) })
	})
}

func runWriteRunScript(t *testing.T, batched bool) {
	const (
		blades      = 3
		cacheBlocks = 8
		keyspace    = 24
		steps       = 90
		far         = 100 // the steal's cache filler lives away from the script's keys
	)
	h := newHarness(7, blades, cacheBlocks)
	h.setBatched(batched)
	h.net.Connect("ctl", "fabric", simnet.FC2G)
	ctl := simnet.NewConn(h.net, "ctl")
	rng := rand.New(rand.NewSource(7 * 31))
	model := make(map[int64][]byte)
	written := make([]int64, blades)
	seq := 0
	vals := func(lba int64, n int) [][]byte {
		out := make([][]byte, n)
		for i := range out {
			seq++
			out[i] = wval(int(lba)+i, seq)
		}
		return out
	}
	write := func(p *sim.Proc, blade int, lba int64, vs [][]byte) {
		if err := putRun(p, h.engines[blade], lba, vs); err != nil {
			t.Fatalf("blade %d write %d+%d: %v", blade, lba, len(vs), err)
		}
		written[blade] += int64(len(vs))
		for i, v := range vs {
			model[lba+int64(i)] = v
		}
	}
	check := func(p *sim.Proc, blade int, lba int64, n int) {
		out, err := readRun(p, h.engines[blade], lba, n)
		if err != nil {
			t.Fatalf("blade %d read %d+%d: %v", blade, lba, n, err)
		}
		for i, d := range out {
			want := model[lba+int64(i)]
			if want == nil {
				want = make([]byte, 2)
			}
			if d[0] != want[0] || d[1] != want[1] {
				t.Fatalf("blade %d read %d+%d: block %d is (%d,%d), want last acked (%d,%d)",
					blade, lba, n, i, d[0], d[1], want[0], want[1])
			}
		}
	}

	h.run(func(p *sim.Proc) {
		for s := 0; s < steps; s++ {
			switch s {
			case steps / 3:
				// Migrate key 5's home; blade `lost` then loses the
				// address it learned, as if the sethome broadcast had
				// missed it, and must follow the old home's Redirect.
				home, _ := h.engines[0].Home(kb(5))
				to := (home + 1) % blades
				moved, err := RequestMigrate(p, ctl, simnet.Addr(fmt.Sprintf("blade%d", home)), kb(5), to, NormalizeRetry(simnet.RetryPolicy{}))
				if err != nil || !moved {
					t.Fatalf("migrate key 5 from %d to %d: moved=%v err=%v", home, to, moved, err)
				}
				lost := h.engines[(home+2)%blades]
				delete(lost.homeOverride, kb(5))
				lost.idx.invalidate()
				write(p, lost.self, 4, vals(4, 3))
				if lost.Stats().RedirectsFollowed == 0 {
					t.Fatalf("blade %d reached key 5's new home without a redirect", lost.self)
				}
			case 2 * steps / 3:
				// Blade 0's cache is full of dirty blocks, so installing
				// its run 10+2 waits 2 ms on a writeback; blade 1 takes
				// block 10 in that window. Blade 0 must notice, take a
				// fresh grant, and — acknowledged last — win.
				write(p, 0, far, vals(far, 4))
				write(p, 0, far+4, vals(far+4, 4))
				retries := h.engines[0].Stats().WriteRetries
				thief := sim.NewGroup(h.k)
				thief.Add(1)
				h.k.Go("thief", func(q *sim.Proc) {
					defer thief.Done()
					q.Sleep(sim.Millisecond)
					write(q, 1, 10, vals(10, 1))
				})
				write(p, 0, 10, vals(10, 2))
				thief.Wait(p)
				if h.engines[0].Stats().WriteRetries == retries {
					t.Fatal("no ownership steal between grant and install: the window was not exercised")
				}
			}
			blade, n := rng.Intn(blades), 1+rng.Intn(4)
			lba := int64(rng.Intn(keyspace - n + 1))
			if rng.Intn(10) < 4 {
				write(p, blade, lba, vals(lba, n))
			} else {
				check(p, blade, lba, n)
			}
		}
		for k := int64(0); k < keyspace; k++ {
			check(p, int(k)%blades, k, 1)
		}
		check(p, 2, far, 8)
	})
	for i, e := range h.engines {
		if got := e.Stats().Writes; got != written[i] {
			t.Errorf("blade %d: Stats().Writes = %d, wrote %d blocks", i, got, written[i])
		}
	}
	checkDirectoryInvariants(t, h, keyspace)
}

// A key whose homes forward to each other in a ring can never be granted:
// after len(peers)+8 redirects the shared helper of each plane gives up, and
// both entry points surface its error.
func runRedirectLoop(t *testing.T, batched bool) {
	h := newHarness(1, 3, 8)
	h.setBatched(batched)
	for i, e := range h.engines {
		e.forward[kb(5)] = (i + 1) % len(h.engines)
	}
	h.run(func(p *sim.Proc) {
		err := putRun(p, h.engines[0], 4, [][]byte{blk(1), blk(2)})
		if err == nil || !strings.Contains(err.Error(), "redirect loop") {
			t.Errorf("WriteRun over the ring: %v, want a redirect loop error", err)
		}
		_, err = readRun(p, h.engines[1], 5, 1)
		if err == nil || !strings.Contains(err.Error(), "redirect loop") {
			t.Errorf("ReadRun over the ring: %v, want a redirect loop error", err)
		}
	})
}
