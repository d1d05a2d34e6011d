package raid

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/disk"
	"repro/internal/sim"
)

// Property: one row engine writes, rebuilds and scrubs every level. At every
// width from the level's minimum to six members, seeded rounds of concurrent
// writes to disjoint runs read back exactly what a shadow copy holds —
// healthy; with as many members failed as the level survives; after a round
// written degraded; with the replacements half rebuilt and a round written
// against the rest of the rebuild — and a scrub of the whole group then finds
// every row consistent. A parity block corrupted behind the group's back is
// one bad row to the scrub and none after its repair.
func TestRowEngineProperty(t *testing.T) {
	spec := smallSpec()
	spec.Blocks = 2 * RebuildChunkStripes
	seeds := int64(6)
	if testing.Short() {
		seeds = 2
	}
	for seed := int64(1); seed <= seeds; seed++ {
		for _, level := range []Level{RAID0, RAID1, RAID5, RAID6} {
			for n := level.MinDisks(); n <= 6; n++ {
				name := fmt.Sprintf("seed%d/%v×%d", seed, level, n)
				rng := rand.New(rand.NewSource(seed*100 + int64(n)))
				k := sim.NewKernel(seed)
				g, err := NewGroup(k, level, disk.NewFarm(k, "d", n, spec).Disks)
				if err != nil {
					t.Fatal(err)
				}
				checkRowEngine(t, name, rng, k, g)
				k.Close()
			}
		}
	}
}

func checkRowEngine(t *testing.T, name string, rng *rand.Rand, k *sim.Kernel, g *Group) {
	bs, dps := g.BlockSize(), int64(g.dataPerStripe())
	n := len(g.Disks())
	// The writes land in twelve rows across the boundary of the two
	// rebuild chunks, so rebuild passes and writers meet on row locks.
	lo, blocks := (RebuildChunkStripes-6)*dps, int(12*dps)
	shadow := make([]byte, g.Capacity()*int64(bs))
	tag := byte(0)
	round := func(p *sim.Proc) {
		grp := sim.NewGroup(k)
		for at := 0; at < blocks; {
			run := 1 + rng.Intn(2*int(dps)+1)
			run = min(run, blocks-at)
			if rng.Intn(3) > 0 {
				tag++
				data := bytes.Repeat([]byte{tag}, run*bs)
				l := lo + int64(at)
				copy(shadow[l*int64(bs):], data)
				delay := sim.Duration(rng.Int63n(int64(4 * sim.Millisecond)))
				grp.Add(1)
				k.Go("writer", func(q *sim.Proc) {
					defer grp.Done()
					q.Sleep(delay)
					if err := g.Write(q, l, data); err != nil {
						t.Errorf("%s: write of %d blocks at %d: %v", name, len(data)/bs, l, err)
					}
				})
			}
			at += run
		}
		grp.Wait(p)
	}
	readBack := func(p *sim.Proc, when string) {
		got := bytes.Repeat([]byte{0xFF}, len(shadow))
		if err := g.ReadInto(p, 0, got); err != nil {
			t.Errorf("%s: read %s: %v", name, when, err)
			return
		}
		for i := 0; i < 8; i++ { // and a few short reads, which take other paths
			l := rng.Int63n(g.Capacity() - 3)
			one, err := g.Read(p, l, 3)
			if err != nil || !bytes.Equal(one, shadow[l*int64(bs):(l+3)*int64(bs)]) {
				t.Errorf("%s: read of 3 blocks at %d %s: err %v", name, l, when, err)
			}
		}
		if !bytes.Equal(got, shadow) {
			t.Errorf("%s: the group differs from what was written %s", name, when)
		}
	}
	scrub := func(p *sim.Proc, want int64, when string) {
		if bad, err := g.ScrubRange(p, 0, g.Stripes()); err != nil || bad != want {
			t.Errorf("%s: scrub %s: %d inconsistent rows, err %v, want %d", name, when, bad, err, want)
		}
		if len(g.rowLocks) != 0 {
			t.Errorf("%s: %d row lock records left %s", name, len(g.rowLocks), when)
		}
	}

	run(k, func(p *sim.Proc) {
		round(p)
		readBack(p, "healthy")
		scrub(p, 0, "healthy")
		if P, _ := g.parity(0); len(P) > 0 {
			s := lo/dps + rng.Int63n(12)
			P, _ := g.parity(s)
			g.Disks()[P[rng.Intn(len(P))]].CorruptBlock(s, bytes.Repeat([]byte{0xEE}, bs))
			scrub(p, 1, "of a corrupt parity block")
			scrub(p, 0, "after the repair")
		}
		tolerated := n - int(dps)
		if tolerated == 0 {
			return
		}
		failed := rng.Perm(n)[:1+rng.Intn(tolerated)]
		for _, di := range failed {
			g.Disks()[di].Fail()
		}
		readBack(p, fmt.Sprintf("with members %v failed", failed))
		round(p)
		readBack(p, "after a degraded round")
		for _, di := range failed {
			if _, err := g.StartRebuild(di); err != nil {
				t.Errorf("%s: start rebuild of %d: %v", name, di, err)
				return
			}
			if err := g.RebuildChunk(p, di, 0); err != nil {
				t.Errorf("%s: rebuild chunk 0 of %d: %v", name, di, err)
				return
			}
		}
		readBack(p, "with the replacements half rebuilt")
		grp := sim.NewGroup(k)
		for _, di := range failed {
			grp.Add(1)
			k.Go("rebuild", func(q *sim.Proc) {
				defer grp.Done()
				if err := g.RebuildChunk(q, di, 1); err != nil {
					t.Errorf("%s: rebuild chunk 1 of %d: %v", name, di, err)
				}
			})
		}
		round(p)
		grp.Wait(p)
		for _, di := range failed {
			if g.Rebuilding(di) {
				t.Errorf("%s: the rebuild of %d did not close", name, di)
			}
		}
		readBack(p, "after the rebuild")
		scrub(p, 0, "after the rebuild")
		// The replacements hold their rows: with as many of the members
		// that never failed failed in their place, the group reads back.
		var others []int
		for di := range n {
			if !slices.Contains(failed, di) {
				others = append(others, di)
			}
		}
		for _, di := range others[:min(len(failed), len(others))] {
			g.Disks()[di].Fail()
		}
		readBack(p, "with the replacements serving")
	})
}

// Each level's on-disk layout, written out from first principles rather
// than read from the row table: RAID-0 puts logical block l on disk l%n at
// l/n; RAID-1 puts it on every disk at l; RAID-5/6 put row s's P on disk
// n−1−s%n, RAID-6's Q on the disk after it, and the row's data blocks on the
// other disks in ascending order.
func TestLayoutByLevel(t *testing.T) {
	for _, c := range []struct {
		level Level
		n     int
	}{{RAID0, 4}, {RAID1, 3}, {RAID5, 5}, {RAID6, 6}} {
		k := sim.NewKernel(1)
		g := newTestGroup(t, k, c.level, c.n)
		dps := int64(g.dataPerStripe())
		blocks := 3 * int64(c.n) * dps
		block := func(l int64) []byte { return bytes.Repeat([]byte{byte(l + 1)}, 512) }
		run(k, func(p *sim.Proc) {
			for l := int64(0); l < blocks; l++ {
				if err := g.Write(p, l, block(l)); err != nil {
					t.Errorf("%v: write %d: %v", c.level, l, err)
					return
				}
			}
		})
		k.Close()
		// where lists the (disk, LBA) places that hold logical block l.
		where := func(l int64) (disks []int, lba int64) {
			switch c.level {
			case RAID0:
				return []int{int(l % int64(c.n))}, l / int64(c.n)
			case RAID1:
				for d := range c.n {
					disks = append(disks, d)
				}
				return disks, l
			}
			s := l / dps
			pd := c.n - 1 - int(s%int64(c.n))
			var data []int
			for d := range c.n {
				if d != pd && (c.level != RAID6 || d != (pd+1)%c.n) {
					data = append(data, d)
				}
			}
			return data[l%dps : l%dps+1], s
		}
		for l := int64(0); l < blocks; l++ {
			disks, lba := where(l)
			for _, d := range disks {
				if !bytes.Equal(g.Disks()[d].Peek(lba), block(l)) {
					t.Errorf("%v×%d: logical block %d is not on disk %d at %d", c.level, c.n, l, d, lba)
				}
			}
		}
	}
}
