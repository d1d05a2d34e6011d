package raid

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/disk"
	"repro/internal/sim"
)

// ios sums the member disks' read and write counts.
func ios(g *Group) (reads, writes int64) {
	for _, d := range g.Disks() {
		st := d.Stats()
		reads, writes = reads+st.Reads, writes+st.Writes
	}
	return reads, writes
}

// A healthy row takes whichever of read-modify-write and reconstruct-write
// reads fewer blocks (a tie keeps read-modify-write), and a whole row reads
// nothing. The member-disk I/O counts pin the choice for every k.
func TestRowWriteBranchByIOCount(t *testing.T) {
	type io struct{ reads, writes int64 }
	cases := []struct {
		level Level
		want  []io // k = 1, 2, …, dps new blocks in a row of six disks
		mix   [3]int64
	}{
		{RAID5, []io{{2, 2}, {3, 3}, {2, 4}, {1, 5}, {0, 6}}, [3]int64{1, 2, 2}},
		{RAID6, []io{{3, 3}, {2, 4}, {1, 5}, {0, 6}}, [3]int64{1, 2, 1}},
	}
	for _, c := range cases {
		k := sim.NewKernel(1)
		g := newTestGroup(t, k, c.level, 6)
		dps := g.dataPerStripe()
		if len(c.want) != dps {
			t.Fatalf("%v: %d cases for %d data blocks a row", c.level, len(c.want), dps)
		}
		rows := int64(dps + 1)
		shadow := fillPattern(int(rows)*dps*512, 1)
		run(k, func(p *sim.Proc) {
			if err := g.Write(p, 0, shadow); err != nil {
				t.Fatal(err)
			}
			g.rowWrites = struct{ full, reconstruct, rmw int64 }{}
			for n := 1; n <= dps; n++ {
				// Row n, from its second block where the row has room, so the
				// blocks that stay lie on both sides of the new ones.
				lba := int64(n * dps)
				if n < dps-1 {
					lba++
				}
				data := fillPattern(n*512, byte(50+n))
				copy(shadow[lba*512:], data)
				r0, w0 := ios(g)
				if err := g.Write(p, lba, data); err != nil {
					t.Fatal(err)
				}
				r1, w1 := ios(g)
				if got := (io{r1 - r0, w1 - w0}); got != c.want[n-1] {
					t.Errorf("%v k=%d: %d reads + %d writes, want %d + %d",
						c.level, n, got.reads, got.writes, c.want[n-1].reads, c.want[n-1].writes)
				}
			}
			if got := [3]int64{g.rowWrites.full, g.rowWrites.reconstruct, g.rowWrites.rmw}; got != c.mix {
				t.Errorf("%v: row writes full/reconstruct/rmw = %v, want %v", c.level, got, c.mix)
			}
			if bad, err := g.ScrubRange(p, 0, rows); err != nil || bad != 0 {
				t.Errorf("%v: scrub: %d inconsistent rows, err %v", c.level, bad, err)
			}
			g.Disks()[2].Fail()
			got, err := g.Read(p, 0, int(rows)*dps)
			if err != nil || !bytes.Equal(got, shadow) {
				t.Errorf("%v: degraded read: err %v, content match %v", c.level, err, bytes.Equal(got, shadow))
			}
		})
	}
}

// Seeded interleavings of run writes and single-block writes whose rows
// overlap, so that read-modify-write, reconstruct-write and full-stripe
// writes meet on one row lock: every block must hold its last writer's data
// and every row's parity must match it — scrubbed healthy, read back with as
// many members failed as the level survives, written to degraded, read back
// with a replacement half rebuilt and written to while the rest rebuilds.
// Writers in flight together never share a block (no order between them is
// defined) but share rows freely.
func TestInterleavedRunWritesKeepParityProperty(t *testing.T) {
	spec := smallSpec()
	spec.Blocks = 2 * RebuildChunkStripes
	for seed := int64(1); seed <= 12; seed++ {
		for _, level := range []Level{RAID5, RAID6} {
			name := fmt.Sprintf("seed%d/%v", seed, level)
			rng := rand.New(rand.NewSource(seed))
			k := sim.NewKernel(seed)
			g, err := NewGroup(k, level, disk.NewFarm(k, "d", 6, spec).Disks)
			if err != nil {
				t.Fatal(err)
			}
			dps := int64(g.dataPerStripe())
			// Eight rows across the boundary of the two rebuild chunks.
			firstRow := RebuildChunkStripes - 4
			lo, blocks := firstRow*dps, int(8*dps)
			shadow := make([]byte, blocks*512)
			tag := byte(0)

			// round writes a random cut of the region into runs of 1–7
			// blocks, most of them, started within a few disk service times
			// of one another in random order.
			round := func(p *sim.Proc) {
				grp := sim.NewGroup(k)
				var cuts []int
				for at := 0; at < blocks; at += 1 + rng.Intn(7) {
					cuts = append(cuts, at)
				}
				cuts = append(cuts, blocks)
				for _, i := range rng.Perm(len(cuts) - 1) {
					if rng.Intn(4) == 0 {
						continue
					}
					at, n := cuts[i], cuts[i+1]-cuts[i]
					tag++
					data := fillPattern(n*512, tag)
					copy(shadow[at*512:], data)
					delay := sim.Duration(rng.Int63n(int64(4 * sim.Millisecond)))
					grp.Add(1)
					k.Go("writer", func(q *sim.Proc) {
						defer grp.Done()
						q.Sleep(delay)
						if err := g.Write(q, lo+int64(at), data); err != nil {
							t.Errorf("%s: write of %d blocks at %d: %v", name, n, at, err)
						}
					})
				}
				grp.Wait(p)
			}
			readBack := func(p *sim.Proc, when string) {
				got, err := g.Read(p, lo, blocks)
				if err != nil {
					t.Errorf("%s: read %s: %v", name, when, err)
					return
				}
				for b := 0; b < blocks; b++ {
					if !bytes.Equal(got[b*512:(b+1)*512], shadow[b*512:(b+1)*512]) {
						t.Errorf("%s: block %d wrong %s", name, b, when)
					}
				}
			}
			scrub := func(p *sim.Proc, when string) {
				if bad, err := g.ScrubRange(p, firstRow, firstRow+8); err != nil || bad != 0 {
					t.Errorf("%s: scrub %s: %d inconsistent rows, err %v", name, when, bad, err)
				}
				if len(g.rowLocks) != 0 {
					t.Errorf("%s: %d row lock records left %s", name, len(g.rowLocks), when)
				}
			}

			run(k, func(p *sim.Proc) {
				for i := 0; i < 3; i++ {
					round(p)
				}
				scrub(p, "after the healthy rounds")
				failed := rng.Perm(6)[:1]
				if level == RAID6 {
					failed = failed[:2]
				}
				for _, di := range failed {
					g.Disks()[di].Fail()
				}
				readBack(p, "with members failed")
				round(p)
				readBack(p, "after a degraded round")

				if _, err := g.StartRebuild(failed[0]); err != nil {
					t.Fatal(err)
				}
				if err := g.RebuildChunk(p, failed[0], 0); err != nil {
					t.Fatal(err)
				}
				readBack(p, "with the replacement half rebuilt")
				grp := sim.NewGroup(k)
				grp.Add(1)
				k.Go("rebuild", func(q *sim.Proc) {
					defer grp.Done()
					if err := g.RebuildChunk(q, failed[0], 1); err != nil {
						t.Errorf("%s: rebuild: %v", name, err)
					}
				})
				round(p)
				readBack(p, "after a round against the rebuild")
				grp.Wait(p)
				for _, di := range failed[1:] {
					if _, err := g.StartRebuild(di); err != nil {
						t.Fatal(err)
					}
					if err := rebuild(p, g, di, 2); err != nil {
						t.Fatal(err)
					}
				}
				round(p)
				scrub(p, "after the rebuild")
				readBack(p, "after the rebuild")
			})
		}
	}
}

// A warm one-block write to a healthy RAID-5 row is a read-modify-write
// whose old block and parity are read into scratch blocks from the group's
// spare list, and whose new parity is made there: it allocates less than one
// block. The rows still read back as written and scrub clean.
func TestRowWriteReusesScratchBlocks(t *testing.T) {
	const rows, writes = 4, 40
	k := sim.NewKernel(1)
	defer k.Close()
	g, err := NewGroup(k, RAID5, disk.NewFarm(k, "d", 5, disk.LabSpec()).Disks)
	if err != nil {
		t.Fatal(err)
	}
	bs, dps := g.BlockSize(), int64(g.dataPerStripe())
	shadow := fillPattern(rows*int(dps)*bs, 1)
	run(k, func(p *sim.Proc) {
		if err := g.Write(p, 0, shadow); err != nil { // every block and parity exists on disk
			t.Fatal(err)
		}
		i := 0
		write := func() {
			lba := int64(i%rows)*dps + int64(i%int(dps))
			data := shadow[lba*int64(bs) : (lba+1)*int64(bs)]
			data[0]++
			if err := g.Write(p, lba, data); err != nil {
				t.Fatal(err)
			}
			i++
		}
		write()
		rmw := g.rowWrites.rmw
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		allocs := testing.AllocsPerRun(writes, write)
		runtime.ReadMemStats(&m1)
		if n := g.rowWrites.rmw - rmw; n != writes+1 {
			t.Fatalf("%d read-modify-writes in %d one-block writes", n, writes+1)
		}
		if per := (m1.TotalAlloc - m0.TotalAlloc) / (writes + 1); per >= uint64(bs) {
			t.Errorf("a warm one-block RAID-5 write allocates %d bytes in %v objects, want < %d: a block buffer is new", per, allocs, bs)
		}
		got, err := g.Read(p, 0, len(shadow)/bs)
		if err != nil || !bytes.Equal(got, shadow) {
			t.Fatalf("rows read back wrong (err %v)", err)
		}
		if bad, err := g.ScrubRange(p, 0, rows); err != nil || bad != 0 {
			t.Fatalf("scrub: %d bad rows, err %v", bad, err)
		}
	})
}

// A warm row write takes the arrays it works in — its new blocks, the
// members that stay, the row in hand, its scratch blocks by disk, its lists
// of member reads and writes and its fan-outs' items — from a row writer on
// the group's spare list, and its row lock from the group's spare locks: an
// uncontended full-stripe write or read-modify-write allocates nothing.
func TestRowWriteAllocatesNoRowArrays(t *testing.T) {
	k := sim.NewKernel(1)
	defer k.Close()
	g, err := NewGroup(k, RAID5, disk.NewFarm(k, "d", 5, disk.LabSpec()).Disks)
	if err != nil {
		t.Fatal(err)
	}
	bs, dps := g.BlockSize(), g.dataPerStripe()
	const rows = 4
	shadow := fillPattern(rows*dps*bs, 1)
	run(k, func(p *sim.Proc) {
		full := func() {
			if err := g.Write(p, 0, shadow); err != nil {
				t.Fatal(err)
			}
		}
		one := func() {
			if err := g.Write(p, 1, shadow[bs:2*bs]); err != nil {
				t.Fatal(err)
			}
		}
		full()
		one()
		if n := testing.AllocsPerRun(20, full); n != 0 {
			t.Errorf("a warm %d-row full-stripe write allocates %v objects, want 0", rows, n)
		}
		if n := testing.AllocsPerRun(20, one); n != 0 {
			t.Errorf("a warm one-block read-modify-write allocates %v objects, want 0", n)
		}
	})
}
