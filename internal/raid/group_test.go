package raid

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/disk"
	"repro/internal/sim"
)

func smallSpec() disk.Spec {
	return disk.Spec{
		BlockSize:   512,
		Blocks:      2048,
		Seek:        sim.Millisecond,
		Rotation:    sim.Millisecond,
		TransferBps: 400_000_000,
	}
}

func newTestGroup(t *testing.T, k *sim.Kernel, level Level, n int) *Group {
	if t != nil {
		t.Helper()
	}
	farm := disk.NewFarm(k, "d", n, smallSpec())
	g, err := NewGroup(k, level, farm.Disks)
	if err != nil {
		if t != nil {
			t.Fatal(err)
		}
		panic(err)
	}
	return g
}

// run executes body as a proc and drains the kernel.
func run(k *sim.Kernel, body func(p *sim.Proc)) {
	k.Go("test", body)
	k.Run()
}

func fillPattern(n int, seed byte) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i)*7 + seed
	}
	return out
}

func TestCapacityByLevel(t *testing.T) {
	k := sim.NewKernel(1)
	cases := []struct {
		level Level
		disks int
		want  int64
	}{
		{RAID0, 4, 4 * 2048},
		{RAID1, 3, 2048},
		{RAID5, 5, 4 * 2048},
		{RAID6, 6, 4 * 2048},
	}
	for _, c := range cases {
		g := newTestGroup(t, k, c.level, c.disks)
		if got := g.Capacity(); got != c.want {
			t.Errorf("%v×%d capacity = %d, want %d", c.level, c.disks, got, c.want)
		}
	}
}

func TestMinDisksEnforced(t *testing.T) {
	k := sim.NewKernel(1)
	farm := disk.NewFarm(k, "d", 2, smallSpec())
	if _, err := NewGroup(k, RAID5, farm.Disks); err == nil {
		t.Fatal("RAID5 on 2 disks accepted")
	}
	if _, err := NewGroup(k, RAID6, farm.Disks); err == nil {
		t.Fatal("RAID6 on 2 disks accepted")
	}
}

func TestRoundTripAllLevels(t *testing.T) {
	for _, level := range []Level{RAID0, RAID1, RAID5, RAID6} {
		level := level
		t.Run(level.String(), func(t *testing.T) {
			k := sim.NewKernel(1)
			g := newTestGroup(t, k, level, 5)
			data := fillPattern(512*37, 3)
			var got []byte
			run(k, func(p *sim.Proc) {
				if err := g.Write(p, 11, data); err != nil {
					t.Errorf("write: %v", err)
					return
				}
				var err error
				got, err = g.Read(p, 11, 37)
				if err != nil {
					t.Errorf("read: %v", err)
				}
			})
			if !bytes.Equal(got, data) {
				t.Fatal("round trip mismatch")
			}
		})
	}
}

func TestParityConsistencyOnDisk(t *testing.T) {
	// After writes, every stripe's P must equal the XOR of its data and Q
	// the RS combination — checked directly against disk contents.
	k := sim.NewKernel(1)
	g := newTestGroup(t, k, RAID6, 6)
	run(k, func(p *sim.Proc) {
		g.Write(p, 0, fillPattern(512*64, 9))
		g.Write(p, 5, fillPattern(512*3, 77)) // partial-stripe RMW
	})
	dps := g.dataPerStripe()
	for s := int64(0); s < 20; s++ {
		pd, qd := g.parityDisks(s)
		var data [][]byte
		for _, di := range g.dataDisks(s) {
			data = append(data, g.disks[di].Peek(s))
		}
		if !bytes.Equal(g.disks[pd].Peek(s), XORParity(data)) {
			t.Fatalf("stripe %d: P inconsistent (dps=%d)", s, dps)
		}
		if !bytes.Equal(g.disks[qd].Peek(s), RSParity(data)) {
			t.Fatalf("stripe %d: Q inconsistent", s)
		}
	}
}

func TestDegradedReadRAID5(t *testing.T) {
	k := sim.NewKernel(1)
	g := newTestGroup(t, k, RAID5, 5)
	data := fillPattern(512*40, 5)
	run(k, func(p *sim.Proc) {
		if err := g.Write(p, 0, data); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		g.Disks()[2].Fail()
		got, err := g.Read(p, 0, 40)
		if err != nil {
			t.Errorf("degraded read: %v", err)
			return
		}
		if !bytes.Equal(got, data) {
			t.Error("degraded read returned wrong data")
		}
	})
}

func TestDegradedReadRAID6TwoFailures(t *testing.T) {
	k := sim.NewKernel(1)
	g := newTestGroup(t, k, RAID6, 6)
	data := fillPattern(512*64, 8)
	run(k, func(p *sim.Proc) {
		g.Write(p, 0, data)
		g.Disks()[1].Fail()
		g.Disks()[4].Fail()
		got, err := g.Read(p, 0, 64)
		if err != nil {
			t.Errorf("double-degraded read: %v", err)
			return
		}
		if !bytes.Equal(got, data) {
			t.Error("double-degraded read wrong data")
		}
	})
}

func TestRAID5ThreeFailuresUnrecoverable(t *testing.T) {
	k := sim.NewKernel(1)
	g := newTestGroup(t, k, RAID5, 5)
	run(k, func(p *sim.Proc) {
		g.Write(p, 0, fillPattern(512*8, 1))
		g.Disks()[0].Fail()
		g.Disks()[1].Fail()
		if _, err := g.Read(p, 0, 8); err == nil {
			t.Error("read succeeded with 2 failures on RAID5")
		}
	})
}

func TestDegradedWriteThenRecoverRAID5(t *testing.T) {
	// Write while a disk is down; the data must still be fully readable
	// (via parity), including blocks that would have lived on the dead disk.
	k := sim.NewKernel(1)
	g := newTestGroup(t, k, RAID5, 5)
	data := fillPattern(512*32, 42)
	run(k, func(p *sim.Proc) {
		g.Disks()[3].Fail()
		if err := g.Write(p, 7, data); err != nil {
			t.Errorf("degraded write: %v", err)
			return
		}
		got, err := g.Read(p, 7, 32)
		if err != nil {
			t.Errorf("read after degraded write: %v", err)
			return
		}
		if !bytes.Equal(got, data) {
			t.Error("degraded write lost data")
		}
	})
}

func TestMirrorSurvivesAllButOne(t *testing.T) {
	k := sim.NewKernel(1)
	g := newTestGroup(t, k, RAID1, 4)
	data := fillPattern(512*4, 6)
	run(k, func(p *sim.Proc) {
		g.Write(p, 0, data)
		g.Disks()[0].Fail()
		g.Disks()[1].Fail()
		g.Disks()[2].Fail()
		got, err := g.Read(p, 0, 4)
		if err != nil {
			t.Errorf("read with 3/4 mirrors dead: %v", err)
			return
		}
		if !bytes.Equal(got, data) {
			t.Error("surviving mirror returned wrong data")
		}
	})
}

func TestRAID0NoRedundancy(t *testing.T) {
	k := sim.NewKernel(1)
	g := newTestGroup(t, k, RAID0, 4)
	run(k, func(p *sim.Proc) {
		g.Write(p, 0, fillPattern(512*8, 1))
		g.Disks()[1].Fail()
		if _, err := g.Read(p, 0, 8); err == nil {
			t.Error("RAID0 read succeeded with failed disk")
		}
	})
}

func TestRebuildRAID5RestoresData(t *testing.T) {
	k := sim.NewKernel(1)
	g := newTestGroup(t, k, RAID5, 5)
	data := fillPattern(512*200, 13)
	run(k, func(p *sim.Proc) {
		g.Write(p, 0, data)
		g.Disks()[2].Fail()
		if _, err := g.StartRebuild(2); err != nil {
			t.Errorf("start rebuild: %v", err)
			return
		}
		if err := g.Rebuild(p, 2, 2); err != nil {
			t.Errorf("rebuild: %v", err)
			return
		}
		if g.Rebuilding(2) {
			t.Error("rebuild did not close")
		}
	})
	// Verify the replacement disk itself now holds correct blocks: read
	// with all *other* data sources failed where possible is overkill;
	// instead verify full-array read and parity consistency.
	k2 := sim.NewKernel(1)
	_ = k2
	run(k, func(p *sim.Proc) {
		got, err := g.Read(p, 0, 200)
		if err != nil {
			t.Errorf("read after rebuild: %v", err)
			return
		}
		if !bytes.Equal(got, data) {
			t.Error("data corrupted by rebuild")
		}
	})
	for s := int64(0); s < 50; s++ {
		pd, _ := g.parityDisks(s)
		var blocks [][]byte
		for _, di := range g.dataDisks(s) {
			blocks = append(blocks, g.Disks()[di].Peek(s))
		}
		if !bytes.Equal(g.Disks()[pd].Peek(s), XORParity(blocks)) {
			t.Fatalf("stripe %d parity wrong after rebuild", s)
		}
	}
}

func TestRebuildRAID1(t *testing.T) {
	k := sim.NewKernel(1)
	g := newTestGroup(t, k, RAID1, 2)
	data := fillPattern(512*100, 21)
	run(k, func(p *sim.Proc) {
		g.Write(p, 0, data)
		g.Disks()[1].Fail()
		g.StartRebuild(1)
		if err := g.Rebuild(p, 1, 1); err != nil {
			t.Errorf("rebuild: %v", err)
			return
		}
		// Kill the original; the rebuilt mirror must serve alone.
		g.Disks()[0].Fail()
		got, err := g.Read(p, 0, 100)
		if err != nil {
			t.Errorf("read from rebuilt mirror: %v", err)
			return
		}
		if !bytes.Equal(got, data) {
			t.Error("rebuilt mirror has wrong data")
		}
	})
}

func TestRebuildServesIOConcurrently(t *testing.T) {
	// Reads and writes issued during a rebuild must return correct data.
	k := sim.NewKernel(1)
	g := newTestGroup(t, k, RAID5, 5)
	before := fillPattern(512*400, 3)
	var rebuildErr error
	run(k, func(p *sim.Proc) {
		g.Write(p, 0, before)
		g.Disks()[1].Fail()
		g.StartRebuild(1)
		grp := sim.NewGroup(k)
		grp.Add(1)
		k.Go("rebuilder", func(q *sim.Proc) {
			defer grp.Done()
			rebuildErr = g.Rebuild(q, 1, 1)
		})
		// Foreground traffic during rebuild, overlapping rebuilt regions.
		during := fillPattern(512*50, 99)
		if err := g.Write(p, 100, during); err != nil {
			t.Errorf("write during rebuild: %v", err)
		}
		got, err := g.Read(p, 100, 50)
		if err != nil {
			t.Errorf("read during rebuild: %v", err)
		} else if !bytes.Equal(got, during) {
			t.Error("read during rebuild returned stale data")
		}
		grp.Wait(p)
		// After rebuild, everything must be consistent.
		final, err := g.Read(p, 0, 400)
		if err != nil {
			t.Errorf("final read: %v", err)
			return
		}
		want := append([]byte(nil), before...)
		copy(want[100*512:], during)
		if !bytes.Equal(final, want) {
			t.Error("post-rebuild content mismatch")
		}
	})
	if rebuildErr != nil {
		t.Fatalf("rebuild: %v", rebuildErr)
	}
}

func TestRebuildMoreWorkersIsFaster(t *testing.T) {
	elapsed := func(workers int) sim.Duration {
		k := sim.NewKernel(1)
		g := newTestGroup(nil, k, RAID5, 5)
		var dur sim.Duration
		run(k, func(p *sim.Proc) {
			g.Write(p, 0, fillPattern(512*512, 1))
			g.Disks()[0].Fail()
			g.StartRebuild(0)
			t0 := p.Now()
			g.Rebuild(p, 0, workers)
			dur = p.Now().Sub(t0)
		})
		return dur
	}
	one := elapsed(1)
	four := elapsed(4)
	if four >= one {
		t.Fatalf("4 workers (%v) not faster than 1 (%v)", four, one)
	}
}

// Property: random writes at random offsets always read back exactly, for
// every level, including after a random single-disk failure.
func TestRandomIOWithFailureProperty(t *testing.T) {
	f := func(seed int64, levelRaw, failRaw uint8, ops []uint16) bool {
		levels := []Level{RAID1, RAID5, RAID6}
		level := levels[int(levelRaw)%len(levels)]
		k := sim.NewKernel(seed)
		farm := disk.NewFarm(k, "d", 6, smallSpec())
		g, err := NewGroup(k, level, farm.Disks)
		if err != nil {
			return false
		}
		shadow := make(map[int64]byte) // logical block → seed byte
		okRes := true
		run(k, func(p *sim.Proc) {
			for i, op := range ops {
				if i > 12 {
					break
				}
				lba := int64(op) % (g.Capacity() - 4)
				val := byte(op >> 8)
				blk := bytes.Repeat([]byte{val}, 512*2)
				if err := g.Write(p, lba, blk); err != nil {
					okRes = false
					return
				}
				shadow[lba] = val
				shadow[lba+1] = val
			}
			g.Disks()[int(failRaw)%6].Fail()
			for lba, val := range shadow {
				got, err := g.Read(p, lba, 1)
				if err != nil {
					okRes = false
					return
				}
				for _, b := range got {
					if b != val {
						okRes = false
						return
					}
				}
			}
		})
		return okRes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelReadFasterThanSerial(t *testing.T) {
	// A large RAID0 read across 4 disks should take ~1/4 the media time of
	// a single disk — the multi-spindle bandwidth claim.
	k := sim.NewKernel(1)
	g := newTestGroup(t, k, RAID0, 4)
	single := disk.New(k, "solo", smallSpec())
	const blocks = 1024
	var striped, solo sim.Duration
	run(k, func(p *sim.Proc) {
		t0 := p.Now()
		if _, err := g.Read(p, 0, blocks); err != nil {
			t.Errorf("striped read: %v", err)
		}
		striped = p.Now().Sub(t0)
		t1 := p.Now()
		if _, err := single.Read(p, 0, blocks); err != nil {
			t.Errorf("solo read: %v", err)
		}
		solo = p.Now().Sub(t1)
	})
	// Transfer time parallelizes 4×; the per-disk seek does not, so expect
	// clearly >2× overall.
	if striped*2 > solo {
		t.Fatalf("striped %v not >2× faster than solo %v", striped, solo)
	}
}

func TestScrubDetectsAndRepairsCorruption(t *testing.T) {
	k := sim.NewKernel(1)
	g := newTestGroup(t, k, RAID5, 5)
	data := fillPattern(512*40, 3)
	run(k, func(p *sim.Proc) {
		g.Write(p, 0, data)
		// Latent corruption: flip a parity block behind the array's back.
		pd, _ := g.parityDisks(3)
		g.Disks()[pd].CorruptBlock(3, fillPattern(512, 0xEE))
		bad, err := g.ScrubRange(p, 0, 20)
		if err != nil {
			t.Errorf("scrub: %v", err)
			return
		}
		if bad != 1 {
			t.Errorf("scrub found %d bad stripes, want 1", bad)
		}
		// Second pass: clean.
		bad, err = g.ScrubRange(p, 0, 20)
		if err != nil || bad != 0 {
			t.Errorf("re-scrub: bad=%d err=%v", bad, err)
		}
		// The repaired parity must reconstruct data after a disk loss.
		g.Disks()[1].Fail()
		got, err := g.Read(p, 0, 40)
		if err != nil {
			t.Errorf("degraded read after repair: %v", err)
			return
		}
		if !bytes.Equal(got, data) {
			t.Error("repaired parity reconstructed wrong data")
		}
	})
}

func TestScrubCleanGroupFindsNothing(t *testing.T) {
	k := sim.NewKernel(1)
	g := newTestGroup(t, k, RAID6, 6)
	run(k, func(p *sim.Proc) {
		g.Write(p, 0, fillPattern(512*64, 5))
		bad, err := g.ScrubRange(p, 0, g.Stripes())
		if err != nil || bad != 0 {
			t.Errorf("clean scrub: bad=%d err=%v", bad, err)
		}
	})
}

// Two small writes to different blocks of one stripe row, in flight together,
// must both reach the row's parity: each is a read-modify-write of it.
func TestConcurrentSmallWritesKeepParity(t *testing.T) {
	for _, level := range []Level{RAID5, RAID6} {
		k := sim.NewKernel(1)
		g := newTestGroup(t, k, level, 6)
		row := fillPattern(512*g.dataPerStripe(), 1)
		run(k, func(p *sim.Proc) {
			if err := g.Write(p, 0, row); err != nil {
				t.Fatal(err)
			}
			grp := sim.NewGroup(k)
			for i := 0; i < 2; i++ {
				block := fillPattern(512, byte(40+i))
				copy(row[i*512:], block)
				grp.Add(1)
				k.Go("writer", func(q *sim.Proc) {
					defer grp.Done()
					if err := g.Write(q, int64(i), block); err != nil {
						t.Error(err)
					}
				})
			}
			grp.Wait(p)
			if bad, err := g.ScrubRange(p, 0, 1); err != nil || bad != 0 {
				t.Errorf("%v: scrub after two concurrent small writes: %d inconsistent rows, err %v", level, bad, err)
			}
			if len(g.rowLocks) != 0 {
				t.Errorf("%v: %d row lock records left with no writer in flight", level, len(g.rowLocks))
			}
			// What the parity is for: the row reads back right without a disk.
			g.Disks()[g.dataDisks(0)[0]].Fail()
			got, err := g.Read(p, 0, g.dataPerStripe())
			if err != nil || !bytes.Equal(got, row) {
				t.Errorf("%v: degraded read of the row: err %v, content match %v", level, err, bytes.Equal(got, row))
			}
		})
	}
}

// A scrub that finds a row's parity corrupt while a small write to the row
// is in flight must repair the row as it is once that write has landed, not
// as the scrub first read it: parity recomputed from the old data and
// written behind the writer's would be wrong for the new.
func TestScrubRepairRacesSmallWrite(t *testing.T) {
	k := sim.NewKernel(1)
	g := newTestGroup(t, k, RAID5, 6)
	row := fillPattern(512*5, 1)
	run(k, func(p *sim.Proc) {
		g.Write(p, 0, row)
		pd, _ := g.parityDisks(0)
		g.Disks()[pd].CorruptBlock(0, fillPattern(512, 0xEE))
		block := fillPattern(512, 77)
		copy(row[512:], block)
		grp := sim.NewGroup(k)
		grp.Add(1)
		k.Go("writer", func(q *sim.Proc) {
			defer grp.Done()
			g.Write(q, 1, block)
		})
		// The scrub's reads queue behind the writer's reads of old data and
		// parity and ahead of its writes: the scrub sees the row as it was.
		p.Sleep(sim.Millisecond)
		if bad, err := g.ScrubRange(p, 0, 1); err != nil || bad != 1 {
			t.Errorf("scrub of the corrupt row: %d inconsistent rows, err %v, want 1", bad, err)
		}
		grp.Wait(p)
		if bad, err := g.ScrubRange(p, 0, 1); err != nil || bad != 0 {
			t.Errorf("scrub after the repair and the write: %d inconsistent rows, err %v", bad, err)
		}
		g.Disks()[g.dataDisks(0)[1]].Fail()
		got, err := g.Read(p, 0, 5)
		if err != nil || !bytes.Equal(got, row) {
			t.Errorf("degraded read of the row: err %v, content match %v", err, bytes.Equal(got, row))
		}
	})
}
