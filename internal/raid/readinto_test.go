package raid

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/disk"
	"repro/internal/sim"
)

// Property: ReadInto into a destination full of stale bytes returns exactly
// what was written, zeros where nothing was, and what the slice-returning
// Read returns — at every level, healthy, with a member failed and halfway
// through a rebuild, for reads of 1, 5 and 64 blocks that cross stripe rows
// and both kinds of rebuild-chunk boundary (into and out of the chunks the
// replacement cannot serve yet). A layer that fills only the blocks it found
// (as a freshly made buffer allowed) fails on the first hole.
//
// A multi-row read is one I/O per member disk: the disk scatters its data
// blocks over the destination and reads through the parity rows between
// them. So the property also holds the I/O count of a healthy group to its
// width, the bytes around the destination to what they were (a block read
// through must land nowhere), and a replacement disk to the rows it has
// rebuilt (a bridge must not read through rows the disk cannot serve).
func TestReadIntoMatchesReadProperty(t *testing.T) {
	spec := smallSpec()
	spec.Blocks = 4 * RebuildChunkStripes // four rebuild chunks per member
	spec.Seek = 5 * sim.Millisecond       // reading through a whole chunk is cheaper than a seek
	if !spec.ReadThrough(int(RebuildChunkStripes)) {
		t.Fatal("the disk would not read through a rebuild chunk: the test exercises no long bridge")
	}
	shapes := []struct {
		level Level
		disks int
	}{{RAID0, 4}, {RAID1, 3}, {RAID5, 5}, {RAID6, 6}}
	for seed := int64(1); seed <= 20; seed++ {
		for _, shape := range shapes {
			for _, state := range []string{"healthy", "failed", "rebuilding"} {
				if shape.level == RAID0 && state != "healthy" {
					continue // no redundancy to read through
				}
				name := fmt.Sprintf("seed%d/%v/%s", seed, shape.level, state)
				rng := rand.New(rand.NewSource(seed))
				k := sim.NewKernel(seed)
				g, err := NewGroup(k, shape.level, disk.NewFarm(k, "d", shape.disks, spec).Disks)
				if err != nil {
					t.Fatal(err)
				}
				bs := g.BlockSize()
				shadow := make([]byte, g.Capacity()*int64(bs)) // holes stay zero
				run(k, func(p *sim.Proc) {
					for i := 0; i < 24; i++ {
						n := 1 + rng.Intn(80)
						lba := rng.Int63n(g.Capacity() - int64(n))
						data := make([]byte, n*bs)
						rng.Read(data)
						if err := g.Write(p, lba, data); err != nil {
							t.Fatalf("%s: write: %v", name, err)
						}
						copy(shadow[lba*int64(bs):], data)
					}
					victim := -1
					if state != "healthy" {
						victim = rng.Intn(shape.disks)
						g.Disks()[victim].Fail()
						if state == "rebuilding" {
							if _, err := g.StartRebuild(victim); err != nil {
								t.Fatalf("%s: start rebuild: %v", name, err)
							}
							for _, c := range []int64{0, 2} { // chunks 1 and 3 stay unavailable
								if err := g.RebuildChunk(p, victim, c); err != nil {
									t.Fatalf("%s: rebuild chunk %d: %v", name, c, err)
								}
							}
						}
					}
					reads := func() (n int64) {
						for _, d := range g.Disks() {
							n += d.Stats().Reads
						}
						return n
					}
					dps := int64(g.dataPerStripe())
					check := func(lba int64, count int) {
						// The destination sits between two guard blocks.
						buf := bytes.Repeat([]byte{0xFF}, (count+2)*bs)
						dst := buf[bs : (count+1)*bs]
						var victimBytes int64
						if victim >= 0 {
							victimBytes = g.Disks()[victim].Stats().BytesRead
						}
						ios := reads()
						if err := g.ReadInto(p, lba, dst); err != nil {
							t.Fatalf("%s: ReadInto(%d, %d): %v", name, lba, count, err)
						}
						ios = reads() - ios
						if width := int64(shape.disks); state == "healthy" && (ios > width || shape.level == RAID1 && ios != 1) {
							t.Fatalf("%s: ReadInto(%d, %d) took %d disk I/Os on %d disks", name, lba, count, ios, width)
						}
						if state == "rebuilding" {
							// The replacement may be read only in rows of
							// chunks 0 and 2, the ones rebuilt.
							var servable int64
							for r := lba / dps; r <= (lba+int64(count)-1)/dps; r++ {
								if c := r / RebuildChunkStripes; c == 0 || c == 2 {
									servable++
								}
							}
							if got := g.Disks()[victim].Stats().BytesRead - victimBytes; got > servable*int64(bs) {
								t.Fatalf("%s: ReadInto(%d, %d) read %d bytes of the replacement disk, which can serve %d rows",
									name, lba, count, got, servable)
							}
						}
						got, err := g.Read(p, lba, count)
						if err != nil {
							t.Fatalf("%s: Read(%d, %d): %v", name, lba, count, err)
						}
						want := shadow[lba*int64(bs) : (lba+int64(count))*int64(bs)]
						if !bytes.Equal(dst, want) {
							t.Fatalf("%s: ReadInto(%d, %d) differs from what was written", name, lba, count)
						}
						if !bytes.Equal(got, want) {
							t.Fatalf("%s: Read(%d, %d) differs from what was written", name, lba, count)
						}
						if g := bytes.Repeat([]byte{0xFF}, bs); !bytes.Equal(buf[:bs], g) || !bytes.Equal(buf[(count+1)*bs:], g) {
							t.Fatalf("%s: ReadInto(%d, %d) wrote outside its destination", name, lba, count)
						}
					}
					for _, count := range []int{1, 5, 64} {
						for i := 0; i < 10; i++ {
							lba := rng.Int63n(g.Capacity() - int64(count))
							switch i {
							case 0: // straddle the boundary into the unavailable chunk 1
								lba = RebuildChunkStripes*dps - int64(count)/2
							case 1: // and the one out of it, into chunk 2
								lba = 2*RebuildChunkStripes*dps - int64(count)/2
							}
							check(lba, count)
						}
					}
					// One read over all of chunk 1 and into both neighbours: the
					// replacement's rows in chunks 0 and 2 are wanted, cheap to
					// bridge by the disk's cost model, and 256 unservable rows apart.
					check((RebuildChunkStripes-20)*dps, int(RebuildChunkStripes+40)*int(dps))
				})
				k.Close()
			}
		}
	}
}

// A degraded multi-stripe read reconstructs one stripe per proc, and the
// order the procs spawn in is the order they queue at the surviving disks —
// where it decides which reads continue the previous one and skip the seek.
// It must not be Go's map order: the same read on a fresh kernel completes
// at the same instant and leaves every disk the same counters, every time.
func TestDegradedRunReadDeterministic(t *testing.T) {
	type outcome struct {
		done  sim.Time
		stats []disk.Stats
	}
	once := func() outcome {
		k := sim.NewKernel(1)
		defer k.Close()
		g := newTestGroup(t, k, RAID5, 6)
		bs := g.BlockSize()
		var o outcome
		run(k, func(p *sim.Proc) {
			if err := g.Write(p, 0, fillPattern(128*bs, 3)); err != nil {
				t.Fatalf("write: %v", err)
			}
			g.Disks()[2].Fail()
			if err := g.ReadInto(p, 7, make([]byte, 64*bs)); err != nil {
				t.Fatalf("degraded read: %v", err)
			}
			o.done = p.Now()
		})
		for _, d := range g.Disks() {
			o.stats = append(o.stats, d.Stats())
		}
		return o
	}
	first := once()
	for i := 1; i < 24; i++ {
		if again := once(); !reflect.DeepEqual(again, first) {
			t.Fatalf("run %d of the same degraded 64-block read differs:\n first %+v\n again %+v", i, first, again)
		}
	}
}
