package raid

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/disk"
	"repro/internal/sim"
)

// Property: ReadInto into a destination full of stale bytes returns exactly
// what was written, zeros where nothing was, and what the slice-returning
// Read returns — at every level, healthy, with a member failed and halfway
// through a rebuild, for reads of 1, 5 and 64 blocks that cross stripe rows
// and rebuild-chunk boundaries. A layer that fills only the blocks it found
// (as a freshly made buffer allowed) fails on the first hole.
func TestReadIntoMatchesReadProperty(t *testing.T) {
	spec := smallSpec()
	spec.Blocks = 4 * RebuildChunkStripes // four rebuild chunks per member
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
					if state != "healthy" {
						victim := rng.Intn(shape.disks)
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
					for _, count := range []int{1, 5, 64} {
						for i := 0; i < 10; i++ {
							lba := rng.Int63n(g.Capacity() - int64(count))
							if i == 0 {
								// Straddle the first rebuild-chunk boundary.
								lba = RebuildChunkStripes*int64(g.dataPerStripe()) - int64(count)/2
							}
							dst := bytes.Repeat([]byte{0xFF}, count*bs)
							if err := g.ReadInto(p, lba, dst); err != nil {
								t.Fatalf("%s: ReadInto(%d, %d): %v", name, lba, count, err)
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
						}
					}
				})
				k.Close()
			}
		}
	}
}
