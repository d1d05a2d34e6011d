package virt

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/disk"
	"repro/internal/raid"
	"repro/internal/sim"
)

// Property, down the real chain (Volume → raid.Group → disk.Disk): ReadInto
// into a destination full of stale bytes returns what was written and zeros
// for everything else — unmapped DMSD extents, the unwritten part of a
// mapped extent, blocks the sparse disk store never held — and agrees with
// the slice-returning Read. The snapshot keeps its point-in-time content
// while the source copies extents away from it; reads of 1, 5 and 64 blocks
// cross extent (16-block) and stripe-row (4-block) boundaries.
func TestReadIntoMatchesReadProperty(t *testing.T) {
	const (
		extentBlocks = 16
		volExtents   = 40
		volBlocks    = extentBlocks * volExtents
	)
	spec := disk.Spec{BlockSize: 512, Blocks: 1024, Seek: sim.Millisecond, Rotation: sim.Millisecond, TransferBps: 400_000_000}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := sim.NewKernel(seed)
		var devs []BlockDevice
		var groups []*raid.Group
		for i := 0; i < 2; i++ {
			g, err := raid.NewGroup(k, raid.RAID5, disk.NewFarm(k, fmt.Sprintf("g%d-", i), 5, spec).Disks)
			if err != nil {
				t.Fatal(err)
			}
			devs, groups = append(devs, g), append(groups, g)
		}
		pool, err := NewPool(k, extentBlocks, devs...)
		if err != nil {
			t.Fatal(err)
		}
		// Each group's first rebuild chunk ends after 256 rows x 4 data
		// blocks = 64 extents; the ballast takes the first 58 of each.
		if _, err := pool.CreateVolume("ballast", 2*58*extentBlocks); err != nil {
			t.Fatal(err)
		}
		vol, err := pool.CreateDMSD("v", volExtents)
		if err != nil {
			t.Fatal(err)
		}
		bs := vol.BlockSize()
		live := make([]byte, volBlocks*bs) // what vol must read; holes stay zero
		write := func(p *sim.Proc, n int) {
			for i := 0; i < n; i++ {
				count := 1 + rng.Intn(24)
				// Keep to the lower three quarters: the top extents stay unmapped.
				lba := rng.Int63n(volBlocks*3/4 - int64(count))
				data := make([]byte, count*bs)
				rng.Read(data)
				if err := vol.Write(p, lba, data); err != nil {
					t.Fatalf("seed %d: write: %v", seed, err)
				}
				copy(live[lba*int64(bs):], data)
			}
		}
		check := func(p *sim.Proc, v *Volume, want []byte) {
			for _, count := range []int{1, 5, 64} {
				for i := 0; i < 12; i++ {
					lba := rng.Int63n(volBlocks - int64(count))
					dst := bytes.Repeat([]byte{0xFF}, count*bs)
					if err := v.ReadInto(p, lba, dst); err != nil {
						t.Fatalf("seed %d: %s.ReadInto(%d, %d): %v", seed, v.Name(), lba, count, err)
					}
					got, err := v.Read(p, lba, count)
					if err != nil {
						t.Fatalf("seed %d: %s.Read(%d, %d): %v", seed, v.Name(), lba, count, err)
					}
					exp := want[lba*int64(bs) : (lba+int64(count))*int64(bs)]
					if !bytes.Equal(dst, exp) {
						t.Fatalf("seed %d: %s.ReadInto(%d, %d) differs from what was written", seed, v.Name(), lba, count)
					}
					if !bytes.Equal(got, exp) {
						t.Fatalf("seed %d: %s.Read(%d, %d) differs from what was written", seed, v.Name(), lba, count)
					}
				}
			}
		}
		run(k, func(p *sim.Proc) {
			write(p, 12)
			check(p, vol, live)
			snap, err := vol.SnapshotAs("snap")
			if err != nil {
				t.Fatal(err)
			}
			frozen := bytes.Clone(live)
			write(p, 12) // copy-on-write away from the snapshot's extents
			if vol.MappedExtents() == volExtents || snap.MappedExtents() == 0 {
				t.Fatalf("seed %d: no unmapped or no shared extent: the test exercises nothing", seed)
			}
			check(p, vol, live)
			check(p, snap, frozen)

			victim := rng.Intn(5)
			groups[0].Disks()[victim].Fail()
			check(p, vol, live)
			check(p, snap, frozen)
			if _, err := groups[0].StartRebuild(victim); err != nil {
				t.Fatalf("seed %d: start rebuild: %v", seed, err)
			}
			if err := groups[0].RebuildChunk(p, victim, 0); err != nil {
				t.Fatalf("seed %d: rebuild chunk 0: %v", seed, err)
			}
			if !groups[0].Rebuilding(victim) || pool.AllocatedExtents() <= 2*64 {
				t.Fatalf("seed %d: no extent beyond the rebuilt chunk: the test exercises nothing", seed)
			}
			check(p, vol, live)
			check(p, snap, frozen)
		})
		k.Close()
	}
}
