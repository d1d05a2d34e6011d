package virt

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/disk"
	"repro/internal/raid"
	"repro/internal/sim"
)

// memDev is an instant in-memory BlockDevice for unit tests.
type memDev struct {
	blockSize int
	blocks    int64
	data      map[int64][]byte
}

func newMemDev(blocks int64) *memDev {
	return &memDev{blockSize: 512, blocks: blocks, data: make(map[int64][]byte)}
}

func (m *memDev) BlockSize() int  { return m.blockSize }
func (m *memDev) Capacity() int64 { return m.blocks }

func (m *memDev) ReadInto(p *sim.Proc, lba int64, dst []byte) error {
	count := len(dst) / m.blockSize
	if lba < 0 || lba+int64(count) > m.blocks {
		return fmt.Errorf("memdev: out of range")
	}
	for i := 0; i < count; i++ {
		blk := dst[i*m.blockSize : (i+1)*m.blockSize]
		clear(blk)
		copy(blk, m.data[lba+int64(i)])
	}
	return nil
}

func (m *memDev) Write(p *sim.Proc, lba int64, data []byte) error {
	if len(data)%m.blockSize != 0 {
		return fmt.Errorf("memdev: unaligned")
	}
	count := len(data) / m.blockSize
	if lba < 0 || lba+int64(count) > m.blocks {
		return fmt.Errorf("memdev: out of range")
	}
	for i := 0; i < count; i++ {
		b := make([]byte, m.blockSize)
		copy(b, data[i*m.blockSize:])
		m.data[lba+int64(i)] = b
	}
	return nil
}

func newTestPool(t *testing.T, k *sim.Kernel, devBlocks int64, nDev int) *Pool {
	t.Helper()
	devs := make([]BlockDevice, nDev)
	for i := range devs {
		devs[i] = newMemDev(devBlocks)
	}
	pl, err := NewPool(k, 8, devs...) // 8-block extents
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func run(k *sim.Kernel, body func(p *sim.Proc)) {
	k.Go("test", body)
	k.Run()
}

func pattern(n int, seed byte) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i)*13 + seed
	}
	return out
}

func TestPoolGeometry(t *testing.T) {
	k := sim.NewKernel(1)
	pl := newTestPool(t, k, 64, 2) // 2 devices × 8 extents
	if pl.TotalExtents() != 16 {
		t.Fatalf("total extents = %d, want 16", pl.TotalExtents())
	}
	if pl.ExtentBytes() != 8*512 {
		t.Fatalf("extent bytes = %d", pl.ExtentBytes())
	}
	if pl.FreeExtents() != 16 || pl.AllocatedExtents() != 0 {
		t.Fatal("fresh pool not empty")
	}
}

func TestThickVolumeAllocatesUpFront(t *testing.T) {
	k := sim.NewKernel(1)
	pl := newTestPool(t, k, 64, 2)
	v, err := pl.CreateVolume("vol", 20) // 20 blocks → 3 extents
	if err != nil {
		t.Fatal(err)
	}
	if v.MappedExtents() != 3 {
		t.Fatalf("mapped = %d, want 3", v.MappedExtents())
	}
	if pl.AllocatedExtents() != 3 {
		t.Fatalf("pool allocated = %d, want 3", pl.AllocatedExtents())
	}
}

func TestThickVolumeExhaustsPool(t *testing.T) {
	k := sim.NewKernel(1)
	pl := newTestPool(t, k, 64, 2)
	if _, err := pl.CreateVolume("big", 16*8+1); !errors.Is(err, ErrPoolExhausted) {
		t.Fatalf("err = %v, want ErrPoolExhausted", err)
	}
}

func TestDMSDAllocatesOnWriteOnly(t *testing.T) {
	k := sim.NewKernel(1)
	pl := newTestPool(t, k, 64, 2)
	v, err := pl.CreateDMSD("thin", 1000) // virtual: 1000 extents ≫ pool
	if err != nil {
		t.Fatal(err)
	}
	if v.MappedExtents() != 0 {
		t.Fatal("DMSD allocated at creation")
	}
	run(k, func(p *sim.Proc) {
		// Read of unwritten space: zeros, no allocation.
		got, err := v.Read(p, 5000, 4)
		if err != nil {
			t.Errorf("read: %v", err)
		}
		for _, b := range got {
			if b != 0 {
				t.Error("unwritten DMSD read nonzero")
			}
		}
		if v.MappedExtents() != 0 {
			t.Error("read caused allocation")
		}
		// One-block write allocates exactly one extent.
		if err := v.Write(p, 770, pattern(512, 1)); err != nil {
			t.Errorf("write: %v", err)
		}
		if v.MappedExtents() != 1 {
			t.Errorf("mapped = %d after 1-block write, want 1", v.MappedExtents())
		}
	})
}

func TestDMSDRoundTripAndZeroFill(t *testing.T) {
	k := sim.NewKernel(1)
	pl := newTestPool(t, k, 64, 2)
	v, _ := pl.CreateDMSD("thin", 100)
	data := pattern(512*3, 7)
	run(k, func(p *sim.Proc) {
		if err := v.Write(p, 10, data); err != nil {
			t.Errorf("write: %v", err)
		}
		got, err := v.Read(p, 10, 3)
		if err != nil {
			t.Errorf("read: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Error("round trip mismatch")
		}
		// Neighbors within the same freshly allocated extent must be zero.
		zb, _ := v.Read(p, 8, 2)
		for _, b := range zb {
			if b != 0 {
				t.Error("fresh extent neighbors not zeroed")
			}
		}
	})
}

func TestDMSDWriteSpanningExtents(t *testing.T) {
	k := sim.NewKernel(1)
	pl := newTestPool(t, k, 64, 2)
	v, _ := pl.CreateDMSD("thin", 100)
	data := pattern(512*20, 3) // 20 blocks across 3+ extents
	run(k, func(p *sim.Proc) {
		if err := v.Write(p, 5, data); err != nil {
			t.Errorf("write: %v", err)
		}
		got, err := v.Read(p, 5, 20)
		if err != nil {
			t.Errorf("read: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Error("spanning write mismatch")
		}
	})
	if v.MappedExtents() != 4 { // blocks 5..24 cover extents 0..3
		t.Fatalf("mapped = %d, want 4", v.MappedExtents())
	}
}

func TestTrimFreesExtents(t *testing.T) {
	k := sim.NewKernel(1)
	pl := newTestPool(t, k, 64, 2)
	v, _ := pl.CreateDMSD("thin", 100)
	run(k, func(p *sim.Proc) {
		v.Write(p, 0, pattern(512*24, 1)) // extents 0,1,2
	})
	freeBefore := pl.FreeExtents()
	// Trim covering extent 1 fully, extents 0/2 partially.
	if err := v.Trim(6, 12); err != nil {
		t.Fatal(err)
	}
	if v.MappedExtents() != 2 {
		t.Fatalf("mapped = %d after trim, want 2", v.MappedExtents())
	}
	if pl.FreeExtents() != freeBefore+1 {
		t.Fatalf("free = %d, want %d", pl.FreeExtents(), freeBefore+1)
	}
	// Trimmed range reads as zeros after being freed and rewritten flow.
	run(k, func(p *sim.Proc) {
		got, _ := v.Read(p, 8, 8)
		for _, b := range got {
			if b != 0 {
				t.Error("trimmed extent not zero on read")
			}
		}
	})
}

func TestDMSDYottabyteVirtualSize(t *testing.T) {
	// §3: DMSDs "up to 1.5 yottabytes". At the production extent size of
	// 1 MiB that is ~1.4×10¹⁸ extents — representable in an int64 extent
	// count, with zero physical allocation until written.
	k := sim.NewKernel(1)
	pl := newTestPool(t, k, 64, 2)
	const extents15YB = int64(1.5e24 / (1 << 20))
	v, err := pl.CreateDMSD("yotta", extents15YB)
	if err != nil {
		t.Fatal(err)
	}
	if v.VirtExtents() != extents15YB {
		t.Fatal("virtual size mismatch")
	}
	if v.MappedExtents() != 0 || pl.AllocatedExtents() != 0 {
		t.Fatal("yottabyte DMSD consumed physical space at creation")
	}
}

func TestSlackAmortization(t *testing.T) {
	// The E5 claim in miniature: many over-provisioned DMSDs fit in a pool
	// that could hold only a few thick volumes of the same nominal size.
	k := sim.NewKernel(1)
	pl := newTestPool(t, k, 512, 4) // 4 devs × 64 extents = 256 extents
	// Thick: 256/64 = 4 volumes of 64 extents fit.
	for i := 0; i < 4; i++ {
		if _, err := pl.CreateVolume(fmt.Sprintf("thick%d", i), 64*8); err != nil {
			t.Fatalf("thick%d: %v", i, err)
		}
	}
	if _, err := pl.CreateVolume("thick4", 64*8); err == nil {
		t.Fatal("5th thick volume fit; pool accounting broken")
	}
	for i := 0; i < 4; i++ {
		pl.Delete(fmt.Sprintf("thick%d", i))
	}
	// Thin: 32 DMSDs of the same nominal size coexist while actual usage
	// is low.
	for i := 0; i < 32; i++ {
		v, err := pl.CreateDMSD(fmt.Sprintf("thin%d", i), 64)
		if err != nil {
			t.Fatalf("thin%d: %v", i, err)
		}
		run(k, func(p *sim.Proc) {
			v.Write(p, 0, pattern(512*8, byte(i))) // 1 extent actually used
		})
	}
	if pl.AllocatedExtents() != 32 {
		t.Fatalf("allocated = %d, want 32", pl.AllocatedExtents())
	}
}

func TestSnapshotCOW(t *testing.T) {
	k := sim.NewKernel(1)
	pl := newTestPool(t, k, 64, 2)
	v, _ := pl.CreateDMSD("base", 100)
	orig := pattern(512*8, 11)
	run(k, func(p *sim.Proc) {
		v.Write(p, 0, orig)
	})
	snap, err := v.SnapshotAs("snap1")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Kind() != Snapshot {
		t.Fatal("wrong kind")
	}
	newData := pattern(512*2, 99)
	run(k, func(p *sim.Proc) {
		// Overwrite part of the shared extent: must COW.
		if err := v.Write(p, 2, newData); err != nil {
			t.Errorf("write after snapshot: %v", err)
		}
		// Snapshot still sees the original.
		got, err := snap.Read(p, 0, 8)
		if err != nil {
			t.Errorf("snapshot read: %v", err)
		}
		if !bytes.Equal(got, orig) {
			t.Error("snapshot changed after source write")
		}
		// Source sees the merge.
		got2, _ := v.Read(p, 0, 8)
		want := append([]byte(nil), orig...)
		copy(want[2*512:], newData)
		if !bytes.Equal(got2, want) {
			t.Error("source data wrong after COW")
		}
	})
	if pl.AllocatedExtents() != 2 {
		t.Fatalf("allocated = %d after COW, want 2 (old+new)", pl.AllocatedExtents())
	}
}

func TestSnapshotIsReadOnly(t *testing.T) {
	k := sim.NewKernel(1)
	pl := newTestPool(t, k, 64, 2)
	v, _ := pl.CreateDMSD("base", 100)
	snap, _ := v.SnapshotAs("s")
	run(k, func(p *sim.Proc) {
		if err := snap.Write(p, 0, pattern(512, 1)); !errors.Is(err, ErrReadOnly) {
			t.Errorf("err = %v, want ErrReadOnly", err)
		}
	})
}

func TestDeleteSnapshotFreesSharedExtents(t *testing.T) {
	k := sim.NewKernel(1)
	pl := newTestPool(t, k, 64, 2)
	v, _ := pl.CreateDMSD("base", 100)
	run(k, func(p *sim.Proc) { v.Write(p, 0, pattern(512*8, 2)) })
	v.SnapshotAs("s")
	pl.Delete("base")
	if pl.AllocatedExtents() != 1 {
		t.Fatalf("allocated = %d with snapshot alive, want 1", pl.AllocatedExtents())
	}
	pl.Delete("s")
	if pl.AllocatedExtents() != 0 {
		t.Fatalf("allocated = %d after both deleted, want 0", pl.AllocatedExtents())
	}
}

func TestResize(t *testing.T) {
	k := sim.NewKernel(1)
	pl := newTestPool(t, k, 64, 2)
	thick, _ := pl.CreateVolume("thick", 16) // 2 extents
	if err := thick.Resize(4); err != nil {
		t.Fatal(err)
	}
	if thick.MappedExtents() != 4 || pl.AllocatedExtents() != 4 {
		t.Fatal("thick grow did not allocate")
	}
	if err := thick.Resize(1); err != nil {
		t.Fatal(err)
	}
	if pl.AllocatedExtents() != 1 {
		t.Fatal("thick shrink did not free")
	}
	thin, _ := pl.CreateDMSD("thin", 10)
	run(k, func(p *sim.Proc) { thin.Write(p, 9*8, pattern(512, 1)) })
	if err := thin.Resize(5); err != nil {
		t.Fatal(err)
	}
	if thin.MappedExtents() != 0 {
		t.Fatal("DMSD shrink did not drop out-of-range extents")
	}
}

func TestChargeBackCountsAllocations(t *testing.T) {
	k := sim.NewKernel(1)
	pl := newTestPool(t, k, 64, 2)
	v, _ := pl.CreateDMSD("t", 100)
	run(k, func(p *sim.Proc) {
		v.Write(p, 0, pattern(512, 1))
		v.Write(p, 1, pattern(512, 2)) // same extent: no new allocation
		v.Write(p, 8, pattern(512, 3)) // next extent
	})
	if v.Allocations() != 2 {
		t.Fatalf("allocations = %d, want 2", v.Allocations())
	}
}

// Property: for any write pattern, pool accounting stays consistent:
// allocated+free == total, and every written block reads back.
func TestPoolAccountingProperty(t *testing.T) {
	f := func(seed int64, writes []uint16) bool {
		k := sim.NewKernel(seed)
		devs := []BlockDevice{newMemDev(256), newMemDev(256)}
		pl, err := NewPool(k, 8, devs...)
		if err != nil {
			return false
		}
		v, err := pl.CreateDMSD("t", 32)
		if err != nil {
			return false
		}
		shadow := make(map[int64]byte)
		okRes := true
		run(k, func(p *sim.Proc) {
			for i, w := range writes {
				if i >= 16 {
					break
				}
				lba := int64(w) % v.Capacity()
				val := byte(w>>8) | 1
				if err := v.Write(p, lba, bytes.Repeat([]byte{val}, 512)); err != nil {
					okRes = false
					return
				}
				shadow[lba] = val
			}
			for lba, val := range shadow {
				got, err := v.Read(p, lba, 1)
				if err != nil || got[0] != val {
					okRes = false
					return
				}
			}
		})
		if !okRes {
			return false
		}
		return pl.AllocatedExtents()+pl.FreeExtents() == pl.TotalExtents()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestVolumeOverRAIDGroup(t *testing.T) {
	// Integration: pool carved from a real RAID-5 group over simulated
	// disks, surviving a disk failure underneath the virtualization layer.
	k := sim.NewKernel(1)
	spec := disk.Spec{BlockSize: 512, Blocks: 1024, Seek: sim.Millisecond, Rotation: sim.Millisecond, TransferBps: 400_000_000}
	farm := disk.NewFarm(k, "d", 5, spec)
	g, err := raid.NewGroup(k, raid.RAID5, farm.Disks)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := NewPool(k, 16, g)
	if err != nil {
		t.Fatal(err)
	}
	v, err := pl.CreateDMSD("data", 64)
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(512*64, 17)
	run(k, func(p *sim.Proc) {
		if err := v.Write(p, 0, data); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		farm.Disks[2].Fail()
		got, err := v.Read(p, 0, 64)
		if err != nil {
			t.Errorf("read through degraded RAID: %v", err)
			return
		}
		if !bytes.Equal(got, data) {
			t.Error("data mismatch through degraded RAID")
		}
	})
}

func TestDuplicateVolumeName(t *testing.T) {
	k := sim.NewKernel(1)
	pl := newTestPool(t, k, 64, 2)
	pl.CreateDMSD("x", 10)
	if _, err := pl.CreateDMSD("x", 10); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if _, err := pl.CreateVolume("x", 8); err == nil {
		t.Fatal("duplicate name accepted for thick")
	}
}

func TestExtentsInterleaveAcrossDevices(t *testing.T) {
	k := sim.NewKernel(1)
	pl := newTestPool(t, k, 64, 2)
	v, _ := pl.CreateDMSD("t", 100)
	run(k, func(p *sim.Proc) {
		for i := int64(0); i < 4; i++ {
			v.Write(p, i*8, pattern(512, byte(i)))
		}
	})
	devs := make(map[int]int)
	for _, e := range v.mapping {
		devs[e.dev]++
	}
	if len(devs) != 2 {
		t.Fatalf("allocations used %d devices, want 2 (interleaving)", len(devs))
	}
}

// A demand-mapped volume's extents rotate over the devices by address, not
// by the order they were first written in: written tail first, interleaved
// with a second volume, and rewritten after a snapshot, extent i+1 still
// lives one device on from extent i. (Placed in order of arrival, the tail
// extent takes the device the head was due and the rotation has a kink.)
func TestDemandPlacementFollowsAddress(t *testing.T) {
	const nDev, extents = 4, 24
	k := sim.NewKernel(1)
	pl := newTestPool(t, k, 8*64, nDev)
	a, _ := pl.CreateDMSD("a", 100)
	b, _ := pl.CreateDMSD("b", 100)
	rotates := func(v *Volume) {
		t.Helper()
		for i := int64(0); i < extents; i++ {
			if got, want := v.ExtentDevice(i), (v.ExtentDevice(0)+int(i))%nDev; got != want {
				t.Fatalf("%s: extent %d on device %d, want %d", v.Name(), i, got, want)
			}
		}
	}
	run(k, func(p *sim.Proc) {
		first := pl.free[len(pl.free)-1]
		a.Write(p, (extents-1)*8, pattern(512, 1)) // the tail first
		if got := a.mapping[extents-1]; got != first {
			t.Fatalf("first extent placed at %+v, want the pool's next %+v", got, first)
		}
		for i := int64(0); i < extents-1; i++ {
			a.Write(p, i*8, pattern(512, byte(i)))
			b.Write(p, (extents-1-i)*8, pattern(512, byte(i))) // b backwards, between a's
		}
		b.Write(p, 0, pattern(512, 9))
		rotates(a)
		rotates(b)
		if _, err := a.SnapshotAs("s"); err != nil {
			t.Fatal(err)
		}
		for _, i := range []int64{5, 2, 17, 3} { // copy-on-write, out of order
			a.Write(p, i*8, pattern(512, 7))
		}
		rotates(a)
	})
}

// With its device full an extent takes the pool's next free one.
func TestDemandPlacementFallsBackWhenDeviceFull(t *testing.T) {
	k := sim.NewKernel(1)
	pl := newTestPool(t, k, 8*2, 2) // two extents a device
	v, _ := pl.CreateDMSD("v", 100)
	run(k, func(p *sim.Proc) {
		for _, i := range []int64{0, 2, 4, 6} { // all due on one device
			if err := v.Write(p, i*8, pattern(512, byte(i))); err != nil {
				t.Fatalf("extent %d: %v", i, err)
			}
		}
		if err := v.Write(p, 8*8, pattern(512, 8)); !errors.Is(err, ErrPoolExhausted) {
			t.Fatalf("fifth extent in a four-extent pool: %v", err)
		}
	})
	if d0, d2, d4 := v.ExtentDevice(0), v.ExtentDevice(2), v.ExtentDevice(4); d0 != d2 || d4 == d0 {
		t.Fatalf("devices %d %d %d: want the first two together and the third spilled", d0, d2, d4)
	}
}
