package disk

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/qos"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

func testSpec() Spec {
	return Spec{
		BlockSize:   4096,
		Blocks:      1024,
		Seek:        5 * sim.Millisecond,
		Rotation:    3 * sim.Millisecond,
		TransferBps: 400_000_000,
	}
}

func TestReadUnwrittenIsZero(t *testing.T) {
	k := sim.NewKernel(1)
	d := New(k, "d0", testSpec())
	var buf []byte
	k.Go("t", func(p *sim.Proc) {
		var err error
		buf, err = d.Read(p, 10, 2)
		if err != nil {
			t.Errorf("read: %v", err)
		}
	})
	k.Run()
	if len(buf) != 8192 {
		t.Fatalf("len = %d, want 8192", len(buf))
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("unwritten block not zero")
		}
	}
}

// ReadInto owes nothing to what dst held: stored blocks overwrite it, blocks
// the sparse store never held (or dropped as all-zero) come back zeroed.
func TestReadIntoOverwritesStaleDestination(t *testing.T) {
	k := sim.NewKernel(1)
	d := New(k, "d0", testSpec())
	want := make([]byte, 4*4096)
	copy(want[4096:], bytes.Repeat([]byte{7}, 4096)) // blocks 20, 22, 23 stay holes
	k.Go("t", func(p *sim.Proc) {
		if err := d.Write(p, 21, want[4096:2*4096]); err != nil {
			t.Errorf("write: %v", err)
		}
		dst := bytes.Repeat([]byte{0xFF}, 4*4096)
		if err := d.ReadInto(p, 20, dst); err != nil {
			t.Errorf("ReadInto: %v", err)
		}
		if !bytes.Equal(dst, want) {
			t.Error("ReadInto left stale bytes in a hole or missed the stored block")
		}
		if got, err := d.Read(p, 20, 4); err != nil || !bytes.Equal(got, want) {
			t.Errorf("Read disagrees with ReadInto (err %v)", err)
		}
		if err := d.ReadInto(p, 20, dst[:100]); err == nil {
			t.Error("ReadInto accepted a destination that is not whole blocks")
		}
	})
	k.Run()
}

// A scattered read is one access: one seek, one transfer of every block it
// spans — the ones it discards included — and one count in Stats. Stored
// blocks overwrite their stale destinations, absent ones zero theirs, and
// the blocks of dst no position names keep what they held.
func TestReadScatterIsOneAccess(t *testing.T) {
	k := sim.NewKernel(1)
	spec := testSpec()
	d := New(k, "d0", spec)
	bs := spec.BlockSize
	k.Go("t", func(p *sim.Proc) {
		for _, lba := range []int64{30, 31, 33} { // 32 and 34 stay holes
			if err := d.Write(p, lba, bytes.Repeat([]byte{byte(lba)}, bs)); err != nil {
				t.Errorf("write %d: %v", lba, err)
			}
		}
		if err := d.Write(p, 500, make([]byte, bs)); err != nil { // move the head away
			t.Errorf("write: %v", err)
		}
		before, t0 := d.Stats(), p.Now()
		// Blocks 30..34 into dst blocks 4, -, 0, 2, 5: 31 is read through.
		dst := bytes.Repeat([]byte{0xFF}, 6*bs)
		if err := d.ReadScatter(p, 30, dst, []int{4, -1, 0, 2, 5}); err != nil {
			t.Errorf("ReadScatter: %v", err)
		}
		if took, want := p.Now().Sub(t0), spec.Seek+spec.Rotation+spec.TransferTime(5); took != want {
			t.Errorf("scattered read of 5 blocks took %v, want one seek and 5 transfers = %v", took, want)
		}
		after := d.Stats()
		if after.Reads != before.Reads+1 || after.BytesRead != before.BytesRead+int64(5*bs) {
			t.Errorf("scattered read counted %d reads, %d bytes; want 1 read, %d bytes",
				after.Reads-before.Reads, after.BytesRead-before.BytesRead, 5*bs)
		}
		for i, want := range []byte{0, 0xFF, 33, 0xFF, 30, 0} { // per block of dst
			if !bytes.Equal(dst[i*bs:(i+1)*bs], bytes.Repeat([]byte{want}, bs)) {
				t.Errorf("dst block %d holds %#x, want %#x throughout", i, dst[i*bs], want)
			}
		}
		if err := d.ReadScatter(p, spec.Blocks-2, dst, []int{0, 1, 2}); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("scattered read past the end: %v, want ErrOutOfRange", err)
		}
	})
	k.Run()
}

func TestWriteReadRoundTrip(t *testing.T) {
	k := sim.NewKernel(1)
	d := New(k, "d0", testSpec())
	data := bytes.Repeat([]byte{0xAB}, 4096*3)
	var got []byte
	k.Go("t", func(p *sim.Proc) {
		if err := d.Write(p, 5, data); err != nil {
			t.Errorf("write: %v", err)
		}
		var err error
		got, err = d.Read(p, 5, 3)
		if err != nil {
			t.Errorf("read: %v", err)
		}
	})
	k.Run()
	if !bytes.Equal(got, data) {
		t.Fatal("read data != written data")
	}
}

func TestWriteDoesNotAliasCaller(t *testing.T) {
	k := sim.NewKernel(1)
	d := New(k, "d0", testSpec())
	data := make([]byte, 4096)
	data[0] = 1
	k.Go("t", func(p *sim.Proc) {
		d.Write(p, 0, data)
		data[0] = 99 // mutate caller's buffer after write
		got, _ := d.Read(p, 0, 1)
		if got[0] != 1 {
			t.Error("disk store aliases caller buffer")
		}
	})
	k.Run()
}

func TestSequentialSkipsSeek(t *testing.T) {
	k := sim.NewKernel(1)
	d := New(k, "d0", testSpec())
	var first, second sim.Duration
	k.Go("t", func(p *sim.Proc) {
		t0 := p.Now()
		d.Read(p, 0, 1)
		first = p.Now().Sub(t0)
		t1 := p.Now()
		d.Read(p, 1, 1) // continues at LBA 1: no seek
		second = p.Now().Sub(t1)
	})
	k.Run()
	seekRot := 8 * sim.Millisecond
	if first <= seekRot {
		t.Fatalf("first read %v should include seek+rotation %v", first, seekRot)
	}
	if second >= first {
		t.Fatalf("sequential read %v not faster than seeking read %v", second, first)
	}
	if diff := first - second; diff != seekRot {
		t.Fatalf("seek saving = %v, want %v", diff, seekRot)
	}
}

func TestRandomAccessPaysSeek(t *testing.T) {
	k := sim.NewKernel(1)
	d := New(k, "d0", testSpec())
	var elapsed sim.Duration
	k.Go("t", func(p *sim.Proc) {
		t0 := p.Now()
		d.Read(p, 100, 1)
		d.Read(p, 5, 1) // jump back: seek again
		elapsed = p.Now().Sub(t0)
	})
	k.Run()
	if elapsed < 16*sim.Millisecond {
		t.Fatalf("two random reads took %v, want ≥ 2×(seek+rot) = 16ms", elapsed)
	}
}

func TestFIFOQueueing(t *testing.T) {
	k := sim.NewKernel(1)
	d := New(k, "d0", testSpec())
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		k.Go("t", func(p *sim.Proc) {
			p.Sleep(sim.Duration(i) * sim.Microsecond)
			d.Read(p, int64(i*100), 1)
			order = append(order, i)
		})
	}
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("service order %v, want FIFO", order)
		}
	}
	if d.Stats().QueueMax < 2 {
		t.Fatalf("QueueMax = %d, want ≥2", d.Stats().QueueMax)
	}
}

func TestFailedDiskErrors(t *testing.T) {
	k := sim.NewKernel(1)
	d := New(k, "d0", testSpec())
	d.Fail()
	k.Go("t", func(p *sim.Proc) {
		if _, err := d.Read(p, 0, 1); !errors.Is(err, ErrFailed) {
			t.Errorf("read err = %v, want ErrFailed", err)
		}
		if err := d.Write(p, 0, make([]byte, 4096)); !errors.Is(err, ErrFailed) {
			t.Errorf("write err = %v, want ErrFailed", err)
		}
	})
	k.Run()
}

func TestFailLosesData(t *testing.T) {
	k := sim.NewKernel(1)
	d := New(k, "d0", testSpec())
	k.Go("t", func(p *sim.Proc) {
		d.Write(p, 0, bytes.Repeat([]byte{1}, 4096))
		d.Fail()
		d.Replace()
		got, err := d.Read(p, 0, 1)
		if err != nil {
			t.Errorf("read after replace: %v", err)
		}
		if got[0] != 0 {
			t.Error("replacement drive has old data")
		}
	})
	k.Run()
}

func TestOutOfRange(t *testing.T) {
	k := sim.NewKernel(1)
	d := New(k, "d0", testSpec())
	k.Go("t", func(p *sim.Proc) {
		if _, err := d.Read(p, 1020, 10); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("err = %v, want ErrOutOfRange", err)
		}
		if _, err := d.Read(p, -1, 1); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("negative lba err = %v, want ErrOutOfRange", err)
		}
	})
	k.Run()
}

func TestUnalignedWriteRejected(t *testing.T) {
	k := sim.NewKernel(1)
	d := New(k, "d0", testSpec())
	k.Go("t", func(p *sim.Proc) {
		if err := d.Write(p, 0, make([]byte, 100)); err == nil {
			t.Error("unaligned write accepted")
		}
	})
	k.Run()
}

func TestTransferRateMatchesSpec(t *testing.T) {
	k := sim.NewKernel(1)
	spec := testSpec()
	d := New(k, "d0", spec)
	// Sequential streaming: after the first seek, throughput ≈ media rate.
	const blocks = 256
	var elapsed sim.Duration
	k.Go("t", func(p *sim.Proc) {
		t0 := p.Now()
		d.Read(p, 0, blocks)
		elapsed = p.Now().Sub(t0)
	})
	k.Run()
	bits := float64(blocks * 4096 * 8)
	rate := bits / (elapsed - 8*sim.Millisecond).Seconds()
	if rate < 399e6 || rate > 401e6 {
		t.Fatalf("media rate = %.0f bps, want ~400e6", rate)
	}
}

func TestStatsAccounting(t *testing.T) {
	k := sim.NewKernel(1)
	d := New(k, "d0", testSpec())
	k.Go("t", func(p *sim.Proc) {
		d.Write(p, 0, make([]byte, 4096*2))
		d.Read(p, 0, 2)
	})
	k.Run()
	st := d.Stats()
	if st.Reads != 1 || st.Writes != 1 {
		t.Fatalf("ops = %d/%d, want 1/1", st.Reads, st.Writes)
	}
	if st.BytesRead != 8192 || st.BytesWritten != 8192 {
		t.Fatalf("bytes = %d/%d, want 8192/8192", st.BytesRead, st.BytesWritten)
	}
	if st.Busy <= 0 {
		t.Fatal("busy time not recorded")
	}
}

// Property: any write/read round trip returns exactly the written bytes.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, lbaRaw uint16, blocksRaw uint8) bool {
		spec := testSpec()
		count := int(blocksRaw)%4 + 1
		lba := int64(lbaRaw) % (spec.Blocks - int64(count))
		k := sim.NewKernel(seed)
		d := New(k, "d", spec)
		data := make([]byte, count*spec.BlockSize)
		k.Rand().Read(data)
		okRes := false
		k.Go("t", func(p *sim.Proc) {
			if err := d.Write(p, lba, data); err != nil {
				return
			}
			got, err := d.Read(p, lba, count)
			okRes = err == nil && bytes.Equal(got, data)
		})
		k.Run()
		return okRes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFarm(t *testing.T) {
	k := sim.NewKernel(1)
	f := NewFarm(k, "disk", 8, testSpec())
	if len(f.Disks) != 8 {
		t.Fatalf("farm size = %d", len(f.Disks))
	}
	if f.Disks[3].ID() != "disk3" {
		t.Fatalf("id = %q", f.Disks[3].ID())
	}
	if f.TotalBytes() != 8*1024*4096 {
		t.Fatalf("total = %d", f.TotalBytes())
	}
	f.Disks[2].Fail()
	if got := len(f.Healthy()); got != 7 {
		t.Fatalf("healthy = %d, want 7", got)
	}
}

func TestParallelDisksOverlap(t *testing.T) {
	// Two disks serving one request each should finish in ~one service
	// time, not two — the parallelism the paper's architecture exploits.
	k := sim.NewKernel(1)
	f := NewFarm(k, "d", 2, testSpec())
	g := sim.NewGroup(k)
	var finish sim.Time
	for i := 0; i < 2; i++ {
		i := i
		g.Add(1)
		k.Go("t", func(p *sim.Proc) {
			defer g.Done()
			f.Disks[i].Read(p, 0, 64)
		})
	}
	k.Go("waiter", func(p *sim.Proc) {
		g.Wait(p)
		finish = p.Now()
	})
	k.Run()
	single := 8*sim.Millisecond + sim.Duration(float64(64*4096*8)/400e6*float64(sim.Second))
	if finish.Sub(0) > single+sim.Millisecond {
		t.Fatalf("two parallel disks took %v, want ~%v", finish.Sub(0), single)
	}
}

// TestLaneGauges: the per-lane queue gauges track tagged processes through
// acquire/release — live depth returns to zero, high-water marks record
// the contention peak per lane, telemetry exports both.
func TestLaneGauges(t *testing.T) {
	k := sim.NewKernel(1)
	d := New(k, "d0", testSpec())
	reg := telemetry.NewRegistry()
	d.RegisterTelemetry(reg.Sub("disk/d0"))
	// Three lane-2 readers and two background readers pile up behind the
	// single spindle.
	for i := 0; i < 3; i++ {
		k.Go("fg", func(p *sim.Proc) {
			qos.SetCtx(p, qos.Ctx{Tenant: "t", Lane: 2})
			d.Read(p, 0, 1)
		})
	}
	for i := 0; i < 2; i++ {
		k.Go("bg", func(p *sim.Proc) {
			qos.TagBackground(p)
			d.Read(p, 500, 1)
		})
	}
	k.Run()
	st := d.Stats()
	if st.LaneQueueMax[2] != 3 {
		t.Errorf("lane 2 high-water = %d, want 3", st.LaneQueueMax[2])
	}
	if st.LaneQueueMax[qos.LaneBackground] != 2 {
		t.Errorf("background high-water = %d, want 2", st.LaneQueueMax[qos.LaneBackground])
	}
	for lane, q := range st.LaneQueued {
		if q != 0 {
			t.Errorf("lane %d live depth = %d after drain, want 0", lane, q)
		}
	}
	// Untouched lanes never registered occupancy.
	if st.LaneQueueMax[0] != 0 || st.LaneQueueMax[1] != 0 || st.LaneQueueMax[3] != 0 {
		t.Errorf("idle lanes recorded occupancy: %v", st.LaneQueueMax)
	}
	// And the registry mirrors the same numbers.
	if v, ok := reg.Value("disk/d0/lane/2/queue_max"); !ok || v != 3 {
		t.Errorf("telemetry lane/2/queue_max = %v (ok=%v), want 3", v, ok)
	}
	if v, ok := reg.Value("disk/d0/lane/4/queue_depth"); !ok || v != 0 {
		t.Errorf("telemetry lane/4/queue_depth = %v (ok=%v), want 0", v, ok)
	}
}

// TestLaneGaugesWithScheduler: same accounting when a QoS FairQueue
// replaces the FIFO gate.
func TestLaneGaugesWithScheduler(t *testing.T) {
	k := sim.NewKernel(1)
	d := New(k, "d0", testSpec())
	m := qos.NewManager(k, qos.Config{})
	d.SetScheduler(m.NewFairQueue(1))
	m.SetEnabled(true)
	for i := 0; i < 4; i++ {
		lane := i % 2 // lanes 0 and 1
		k.Go("op", func(p *sim.Proc) {
			qos.SetCtx(p, qos.Ctx{Lane: lane})
			d.Read(p, int64(lane)*100, 1)
		})
	}
	k.Run()
	st := d.Stats()
	if st.LaneQueueMax[0] != 2 || st.LaneQueueMax[1] != 2 {
		t.Errorf("lane high-water = %v, want 2/2 on lanes 0,1", st.LaneQueueMax)
	}
	if st.Reads != 4 {
		t.Errorf("reads = %d, want 4", st.Reads)
	}
}
