package baseline

import (
	"bytes"
	"testing"

	"repro/internal/disk"
	"repro/internal/sim"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.DiskSpec = disk.Spec{
		BlockSize:   512,
		Blocks:      4096,
		Seek:        2 * sim.Millisecond,
		Rotation:    sim.Millisecond,
		TransferBps: 400_000_000,
	}
	cfg.Disks = 10
	cfg.DisksPerGroup = 5
	cfg.ExtentBlocks = 16
	cfg.CacheBlocksPerController = 256
	return cfg
}

func newArray(t *testing.T, mutate func(*Config)) (*Array, *sim.Kernel) {
	t.Helper()
	k := sim.NewKernel(1)
	cfg := smallConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	a, err := New(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a, k
}

func run(k *sim.Kernel, body func(p *sim.Proc)) {
	done := false
	k.Go("test", func(p *sim.Proc) { body(p); done = true })
	k.RunFor(60 * sim.Second)
	if !done {
		panic("baseline test did not finish")
	}
}

func pat(n int, seed byte) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i)*17 + seed
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	a, k := newArray(t, nil)
	defer a.Stop()
	if err := a.CreateVolume("v", 256); err != nil {
		t.Fatal(err)
	}
	data := pat(512*8, 1)
	run(k, func(p *sim.Proc) {
		if err := a.Write(p, "v", 0, data); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		got, err := a.Read(p, "v", 0, 8)
		if err != nil {
			t.Errorf("read: %v", err)
			return
		}
		if !bytes.Equal(got, data) {
			t.Error("round trip mismatch")
		}
	})
}

func TestStaticOwnershipConcentratesLoad(t *testing.T) {
	// The §2 hot-spot defect: all traffic to one volume lands on one
	// controller regardless of load.
	a, k := newArray(t, nil)
	defer a.Stop()
	a.CreateVolume("hot", 256)
	a.SetOwner("hot", 0)
	run(k, func(p *sim.Proc) {
		for i := 0; i < 64; i++ {
			a.Read(p, "hot", int64(i%32), 1)
		}
	})
	ops := a.ControllerOps()
	if ops[0] != 64 || ops[1] != 0 {
		t.Fatalf("ops = %v, want all 64 on controller 0", ops)
	}
}

func TestCacheHitsServeFromController(t *testing.T) {
	a, k := newArray(t, nil)
	defer a.Stop()
	a.CreateVolume("v", 256)
	var cold, warm sim.Duration
	run(k, func(p *sim.Proc) {
		a.Write(p, "v", 0, pat(512, 1))
		t0 := p.Now()
		a.Read(p, "v", 0, 1)
		cold = p.Now().Sub(t0) // may hit cache (write-back) — measure anyway
		t1 := p.Now()
		a.Read(p, "v", 0, 1)
		warm = p.Now().Sub(t1)
	})
	if warm > cold {
		t.Fatalf("warm read %v slower than first read %v", warm, cold)
	}
	if warm > sim.Millisecond {
		t.Fatalf("cache hit took %v; should be CPU-bound microseconds", warm)
	}
}
