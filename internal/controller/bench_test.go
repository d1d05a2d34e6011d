package controller

import (
	"testing"

	"repro/internal/sim"
)

// BenchmarkRead64Miss measures the host cost of one cold 64-block read: the
// controller's fan-out into 64 procs, each through the coherence miss path,
// virt, RAID-5 and the disk store. The volume is written below the caches
// and is 16× the pooled cache, so a sequential sweep never finds a block it
// left behind. Set-up is outside the timed region.
func BenchmarkRead64Miss(b *testing.B) {
	k := sim.NewKernel(1)
	defer k.Close()
	cfg := DefaultConfig()
	cfg.CacheBlocksPerBlade = 256
	c, err := New(k, cfg)
	if err != nil {
		b.Fatal(err)
	}
	const volBlocks = 16 << 10
	vol, err := c.CreateVolume("", "v", volBlocks)
	if err != nil {
		b.Fatal(err)
	}
	bs := c.BlockSize()
	k.Go("fill", func(p *sim.Proc) {
		stripe := pattern(64*bs, 7)
		for lba := int64(0); lba < volBlocks; lba += 64 {
			if err := vol.Write(p, lba, stripe); err != nil {
				panic(err)
			}
		}
	})
	k.RunFor(600 * sim.Second)

	done := false
	k.Go("read", func(p *sim.Proc) {
		defer func() { done = true }()
		for i := 0; i < b.N; i++ {
			lba := int64(i) * 64 % volBlocks
			if _, err := c.Read(p, c.Blades[i%len(c.Blades)], "v", lba, 64, 0); err != nil {
				panic(err)
			}
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	for !done { // the flushers tick forever: Run would never return
		k.RunFor(sim.Second)
	}
}
