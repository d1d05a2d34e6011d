package experiments

import (
	"repro/internal/georepl"
	"repro/internal/lab"
	"repro/internal/metrics"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// A1 — ablation: geographic prefetch (§7.1). With prefetch disabled every
// remote block pays the WAN round trip; with it on, only the first access
// does — the design choice that makes remote files usable at local speed.
func A1Prefetch(seed int64) *metrics.Table {
	tab := metrics.NewTable("A1 — ablation: remote-read prefetch (40 ms one-way WAN)",
		"prefetch", "read 1 ms", "read 2 ms", "read 3 ms", "WAN fetches")
	for _, prefetch := range []int64{0, 256 << 10} {
		gs := twoSites(seed, 40*sim.Millisecond,
			georepl.Config{PrefetchBytes: max(prefetch, 1), HotThreshold: 1000}) // 1 byte ≈ off
		data := make([]byte, 128<<10)
		var lat [3]sim.Duration
		err := gs.Run(0, func(p *sim.Proc) error {
			a, b := gs.Site("A"), gs.Site("B")
			if err := a.Create(p, "/f", pfs.Policy{}); err != nil {
				return err
			}
			if err := a.WriteAt(p, "/f", 0, data); err != nil {
				return err
			}
			buf := make([]byte, 16<<10)
			for i := 0; i < 3; i++ {
				t0 := p.Now()
				if _, err := b.ReadAt(p, "/f", int64(i)*int64(len(buf)), buf); err != nil {
					return err
				}
				lat[i] = p.Now().Sub(t0)
			}
			return nil
		})
		if err != nil {
			panic(err)
		}
		label := "off"
		if prefetch > 0 {
			label = "256 KiB"
		}
		tab.AddRow(label, fmtDur(lat[0]), fmtDur(lat[1]), fmtDur(lat[2]),
			gs.Site("B").Stats.RemoteReads)
		gs.K.Close()
	}
	tab.AddNote("without prefetch every 16 KiB read pays the WAN; with it only the first does")
	return tab
}

// A2 — ablation: peer-cache transfers (§6.3 "cache data migrated to where
// it is most needed"). With transfers off, every blade's first touch of a
// shared hot block reads the disks; with them on, one disk read serves the
// whole cluster.
func A2PeerFetch(seed int64) *metrics.Table {
	tab := metrics.NewTable("A2 — ablation: cache-to-cache transfers under shared hot reads",
		"peer fetch", "ops/s", "disk reads", "peer transfers", "p99 ms")
	const (
		clients = 16
		dur     = sim.Second
		ws      = 2 << 10
	)
	for _, off := range []bool{true, false} {
		cfg := clusterConfig(4)
		cfg.NoPeerFetch = off
		l := lab.New(seed, cfg, "hot", ws)
		r := l.Run(clients, dur, func(int) workload.Pattern {
			return &workload.Zipf{Range: ws, S: 1.3, Blocks: 1}
		})
		var diskReads, peer int64
		for _, b := range l.C.Blades {
			st := b.Engine.Stats()
			diskReads += st.DiskReads
			peer += st.PeerFetches
		}
		label := "on"
		if off {
			label = "off"
		}
		tab.AddRow(label, int64(float64(r.Ops)/dur.Seconds()), diskReads, peer, fmtDur(r.Latency.P99()))
		l.Close()
	}
	tab.AddNote("transfers let a block read from disk once serve all blades' caches")
	return tab
}

// A3 — ablation: write-back replication factor vs write latency at one
// distance scale — the §6.1 cost curve on its own.
func A3ReplicationCost(seed int64) *metrics.Table {
	tab := metrics.NewTable("A3 — ablation: write latency vs cache-replication factor",
		"N (copies)", "mean write ms", "p99 write ms")
	for _, n := range []int{1, 2, 3, 4, 5} {
		cfg := clusterConfig(6)
		cfg.ReplicationN = n
		l := lab.New(seed, cfg, "v", 0)
		hist := writeLatency(l, "A3", 200, 1)
		l.Close()
		tab.AddRow(n, fmtDur(hist.Mean()), fmtDur(hist.P99()))
	}
	tab.AddNote("each extra copy adds one more parallel fabric push before the ack (§6.1)")
	return tab
}

// A4 — ablation: controller readahead (§4 "storage prefetch operations").
// A sequential scan through the coherent cache with and without prefetch.
func A4ReadAhead(seed int64) *metrics.Table {
	tab := metrics.NewTable("A4 — ablation: sequential scan with controller readahead",
		"readahead", "scan MB/s", "mean ms/op", "prefetches")
	const scanBlocks = 2048
	for _, ra := range []int{0, 16} {
		cfg := clusterConfig(4)
		cfg.ReadAhead = ra
		l := lab.New(seed, cfg, "seq", scanBlocks)
		c := l.C
		hist := metrics.NewHistogram()
		var elapsed sim.Duration
		l.Do("A4 scan", func(p *sim.Proc) error {
			t0 := p.Now()
			b := c.Blade(0)
			for lba := int64(0); lba < scanBlocks; lba += 4 {
				s0 := p.Now()
				if _, err := c.Read(p, b, "seq", lba, 4, 0); err != nil {
					return err
				}
				hist.Observe(p.Now().Sub(s0))
			}
			elapsed = p.Now().Sub(t0)
			return nil
		})
		var prefetches int64
		for _, b := range c.Blades {
			prefetches += b.Engine.Stats().Prefetches
		}
		mbps := float64(scanBlocks*4096) / elapsed.Seconds() / 1e6
		tab.AddRow(ra, fmtF(mbps), fmtDur(hist.Mean()), prefetches)
		l.Close()
	}
	tab.AddNote("prefetch overlaps disk time with the host's consumption of earlier blocks")
	return tab
}
