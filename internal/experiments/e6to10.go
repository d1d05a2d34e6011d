package experiments

import (
	"bytes"
	"fmt"
	"sort"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/georepl"
	"repro/internal/metrics"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/stripe"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// E6 — §6.1: N-way replication of write data across controller caches.
// Write latency grows mildly with N; killing up to N−1 blades right after
// a burst of acknowledged writes loses nothing, while killing N can.
func E6(seed int64) *metrics.Table {
	tab := metrics.NewTable("E6 — §6.1: N-way write replication",
		"N (copies)", "write mean ms", "lost after N-1 failures", "lost after N failures")
	const (
		blades  = 6
		nWrites = 64
	)
	var replSkew string
	for _, n := range []int{1, 2, 3, 4} {
		lost := func(kills int) int {
			k := sim.NewKernel(seed)
			cfg := clusterConfig(blades)
			cfg.ReplicationN = n
			cfg.FlushInterval = 60 * sim.Second // rely on replication alone
			c, err := controller.New(k, cfg)
			if err != nil {
				panic(err)
			}
			c.Pool.CreateDMSD("v", 1<<20)
			want := make(map[int64]byte)
			missing := 0
			done := false
			k.Go("body", func(p *sim.Proc) {
				defer func() { done = true }()
				blk := make([]byte, c.BlockSize())
				for i := 0; i < nWrites; i++ {
					lba := int64(i * 3)
					val := byte(i + 1)
					for j := range blk {
						blk[j] = val
					}
					if err := c.Write(p, c.Blade(i%blades), "v", lba, blk, 0); err != nil {
						panic(err)
					}
					want[lba] = val
				}
				// Fail the first `kills` blades at the same instant: the
				// correlated failure N-way replication is sized against.
				if kills > 0 {
					ids := make([]int, kills)
					for f := range ids {
						ids[f] = f
					}
					if err := c.FailBlades(p, ids...); err != nil {
						panic(err)
					}
				}
				b := c.PickBlade()
				// Read back in LBA order, not map order: the readback I/O
				// sequence must be identical across runs with the same seed.
				lbas := make([]int64, 0, len(want))
				for lba := range want {
					lbas = append(lbas, lba)
				}
				sort.Slice(lbas, func(i, j int) bool { return lbas[i] < lbas[j] })
				for _, lba := range lbas {
					got, err := c.Read(p, b, "v", lba, 1, 0)
					if err != nil || got[0] != want[lba] {
						missing++
					}
				}
			})
			for i := 0; !done && i < 3000; i++ {
				k.RunFor(100 * sim.Millisecond)
			}
			k.Close()
			if !done {
				panic("E6 run did not finish")
			}
			return missing
		}

		// Measure write latency with this factor.
		k := sim.NewKernel(seed)
		cfg := clusterConfig(blades)
		cfg.ReplicationN = n
		c, err := controller.New(k, cfg)
		if err != nil {
			panic(err)
		}
		c.Pool.CreateDMSD("v", 1<<20)
		hist := metrics.NewHistogram()
		doneLat := false
		k.Go("lat", func(p *sim.Proc) {
			blk := make([]byte, c.BlockSize())
			for i := 0; i < nWrites; i++ {
				t0 := p.Now()
				if err := c.Write(p, c.Blade(i%blades), "v", int64(i*5), blk, 0); err != nil {
					panic(err)
				}
				hist.Observe(p.Now().Sub(t0))
			}
			doneLat = true
		})
		for i := 0; !doneLat && i < 3000; i++ {
			k.RunFor(100 * sim.Millisecond)
		}
		if !doneLat {
			panic("E6 latency run did not finish")
		}

		if n == 3 {
			replSkew = telemetry.SkewTable(c.Reg, "E6 — per-blade client ops at N=3", "blade/*/ops").String() +
				telemetry.SkewTable(c.Reg, "E6 — per-blade replica pushes held at N=3", "blade/*/repl/puts").String()
		}
		k.Close()
		tab.AddRow(n, fmtDur(hist.Mean()), lost(n-1), lost(n))
	}
	tab.AddNote("N-1 failures: zero loss (every dirty block still has a live copy); N failures can lose blocks whose entire copy set died")
	tab.AddNote("replication fan-out balance (telemetry registry, N=3 latency run):\n%s", replSkew)
	return tab
}

// E7 — §7.1 / Figure 3: distributed data access. The first block read at a
// remote site pays the WAN round trip; prefetch makes the rest local, and
// a hot file is promoted to a full local replica.
func E7(seed int64) *metrics.Table {
	tab := metrics.NewTable("E7 — §7.1: remote access latency by read number (40 ms one-way WAN)",
		"read#", "offset KiB", "latency ms", "served")
	gs, err := core.NewGeoSystem(seed, core.GeoOptions{
		Sites:     []string{"A", "B"},
		WANOneWay: 40 * sim.Millisecond,
		SiteOptions: func(string) core.Options {
			return core.Options{DiskSpec: labDisk(), Disks: 12, DisksPerGroup: 6}
		},
		Geo: georepl.Config{PrefetchBytes: 256 << 10, HotThreshold: 4},
	})
	if err != nil {
		panic(err)
	}
	defer gs.K.Close()
	data := make([]byte, 512<<10)
	for i := range data {
		data[i] = byte(i)
	}
	err = gs.Run(0, func(p *sim.Proc) error {
		a, b := gs.Site("A"), gs.Site("B")
		if err := a.Create(p, "/shared/results.dat", pfs.Policy{}); err != nil {
			return err
		}
		if err := a.WriteAt(p, "/shared/results.dat", 0, data); err != nil {
			return err
		}
		buf := make([]byte, 16<<10)
		for i := 0; i < 8; i++ {
			off := int64(i) * int64(len(buf))
			t0 := p.Now()
			if _, err := b.ReadAt(p, "/shared/results.dat", off, buf); err != nil {
				return err
			}
			served := "prefetched (local)"
			if i == 0 {
				served = "WAN fetch"
			}
			if !bytes.Equal(buf, data[off:off+int64(len(buf))]) {
				return fmt.Errorf("E7: data mismatch at read %d", i)
			}
			tab.AddRow(i+1, off>>10, fmtDur(p.Now().Sub(t0)), served)
		}
		return nil
	})
	if err != nil {
		panic(err)
	}
	b := gs.Site("B")
	tab.AddNote("site B stats: %d WAN fetches, %d prefetch hits, %d promotions",
		b.Stats.RemoteReads, b.Stats.PrefetchHits, b.Stats.Promotions)
	return tab
}

// E8 — §7.2: remote replication. Synchronous replication's write latency
// tracks distance; asynchronous keeps local latency but opens a loss
// window (RPO) on site disaster.
func E8(seed int64) *metrics.Table {
	tab := metrics.NewTable("E8 — §7.2: sync vs async replication across distance",
		"one-way ms", "mode", "write mean ms", "writes lost on site disaster")
	for _, oneWay := range []sim.Duration{1 * sim.Millisecond, 10 * sim.Millisecond, 40 * sim.Millisecond, 100 * sim.Millisecond} {
		for _, mode := range []pfs.GeoMode{pfs.GeoSync, pfs.GeoAsync} {
			gs, err := core.NewGeoSystem(seed, core.GeoOptions{
				Sites:     []string{"A", "B"},
				WANOneWay: oneWay,
				SiteOptions: func(string) core.Options {
					return core.Options{DiskSpec: labDisk(), Disks: 12, DisksPerGroup: 6}
				},
				Geo: georepl.Config{ShipInterval: 200 * sim.Millisecond},
			})
			if err != nil {
				panic(err)
			}
			const nWrites = 16
			hist := metrics.NewHistogram()
			lost := 0
			err = gs.Run(0, func(p *sim.Proc) error {
				a := gs.Site("A")
				pol := pfs.Policy{Geo: pfs.GeoPolicy{Mode: mode, Sites: []string{"B"}}}
				if err := a.Create(p, "/db/log", pol); err != nil {
					return err
				}
				blk := make([]byte, 4096)
				for i := 0; i < nWrites; i++ {
					t0 := p.Now()
					if err := a.WriteAt(p, "/db/log", int64(i*4096), blk); err != nil {
						return err
					}
					hist.Observe(p.Now().Sub(t0))
				}
				// Disaster: site A is lost immediately after the burst.
				gs.Fed.FailSite("A")
				gs.Fed.Failover("A")
				b := gs.Site("B")
				ino, err := b.FS().Stat("/db/log")
				if err != nil {
					lost = nWrites
					return nil
				}
				lost = nWrites - int(ino.Size/4096)
				return nil
			})
			if err != nil {
				panic(err)
			}
			gs.K.Close()
			tab.AddRow(fmtF(oneWay.Millis()), mode.String(), fmtDur(hist.Mean()), lost)
		}
	}
	tab.AddNote("sync: latency ∝ distance, RPO 0; async: local latency, RPO = unshipped journal")
	return tab
}

// E9 — §5.1/§8.1: encryption at wire speed by parallelism. A single
// 2 Gb/s per-blade encryption engine caps one blade, but engines scale
// with the blade count until the port is the limit again.
func E9(seed int64) *metrics.Table {
	tab := metrics.NewTable("E9 — §8.1: streaming with per-blade encryption engines (2 Gb/s each)",
		"blades", "plaintext Gb/s", "encrypted Gb/s", "enc/plain %")
	counts := []int{1, 2, 4, 8}
	k1 := sim.NewKernel(seed)
	defer k1.Close()
	plain, err := stripe.Sweep(k1, stripe.Config{}, counts, 128<<20)
	if err != nil {
		panic(err)
	}
	k2 := sim.NewKernel(seed)
	defer k2.Close()
	enc, err := stripe.Sweep(k2, stripe.Config{EncBps: 2_000_000_000}, counts, 128<<20)
	if err != nil {
		panic(err)
	}
	for i, n := range counts {
		ratio := 100 * enc[i].Gbps() / plain[i].Gbps()
		tab.AddRow(n, fmtF(plain[i].Gbps()), fmtF(enc[i].Gbps()), fmtF(ratio))
	}
	tab.AddNote("with enough blades the encrypted stream reaches the same port limit — wire speed via parallelism")
	return tab
}

// E10 — §6.3: availability under blade failures. Two of eight blades die
// mid-workload; data stays reachable, load redistributes over the
// survivors, and throughput recovers immediately after the recovery
// protocol.
func E10(seed int64) *metrics.Table {
	tab := metrics.NewTable("E10 — §6.3: availability through blade failures",
		"phase", "MB/s", "ops/s", "errors", "live blades")
	const (
		blades  = 8
		clients = 32
		// The working set fits each blade's cache so the comparison
		// isolates availability (losing blades also shrinks the pooled
		// cache — that effect is §2.2's subject, shown in E2/E3).
		ws = 4 << 10
	)
	k := sim.NewKernel(seed)
	defer k.Close()
	c, err := controller.New(k, clusterConfig(blades))
	if err != nil {
		panic(err)
	}
	c.Pool.CreateDMSD("v", 1<<20)
	target := &core.VolumeTarget{Cluster: c, Vol: "v"}
	if err := prefillVolume(k, c, "v", ws); err != nil {
		panic(err)
	}
	// Read workload: E10 is about availability of data access through
	// failures (write-durability under failures is E6's subject).
	pat := func(int) workload.Pattern {
		return workload.Uniform{Range: ws, Blocks: 4, WriteFrac: 0}
	}
	runWorkload(k, clients, 2*sim.Second, target, pat) // warm caches

	series := metrics.NewTimeSeries(0, 250*sim.Millisecond)
	measure := func(name string, dur sim.Duration) {
		before := c.Errors
		r := &workload.Runner{
			K: k, Clients: clients, Pattern: pat, Target: target,
			Duration: dur, Series: series,
		}
		r.Run()
		tab.AddRow(name, fmtF(r.Bytes.MBps()), int64(float64(r.Ops)/dur.Seconds()),
			c.Errors-before, len(c.Alive()))
	}

	measure("before failures", sim.Second)
	// Kill two blades (with a workload running so in-flight ops can fail).
	// Recovery — survivors destaging the dead blades' replicated dirty
	// data and cold-starting under the new membership — takes real
	// (virtual) time; we measure the clean post-recovery regime after it
	// completes and report the recovery duration.
	killErr := c.Errors
	during := &workload.Runner{K: k, Clients: clients, Pattern: pat, Target: target, Duration: sim.Second, Series: series}
	during.Start()
	recovered := false
	var recoveryTook sim.Duration
	k.After(200*sim.Millisecond, func() {
		k.Go("killer", func(p *sim.Proc) {
			t0 := p.Now()
			c.FailBlade(p, 0)
			c.FailBlade(p, 1)
			recoveryTook = p.Now().Sub(t0)
			recovered = true
		})
	})
	k.RunFor(sim.Second)
	tab.AddRow("failure window", fmtF(during.Bytes.MBps()),
		int64(float64(during.Ops)/1.0), c.Errors-killErr, len(c.Alive()))
	for !recovered {
		k.RunFor(100 * sim.Millisecond)
	}
	// Recovery cold-starts every cache; warm back up (unmeasured) so the
	// post-recovery row compares like-for-like with the warm before row.
	// Re-warming the whole working set from 24 spindles takes several
	// simulated seconds — the cold-cache cost a real recovery also pays.
	runWorkload(k, clients, 8*sim.Second, target, pat)
	measure("after recovery", sim.Second)
	tab.AddNote("both failures detected and recovered in %s ms of virtual time", fmtF(recoveryTook.Millis()))
	tab.AddNote("%s", series.Spark("throughput over time"))

	load := c.LoadPerBlade()[2:] // survivors only
	tab.AddNote("surviving blades' load CV after failures: %s (≈0 = evenly redistributed)",
		fmtF(metrics.Summarize(load).CV()))
	return tab
}
