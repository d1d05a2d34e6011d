package experiments

import (
	"bytes"
	"fmt"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/georepl"
	"repro/internal/lab"
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
			cfg := clusterConfig(blades)
			cfg.ReplicationN = n
			cfg.FlushInterval = 60 * sim.Second // rely on replication alone
			l := lab.New(seed, cfg, "v", 0)
			defer l.Close()
			c := l.C
			missing := 0
			l.Do("E6", func(p *sim.Proc) error {
				acked := writeAcks(p, c, "v", 0, nWrites)
				if len(acked) < nWrites {
					return fmt.Errorf("%d of %d writes failed", nWrites-len(acked), nWrites)
				}
				// Fail the first `kills` blades at the same instant: the
				// correlated failure N-way replication is sized against.
				if kills > 0 {
					ids := make([]int, kills)
					for f := range ids {
						ids[f] = f
					}
					if err := c.FailBlades(p, ids...); err != nil {
						return err
					}
				}
				b := c.PickBlade()
				missing = lostAcks(p, c, "v", acked, func() *controller.Blade { return b })
				return nil
			})
			return missing
		}

		// Measure write latency with this factor.
		cfg := clusterConfig(blades)
		cfg.ReplicationN = n
		l := lab.New(seed, cfg, "v", 0)
		hist := writeLatency(l, "E6 latency", nWrites, 5)
		if n == 3 {
			replSkew = telemetry.SkewTable(l.C.Reg, "E6 — per-blade client ops at N=3", "blade/*/ops").String() +
				telemetry.SkewTable(l.C.Reg, "E6 — per-blade replica pushes held at N=3", "blade/*/repl/puts").String()
		}
		l.Close()
		tab.AddRow(n, fmtDur(hist.Mean()), lost(n-1), lost(n))
	}
	tab.AddNote("N-1 failures: zero loss (every dirty block still has a live copy); N failures can lose blocks whose entire copy set died")
	tab.AddNote("replication fan-out balance (telemetry registry, N=3 latency run):\n%s", replSkew)
	return tab
}

// writeLatency times count one-block writes on the arm's volume, write i
// at block stride·i through blade i mod blades, one after another.
func writeLatency(l *lab.Lab, name string, count int, stride int64) *metrics.Histogram {
	hist := metrics.NewHistogram()
	l.Do(name, func(p *sim.Proc) error {
		blk := make([]byte, l.C.BlockSize())
		for i := 0; i < count; i++ {
			t0 := p.Now()
			if err := l.C.Write(p, l.C.Blade(i%len(l.C.Blades)), l.Target.Vol, int64(i)*stride, blk, 0); err != nil {
				return err
			}
			hist.Observe(p.Now().Sub(t0))
		}
		return nil
	})
	return hist
}

// ack is one acknowledged write: every byte of block lba holds val.
type ack struct {
	lba int64
	val byte
}

// writeAcks writes n blocks through the blades in turn, block base+3i
// filled with byte i+1, and returns the writes the cluster acknowledged in
// issue order — a slice, not a map, so a read-back's I/O sequence is the
// same on every run of a seed.
func writeAcks(p *sim.Proc, c *controller.Cluster, vol string, base int64, n int) []ack {
	blk := make([]byte, c.BlockSize())
	var acked []ack
	for i := 0; i < n; i++ {
		a := ack{base + int64(i*3), byte(i + 1)}
		for j := range blk {
			blk[j] = a.val
		}
		if err := c.Write(p, c.Blade(i%len(c.Blades)), vol, a.lba, blk, 0); err == nil {
			acked = append(acked, a)
		}
	}
	return acked
}

// lostAcks reads every acknowledged write back through the blade pick
// returns and counts those that fail or differ anywhere in the block.
func lostAcks(p *sim.Proc, c *controller.Cluster, vol string, acked []ack, pick func() *controller.Blade) int {
	lost := 0
	for _, a := range acked {
		got, err := c.Read(p, pick(), vol, a.lba, 1, 0)
		if err != nil || !bytes.Equal(got, bytes.Repeat([]byte{a.val}, c.BlockSize())) {
			lost++
		}
	}
	return lost
}

// twoSites builds the federation E7, E8 and A1 run on: sites A and B, each
// 12 lab disks in 6-disk groups, oneWay apart.
func twoSites(seed int64, oneWay sim.Duration, geo georepl.Config) *core.GeoSystem {
	gs, err := core.NewGeoSystem(seed, core.GeoOptions{
		Sites:     []string{"A", "B"},
		WANOneWay: oneWay,
		SiteOptions: func(string) core.Options {
			return core.Options{DiskSpec: disk.LabSpec(), Disks: 12, DisksPerGroup: 6}
		},
		Geo: geo,
	})
	if err != nil {
		panic(err)
	}
	return gs
}

// E7 — §7.1 / Figure 3: distributed data access. The first block read at a
// remote site pays the WAN round trip; prefetch makes the rest local, and
// a hot file is promoted to a full local replica.
func E7(seed int64) *metrics.Table {
	tab := metrics.NewTable("E7 — §7.1: remote access latency by read number (40 ms one-way WAN)",
		"read#", "offset KiB", "latency ms", "served")
	gs := twoSites(seed, 40*sim.Millisecond, georepl.Config{PrefetchBytes: 256 << 10, HotThreshold: 4})
	defer gs.K.Close()
	data := make([]byte, 512<<10)
	for i := range data {
		data[i] = byte(i)
	}
	err := gs.Run(0, func(p *sim.Proc) error {
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
			gs := twoSites(seed, oneWay, georepl.Config{ShipInterval: 200 * sim.Millisecond})
			const nWrites = 16
			hist := metrics.NewHistogram()
			lost := 0
			err := gs.Run(0, func(p *sim.Proc) error {
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
	l := lab.New(seed, clusterConfig(blades), "v", ws)
	defer l.Close()
	// Read workload: E10 is about availability of data access through
	// failures (write-durability under failures is E6's subject).
	pat := func(int) workload.Pattern {
		return workload.Uniform{Range: ws, Blocks: 4, WriteFrac: 0}
	}
	l.Run(clients, 2*sim.Second, pat) // warm caches
	recoveryTook, series := failover(l, "E10", tab, clients, pat, false)
	tab.AddNote("both failures detected and recovered in %s ms of virtual time", fmtF(recoveryTook.Millis()))
	tab.AddNote("%s", series.Spark("throughput over time"))

	load := l.C.LoadPerBlade()[2:] // survivors only
	tab.AddNote("surviving blades' load CV after failures: %s (≈0 = evenly redistributed)",
		fmtF(metrics.Summarize(load).CV()))
	return tab
}

// failover runs the blade-failure scenario E10 and E11 share, one table
// row per phase: a measured second before the failures; a second in which
// blades 0 and 1 die 200 ms in, with the clients running so in-flight ops
// can fail; and, once the recovery protocol has finished and an unmeasured
// 8 s re-warm has refilled the caches it cold-starts (the cost a real
// recovery also pays, so the after row compares like-for-like with the
// warm before row), a measured second after recovery. With traced set the
// tracer records the three measured phases only, so the breakdown carries
// no warm-up spans. It returns the recovery's duration and the throughput
// series over the phases.
func failover(l *lab.Lab, name string, tab *metrics.Table, clients int, pat func(int) workload.Pattern, traced bool) (sim.Duration, *metrics.TimeSeries) {
	k, c := l.K, l.C
	series := metrics.NewTimeSeries(0, 250*sim.Millisecond)
	row := func(phase string, r *workload.Runner, errs int64) {
		tab.AddRow(phase, fmtF(r.Bytes.MBps()), int64(float64(r.Ops)/r.Duration.Seconds()),
			c.Errors-errs, len(c.Alive()))
	}
	measure := func(phase string) {
		errs := c.Errors
		r := l.Loop(clients, sim.Second, pat)
		r.Series = series
		r.Run()
		row(phase, r, errs)
	}

	l.Tr.SetEnabled(traced)
	measure("before failures")
	errs := c.Errors
	during := l.Loop(clients, sim.Second, pat)
	during.Series = series
	during.Start()
	// The killer is spawned from a timer, not from a body that sleeps
	// 200 ms: the two order the events of that instant differently.
	var took sim.Duration
	recovered := sim.NewGroup(k) // not sim.Fork: the failure is awaited after the measured window
	recovered.Add(1)
	k.After(200*sim.Millisecond, func() {
		k.Go("killer", func(p *sim.Proc) {
			t0 := p.Now()
			c.FailBlade(p, 0)
			c.FailBlade(p, 1)
			took = p.Now().Sub(t0)
			recovered.Done()
		})
	})
	k.RunFor(sim.Second)
	row("failure window", during, errs)
	l.Await(name+" recovery", recovered)
	l.Tr.SetEnabled(false)
	l.Run(clients, 8*sim.Second, pat) // re-warm (unmeasured)
	l.Tr.SetEnabled(traced)
	measure("after recovery")
	l.Tr.SetEnabled(false)
	return took, series
}
