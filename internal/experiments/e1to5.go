package experiments

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/lab"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stripe"
	"repro/internal/telemetry"
	"repro/internal/virt"
	"repro/internal/workload"
)

// E1 — Figure 1 / §2.3: single-stream bandwidth vs number of striped
// blades. One blade ingests 2×2 Gb/s of Fibre Channel; four blades
// saturate the 10 Gb/s port.
func E1(seed int64) *metrics.Table {
	k := sim.NewKernel(seed)
	defer k.Close()
	counts := []int{1, 2, 4, 8}
	results, err := stripe.Sweep(k, stripe.Config{}, counts, 256<<20)
	if err != nil {
		panic(err)
	}
	tab := stripe.Table(counts, results, 2_000_000_000, 10_000_000_000)
	tab.AddNote("paper §2.3: four blades × 2×2 Gb/s FC take turns driving one 10 Gb/s port")
	tr, reg := tracedE1Stream(seed)
	tab.AddNote("per-phase chunk latency at 4 blades (op = farm→port; fabric = FC ingest; queue = egress wait for the shared port):\n%s",
		tr.BreakdownTable("").String())
	tab.AddNote("ingest-link balance at 4 blades (round-robin striping over 8 FC links):\n%s",
		telemetry.SkewTable(reg, "E1 — FC ingest-link bytes", "net/link/farm-*/bytes").String())
	return tab
}

// E2 — §2.1: aggregate throughput scales with blades without partitioning
// data; the traditional dual-controller array is flat.
func E2(seed int64) *metrics.Table {
	tab := metrics.NewTable("E2 — §2.1: aggregate throughput vs controllers",
		"system", "controllers", "MB/s", "ops/s", "mean ms", "p99 ms")
	const (
		clients = 48
		dur     = 2 * sim.Second
		// The working set fits each blade's cache: the controllers, not
		// the 24 spindles, are the bottleneck — §2.1's regime ("the only
		// way to overcome Moore's Law is through parallelism").
		wsBlocks = 3 << 10
		opBlocks = 16 // 64 KiB operations
	)
	// Shared read streams (§2.1: "many I/O streams to access the same
	// data without performance degradation"); write-path costs are
	// measured separately in E6/A3.
	pat := func(int) workload.Pattern {
		return workload.Uniform{Range: wsBlocks, Blocks: opBlocks, WriteFrac: 0}
	}

	for _, blades := range []int{1, 2, 4, 8, 16} {
		l := lab.New(seed, clusterConfig(blades), "bench", wsBlocks)
		l.Run(clients, 2*sim.Second, pat) // warm caches
		r := l.Run(clients, dur, pat)
		l.Close()
		tab.AddRow("yotta", blades, fmtF(r.Bytes.MBps()), int64(float64(r.Ops)/dur.Seconds()),
			fmtDur(r.Latency.Mean()), fmtDur(r.Latency.P99()))
	}

	// Baseline: the same disks behind a fixed dual-controller array.
	k, arr := baselineArray(seed)
	// Two volumes, one per controller — the best static split.
	arr.CreateVolume("v0", wsBlocks/2)
	arr.CreateVolume("v1", wsBlocks/2)
	tgt := &arrayTarget{a: arr, vols: []string{"v0", "v1"}, span: wsBlocks / 2}
	if err := core.RunBody(k, lab.BodyHorizon, func(p *sim.Proc) error { return seqFill(p, tgt, wsBlocks/2) }); err != nil {
		panic(err)
	}
	bpat := func(int) workload.Pattern {
		return workload.Uniform{Range: wsBlocks / 2, Blocks: opBlocks, WriteFrac: 0}
	}
	(&workload.Runner{K: k, Clients: clients, Pattern: bpat, Target: tgt, Duration: 2 * sim.Second}).Run() // warm caches
	r := &workload.Runner{K: k, Clients: clients, Pattern: bpat, Target: tgt, Duration: dur}
	r.Run()
	k.Close()
	tab.AddRow("baseline", 2, fmtF(r.Bytes.MBps()), int64(float64(r.Ops)/dur.Seconds()),
		fmtDur(r.Latency.Mean()), fmtDur(r.Latency.P99()))
	tab.AddNote("yotta scales by adding blades to one shared pool; the array is capped at its controller pair")
	return tab
}

// baselineArray builds the comparator E2 and E3 put beside the cluster:
// the two-blade lab Config behind a dual-controller array — the same 24
// lab disks in 6-disk groups, each controller with one blade's cache and
// CPU cost — on a fresh kernel.
func baselineArray(seed int64) (*sim.Kernel, *baseline.Array) {
	k := sim.NewKernel(seed)
	arr, err := baseline.New(k, clusterConfig(2))
	if err != nil {
		panic(err)
	}
	return k, arr
}

// seqFill writes the first n blocks of a target sequentially (prefill).
func seqFill(p *sim.Proc, t workload.Target, n int64) error {
	const step = 64
	for lba := int64(0); lba < n; lba += step {
		c := int64(step)
		if lba+c > n {
			c = n - lba
		}
		if err := t.Write(p, lba, int(c)); err != nil {
			return err
		}
	}
	return nil
}

// arrayTarget spreads accesses over the baseline array's volumes in turn;
// with one volume it pins every access to it (E3's hot volume).
type arrayTarget struct {
	a    *baseline.Array
	vols []string
	span int64
	i    int
	buf  []byte
}

func (t *arrayTarget) BlockSize() int { return t.a.Pool.BlockSize() }

func (t *arrayTarget) pick() string {
	v := t.vols[t.i%len(t.vols)]
	t.i++
	return v
}

func (t *arrayTarget) Read(p *sim.Proc, lba int64, blocks int) error {
	_, err := t.a.Read(p, t.pick(), lba%t.span, blocks)
	return err
}

func (t *arrayTarget) Write(p *sim.Proc, lba int64, blocks int) error {
	need := blocks * t.BlockSize()
	if len(t.buf) < need {
		t.buf = make([]byte, need)
	}
	return t.a.Write(p, t.pick(), lba%t.span, t.buf[:need])
}

// E3 — §2.2/§6.3: Zipf-skewed "hot data" reads (the web-farm pattern the
// paper opens §2 with) drive one controller of the traditional array to
// saturation, while the cluster spreads the same load across every blade
// (load CV ≈ 0) and serves it from the pooled cache at processor speed.
func E3(seed int64) *metrics.Table {
	tab := metrics.NewTable("E3 — §2.2: hot-spot behaviour under Zipf reads",
		"system", "ops/s", "p99 ms", "load CV", "cache hit %")
	const (
		clients = 32
		dur     = 2 * sim.Second
		ws      = 8 << 10 // 32 MiB hot set
	)
	pat := func(int) workload.Pattern {
		return &workload.Zipf{Range: ws, S: 1.2, Blocks: 4, WriteFrac: 0}
	}

	// Cluster: 4 blades, one shared volume, any blade serves any block.
	l := lab.New(seed, clusterConfig(4), "hot", ws)
	l.Run(clients, 4*sim.Second, pat) // warm the pooled cache
	r := l.Run(clients, dur, pat)
	hits, misses := l.C.CacheStats()
	cv := metrics.Summarize(l.C.LoadPerBlade()).CV()
	tab.AddRow("yotta (4 blades)", int64(float64(r.Ops)/dur.Seconds()),
		fmtDur(r.Latency.P99()), fmtF(cv), fmtF(100*float64(hits)/float64(hits+misses)))
	l.Close()

	// Baseline: the hot data lives in one volume owned by controller 0.
	k, arr := baselineArray(seed)
	arr.CreateVolume("hot", ws)
	arr.SetOwner("hot", 0)
	tgt := &arrayTarget{a: arr, vols: []string{"hot"}, span: ws}
	if err := core.RunBody(k, lab.BodyHorizon, func(p *sim.Proc) error { return seqFill(p, tgt, ws) }); err != nil {
		panic(err)
	}
	r2 := &workload.Runner{K: k, Clients: clients, Pattern: pat, Target: tgt, Duration: dur}
	r2.Run()
	ops := arr.ControllerOps()
	k.Close()
	bcv := metrics.Summarize([]float64{float64(ops[0]), float64(ops[1])}).CV()
	tab.AddRow("baseline (hot volume)", int64(float64(r2.Ops)/dur.Seconds()),
		fmtDur(r2.Latency.P99()), fmtF(bcv), "n/a")
	tab.AddNote("load CV: 0 = perfectly balanced; √2 ≈ 1.41 = all load on one of two controllers")
	return tab
}

// E4 — §2.4: distributed rebuild. Time to reconstruct a failed drive vs
// blade count, and the foreground p99 while the rebuild runs.
func E4(seed int64) *metrics.Table {
	tab := metrics.NewTable("E4 — §2.4: distributed rebuild",
		"blades", "rebuild s", "foreground p99 ms (during)", "baseline p99 ms (no rebuild)")
	const (
		clients = 16
		ws      = 8 << 10
	)
	pat := func(int) workload.Pattern {
		return workload.Uniform{Range: ws, Blocks: 4, WriteFrac: 0.1}
	}
	for _, blades := range []int{1, 2, 4, 8} {
		l := lab.New(seed, clusterConfig(blades), "data", ws)
		// Reference run without rebuild.
		ref := l.Run(clients, sim.Second, pat)

		// Fail a disk and rebuild while foreground load continues.
		l.C.Groups[0].Disks()[1].Fail()
		during := l.Loop(clients, 120*sim.Second, pat) // outlives the rebuild
		during.Start()
		var rebuildTime sim.Duration
		l.Do("E4 rebuild", func(p *sim.Proc) error {
			t0 := p.Now()
			err := l.C.DistributedRebuild(p, 0, 1)
			rebuildTime = p.Now().Sub(t0)
			return err
		})
		l.Close()
		tab.AddRow(blades, fmtF(rebuildTime.Seconds()),
			fmtDur(during.Latency.P99()), fmtDur(ref.Latency.P99()))
	}
	tab.AddNote("rebuild compute spreads across blades; disks bound the floor")
	return tab
}

// E5 — §3: demand-mapped storage devices. Thin provisioning lets dozens of
// over-provisioned tenants share a pool that fixed partitioning exhausts
// after a handful.
func E5(seed int64) *metrics.Table {
	tab := metrics.NewTable("E5 — §3: DMSD thin provisioning vs fixed partitions",
		"model", "tenants fit", "provisioned", "physical used", "pool util %")
	k := sim.NewKernel(seed)
	defer k.Close()
	devs := []virt.BlockDevice{}
	for i := 0; i < 4; i++ {
		devs = append(devs, newRAMDevice(4096, 64<<10)) // 4 × 256 MiB
	}
	pool, err := virt.NewPool(k, 64, devs...)
	if err != nil {
		panic(err)
	}
	const provisionExtents = 256 // each tenant asks for 64 MiB
	// Thick: how many fully provisioned tenants fit?
	thick := 0
	for {
		if _, err := pool.CreateVolume(fmt.Sprintf("thick%d", thick), provisionExtents*64); err != nil {
			break
		}
		thick++
	}
	used := pool.AllocatedExtents()
	tab.AddRow("fixed partitions", thick,
		metrics.FormatBytes(int64(thick)*provisionExtents*pool.ExtentBytes()),
		metrics.FormatBytes(used*pool.ExtentBytes()),
		fmtF(100*float64(used)/float64(pool.TotalExtents())))
	for i := 0; i < thick; i++ {
		pool.Delete(fmt.Sprintf("thick%d", i))
	}

	// Thin: tenants provision the same amount but write what they use
	// (skewed usage, ~8% mean).
	rng := k.Rand()
	thin := 0
	var provisioned int64
	fill := func(p *sim.Proc) error {
		for {
			name := fmt.Sprintf("thin%d", thin)
			v, err := pool.CreateDMSD(name, provisionExtents)
			if err != nil {
				return err
			}
			provisioned += provisionExtents
			use := 1 + rng.Int63n(2*provisionExtents/12) // mean ~8%
			for e := int64(0); e < use; e++ {
				if err := v.Write(p, e*64, make([]byte, 4096)); err != nil {
					pool.Delete(name)
					provisioned -= provisionExtents
					return nil // pool full: stop
				}
			}
			thin++
			if thin >= 48 {
				return nil
			}
		}
	}
	if err := core.RunBody(k, lab.BodyHorizon, fill); err != nil {
		panic(err)
	}
	usedThin := pool.AllocatedExtents()
	tab.AddRow("DMSD (thin)", thin,
		metrics.FormatBytes(provisioned*pool.ExtentBytes()),
		metrics.FormatBytes(usedThin*pool.ExtentBytes()),
		fmtF(100*float64(usedThin)/float64(pool.TotalExtents())))
	tab.AddNote("slack space is amortized across tenants; charge-back reflects actual usage (§3)")
	return tab
}
