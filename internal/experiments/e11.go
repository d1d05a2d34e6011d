package experiments

import (
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// E11 — §6.3 under a lossy fabric. E10 shows availability through blade
// failures on a perfect interconnect; E11 repeats the failure scenario
// while every fabric link drops 1% of messages, duplicates 0.5%, and
// delays 5% by up to 5 ms (seeded, so two runs with the same seed are
// byte-identical). The retry layer (bounded attempts, jittered exponential
// backoff) must convert the losses into bounded degraded-mode errors, not
// wedged processes: a burst of acknowledged writes before the failures
// must remain fully readable afterwards, and throughput must recover once
// the survivors finish the recovery protocol.
func E11(seed int64) *metrics.Table {
	tab := metrics.NewTable("E11 — §6.3: availability under a lossy fabric (1% drop, 0.5% dup, 5% delay ≤5 ms)",
		"phase", "MB/s", "ops/s", "errors", "live blades")
	const (
		blades  = 8
		clients = 32
		ws      = 4 << 10
		// nAck acknowledged writes are tracked individually and read back
		// after the failures — the zero-lost-writes acceptance check.
		nAck = 96
	)
	k := sim.NewKernel(seed)
	defer k.Close() // after the notes below have read the tracer and the registry
	cfg := clusterConfig(blades)
	// Three cache copies per dirty block: the experiment kills two blades,
	// and the write-durability claim (E6) requires N-1 ≥ kills.
	cfg.ReplicationN = 3
	// Per-attempt deadline far above the healthy fabric RTT but small
	// enough that four attempts with backoff resolve inside the failure
	// window; a dropped message costs one timeout, not a wedged client.
	cfg.FabricRetry = simnet.RetryPolicy{
		Timeout:    50 * sim.Millisecond,
		Attempts:   4,
		Backoff:    sim.Millisecond,
		MaxBackoff: 8 * sim.Millisecond,
		Jitter:     sim.Millisecond,
	}
	cfg.FabricFaults = &simnet.FaultPlan{
		DropProb:      0.01,
		DupProb:       0.005,
		DelayProb:     0.05,
		MaxExtraDelay: 5 * sim.Millisecond,
	}
	// Tracer attached from construction but enabled only after the warm
	// and ack phases: the measured windows get per-phase attribution
	// without retaining millions of warm-up spans.
	tracer := trace.NewTracer(k)
	cfg.Tracer = tracer
	c, err := controller.New(k, cfg)
	if err != nil {
		panic(err)
	}
	c.Pool.CreateDMSD("v", 1<<20)
	target := &core.VolumeTarget{Cluster: c, Vol: "v"}
	if err := prefillVolume(k, c, "v", ws); err != nil {
		panic(err)
	}
	pat := func(int) workload.Pattern {
		return workload.Uniform{Range: ws, Blocks: 4, WriteFrac: 0}
	}
	// Warm caches. Warming is slower than E10's because every dropped
	// fabric message costs a retry timeout; give it the same 8 s the
	// post-recovery re-warm gets so the before/after rows compare
	// like-for-like.
	runWorkload(k, clients, 8*sim.Second, target, pat)

	// Tracked write burst: every write the cluster acknowledges is
	// recorded (in issue order — a slice, not a map, so the readback I/O
	// sequence is deterministic) and must survive the blade kills.
	type ack struct {
		lba int64
		val byte
	}
	var acked []ack
	attempted, ackErrs := 0, 0
	if err := core.RunBody(k, prefillHorizon, func(p *sim.Proc) error {
		blk := make([]byte, c.BlockSize())
		for i := 0; i < nAck; i++ {
			lba := int64(ws + i*3) // outside the read working set
			val := byte(i + 1)
			for j := range blk {
				blk[j] = val
			}
			attempted++
			if err := c.Write(p, c.Blade(i%blades), "v", lba, blk, 0); err != nil {
				ackErrs++ // degraded-mode failure: not acknowledged, not counted
				continue
			}
			acked = append(acked, ack{lba, val})
		}
		return nil
	}); err != nil {
		panic(err)
	}

	// Telemetry scraper over the measured windows: hot-spot, SLO (windowed
	// p99 against a 100 ms objective, client-visible errors, degraded-mode
	// duration) and stall watchdogs, sampling every 100 ms of virtual time.
	// Watchdog events also land in the trace stream while the tracer is on.
	scr := telemetry.NewScraper(k, c.Reg, 100*sim.Millisecond)
	scr.Tracer = tracer
	scr.AddWatchdog(&telemetry.HotSpot{Pattern: "blade/*/ops"})
	scr.AddWatchdog(&telemetry.SLO{
		Hist:     "cluster/op_latency",
		P99Max:   100 * sim.Millisecond,
		Errors:   "cluster/errors",
		Degraded: "cluster/degraded_ops",
	})
	scr.AddWatchdog(&telemetry.Stall{Queue: "disk/*/queue_depth", Throughput: "cluster/ops"})
	stopScrape := scr.Start()

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

	tracer.SetEnabled(true)
	measure("before failures", sim.Second)

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
	tracer.SetEnabled(false)                           // the re-warm is unmeasured: keep it out of the breakdown
	runWorkload(k, clients, 8*sim.Second, target, pat) // re-warm (unmeasured)
	tracer.SetEnabled(true)
	measure("after recovery", sim.Second)
	tracer.SetEnabled(false)
	stopScrape()

	// Zero-lost-acknowledged-writes check: read back every acked write
	// through the survivors, over the still-lossy fabric.
	lost := 0
	if err := core.RunBody(k, prefillHorizon, func(p *sim.Proc) error {
		for _, a := range acked {
			got, err := c.Read(p, c.PickBlade(), "v", a.lba, 1, 0)
			if err != nil || got[0] != a.val || got[len(got)-1] != a.val {
				lost++
			}
		}
		return nil
	}); err != nil {
		panic(err)
	}

	tot := c.FabricTotals()
	f := c.Net.Faults
	tab.AddNote("both failures detected and recovered in %s ms of virtual time", fmtF(recoveryTook.Millis()))
	tab.AddNote("acknowledged writes: %d of %d attempted; lost after failures: %d (must be 0)",
		len(acked), attempted, lost)
	tab.AddNote("injected faults: %d dropped, %d duplicated, %d delayed",
		f.Dropped, f.Duplicated, f.Delayed)
	tab.AddNote("retry layer: %d timeouts, %d retries, %d gave-up calls, %d degraded ops",
		tot.RPC.Timeouts, tot.RPC.Retries, tot.RPC.GaveUp, tot.DegradedOps)
	tab.AddNote("%s", series.Spark("throughput over time"))
	tab.AddNote("per-phase latency breakdown (measured windows, lossy fabric; coherence includes nested fabric time):\n%s",
		tracer.BreakdownTable("").String())
	tab.AddNote("per-blade load over the telemetry window (blades 0–1 stop moving after the kill):\n%s",
		scr.SkewTable("E11 — per-blade ops", "blade/*/ops").String())
	tab.AddNote("%s", scr.Report().String())
	return tab
}
