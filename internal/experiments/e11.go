package experiments

import (
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/telemetry"
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
	l := newLab(seed, cfg, "v", ws)
	defer l.close() // after the notes below have read the tracer and the registry
	c := l.c
	pat := func(int) workload.Pattern {
		return workload.Uniform{Range: ws, Blocks: 4, WriteFrac: 0}
	}
	// Warm caches. Warming is slower than E10's because every dropped
	// fabric message costs a retry timeout; give it the same 8 s the
	// post-recovery re-warm gets so the before/after rows compare
	// like-for-like.
	l.run(clients, 8*sim.Second, pat)

	// Tracked write burst, outside the read working set: every write the
	// cluster acknowledges must survive the blade kills.
	var acked []ack
	l.do("E11 write burst", func(p *sim.Proc) error {
		acked = writeAcks(p, c, "v", ws, nAck)
		return nil
	})

	// Telemetry scraper over the measured windows: hot-spot, SLO (windowed
	// p99 against a 100 ms objective, client-visible errors, degraded-mode
	// duration) and stall watchdogs, sampling every 100 ms of virtual time.
	// Watchdog events also land in the trace stream while the tracer is on.
	scr := telemetry.NewScraper(l.k, c.Reg, 100*sim.Millisecond)
	scr.Tracer = l.tr
	scr.AddWatchdog(&telemetry.HotSpot{Pattern: "blade/*/ops"})
	scr.AddWatchdog(&telemetry.SLO{
		Hist:     "cluster/op_latency",
		P99Max:   100 * sim.Millisecond,
		Errors:   "cluster/errors",
		Degraded: "cluster/degraded_ops",
	})
	scr.AddWatchdog(&telemetry.Stall{Queue: "disk/*/queue_depth", Throughput: "cluster/ops"})
	stopScrape := scr.Start()
	recoveryTook, series := l.failover("E11", tab, clients, pat, true)
	stopScrape()

	// Zero-lost-acknowledged-writes check: read back every acked write
	// through the survivors, over the still-lossy fabric.
	lost := 0
	l.do("E11 read-back", func(p *sim.Proc) error {
		lost = lostAcks(p, c, "v", acked, c.PickBlade)
		return nil
	})

	tot := c.FabricTotals()
	f := c.Net.Faults
	tab.AddNote("both failures detected and recovered in %s ms of virtual time", fmtF(recoveryTook.Millis()))
	tab.AddNote("acknowledged writes: %d of %d attempted; lost after failures: %d (must be 0)",
		len(acked), nAck, lost)
	tab.AddNote("injected faults: %d dropped, %d duplicated, %d delayed",
		f.Dropped, f.Duplicated, f.Delayed)
	tab.AddNote("retry layer: %d timeouts, %d retries, %d gave-up calls, %d degraded ops",
		tot.RPC.Timeouts, tot.RPC.Retries, tot.RPC.GaveUp, tot.DegradedOps)
	tab.AddNote("%s", series.Spark("throughput over time"))
	tab.AddNote("per-phase latency breakdown (measured windows, lossy fabric; coherence includes nested fabric time):\n%s",
		l.tr.BreakdownTable("").String())
	tab.AddNote("per-blade load over the telemetry window (blades 0–1 stop moving after the kill):\n%s",
		scr.SkewTable("E11 — per-blade ops", "blade/*/ops").String())
	tab.AddNote("%s", scr.Report().String())
	return tab
}
