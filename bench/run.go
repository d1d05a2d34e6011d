package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/critpath"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// runResult is one workload run: set-up, a drained measure phase and its
// verification, on one fresh system that is closed before it returns.
type runResult struct {
	ops   int
	setup setupTime
	load  loadResult
	lost  int // acknowledged writes the read-back did not find
	// diskQueueMax is the deepest per-disk queue seen at the 10 ms virtual
	// sampling of the measure phase (the drives' own high-water mark is a
	// lifetime value that set-up already raised).
	diskQueueMax int
	firstErr     string
	boundary     values  // per-layer boundary counts over the measure phase
	traced       values  // per-layer budget of a traced run (nil when untraced)
	traceNote    string  // where a traced run wrote its spans
	liveHeapMiB  float64 // HeapAlloc after runtime.GC() at the end of measure
	peakRSSMiB   float64
	goroutines   int // runtime.NumGoroutine after Stop + Kernel.Close
}

func (r *runResult) failed() int   { return r.load.failed + r.lost }
func (r *runResult) correct() bool { return r.failed() == 0 && r.firstErr == "" }

// setupTime is one set-up's wall time, as read and normalised by the
// yardstick readings around it (see takeYardstick).
type setupTime struct {
	wall, normalised time.Duration
}

// setUp builds, prefills, flushes and warms one system.
func setUp(w workloadDef, seed int64, sz sizing, traced bool) (*instance, setupTime, error) {
	sw := startStopwatch()
	in, err := w.build(seed, sz, traced, sw)
	if err != nil {
		return nil, setupTime{}, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	warm := runLoad(in.k, seed, w.clients, sz.warmOps(w), in.op, nil, sw.lapIfDue, false)
	if warm.failed > 0 {
		in.close()
		return nil, setupTime{}, fmt.Errorf("%s: %d warm-up ops failed, first: %s", w.name, warm.failed, warm.firstErr)
	}
	sw.lap()
	return in, setupTime{sw.wall, sw.norm}, nil
}

// runWorkload runs w once. frac scales the measure phase only (the traced
// run and its untraced twin issue the first quarter of the ops).
func runWorkload(w workloadDef, seed int64, sz sizing, frac float64, traced bool) (*runResult, error) {
	in, setup, err := setUp(w, seed, sz, traced)
	if err != nil {
		return nil, err
	}
	r := &runResult{setup: setup, ops: int(float64(sz.measureOps(w)) * frac)}

	var spans *spanLog
	if traced {
		spans = in.spans
		in.tracer.SetCap(1 << 30) // nothing may be dropped: memory is the bound
		in.tracer.SetEnabled(true)
	}
	before := sample(in)
	runtime.GC() // every run measures from a collected heap
	r.load = runLoad(in.k, seed+1, w.clients, r.ops, in.op, spans, func() {
		for _, d := range in.cluster.Farm.Disks {
			r.diskQueueMax = max(r.diskQueueMax, d.QueueDepth())
		}
	}, true)
	in.tracer.SetEnabled(false)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.liveHeapMiB = float64(ms.HeapAlloc) / (1 << 20)
	r.boundary = boundaryCounts(in, before, sample(in), r)
	r.firstErr = r.load.firstErr

	if in.readBack != nil {
		err := runProc(in.k, "bench-readback", func(p *sim.Proc) error {
			var err error
			r.lost, err = in.readBack(p)
			return err
		})
		if err != nil && r.firstErr == "" {
			r.firstErr = strings.SplitN(err.Error(), "\n", 2)[0]
		}
	}
	// The smoke test's shrunken data sets cycle too fast to hold a regime.
	if err := checkRegime(w.name, r.boundary); err != nil && sz.data == 1 && r.firstErr == "" {
		r.firstErr = err.Error()
	}
	if traced {
		if r.traced, r.traceNote, err = analyzeTrace(in, w.name); err != nil && r.firstErr == "" {
			r.firstErr = err.Error()
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		r.peakRSSMiB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	in.close()
	r.goroutines = runtime.NumGoroutine()
	return r, nil
}

// checkRegime holds each bypass workload to the regime its "why" claims; a
// benchmark that silently left it would measure something else.
func checkRegime(workload string, b values) error {
	switch workload {
	case "block-read-hot":
		if b["cache.hit_ratio"] < 0.999 || b["disk.ios_per_op"] != 0 {
			return fmt.Errorf("block-read-hot left its regime: cache.hit_ratio %.4f, disk.ios_per_op %g",
				b["cache.hit_ratio"], b["disk.ios_per_op"])
		}
	case "pfs-stream":
		if b["cache.hit_ratio"] >= 0.05 {
			return fmt.Errorf("pfs-stream left its regime: cache.hit_ratio %.4f", b["cache.hit_ratio"])
		}
	}
	return nil
}

// simMetrics are the virtual-clock end-to-end metrics of a run; they must
// repeat exactly for one seed, traced or not.
func (r *runResult) simMetrics() values {
	sorted := sortedCopy(r.load.lat)
	p50, _ := percentile(sorted, 0.50)
	p99, _ := percentile(sorted, 0.99)
	secs := r.load.virt.Seconds()
	return values{
		"sim_ops_per_s": float64(r.ops) / secs,
		"sim_mb_per_s":  float64(r.load.bytes) / 1e6 / secs,
		"sim_p50_ms":    p50.Millis(),
		"sim_p99_ms":    p99.Millis(),
	}
}

// endToEndMetrics are every end-to-end metric but setup_s, which the
// caller takes as the median of several set-ups.
func (r *runResult) endToEndMetrics() values {
	v := r.simMetrics()
	n := float64(r.ops)
	v.merge(values{
		"host_us_per_op":       float64(r.load.hostNorm.Nanoseconds()) / 1e3 / n,
		"host_allocs_per_op":   float64(r.load.mallocs) / n,
		"host_alloc_kb_per_op": float64(r.load.allocB) / 1024 / n,
		"host_live_heap_mb":    r.liveHeapMiB,
		"host_peak_rss_mb":     r.peakRSSMiB,
	})
	return v
}

// ---- boundary counts ----

// snapshot is every registry series plus the public Stats the registry
// does not carry, read at one instant.
type snapshot struct {
	reg        map[string]float64
	pfsR, pfsW int64
	iam        metrics.HistogramSnapshot
}

func sample(in *instance) snapshot {
	names, vals := in.cluster.Reg.Sample()
	s := snapshot{reg: make(map[string]float64, len(names))}
	for i, n := range names {
		s.reg[n] = vals[i]
	}
	if in.fs != nil {
		s.pfsR, s.pfsW = in.fs.BytesRead, in.fs.BytesWritten
	}
	if h := in.cluster.Reg.HistogramFor("gateway/iam/latency"); h != nil {
		s.iam = h.Snapshot()
	}
	return s
}

// boundaryCounts turns two snapshots around the measure phase into the
// per-layer counts, most of them per outer benchmark op.
func boundaryCounts(in *instance, a, b snapshot, r *runResult) values {
	// deltas returns the change of every series matching pattern.
	deltas := func(pattern string) []float64 {
		var out []float64
		for _, n := range in.cluster.Reg.Match(pattern) {
			out = append(out, b.reg[n]-a.reg[n])
		}
		return out
	}
	sum := func(pattern string) float64 {
		var t float64
		for _, d := range deltas(pattern) {
			t += d
		}
		return t
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	ops := float64(r.ops)
	virtMs := r.load.virt.Millis()
	hits, misses := sum("blade/*/cache/hits"), sum("blade/*/cache/misses")
	diskIOs := sum("disk/*/reads") + sum("disk/*/writes")
	diskBusy := deltas("disk/*/busy_ms")
	shardBusy := deltas("gateway/meta/shard/*/busy_ms")
	v := values{
		"cache.hit_ratio":                ratio(hits, hits+misses),
		"cache.evictions_per_op":         sum("blade/*/cache/evictions") / ops,
		"coherence.local_hit_ratio":      ratio(sum("blade/*/coh/local_hits"), sum("blade/*/coh/reads")),
		"coherence.dir_requests_per_op":  sum("blade/*/coh/dir_requests") / ops,
		"coherence.invalidations_per_op": sum("blade/*/coh/invalidations") / ops,
		"coherence.peer_fetches_per_op":  sum("blade/*/coh/peer_fetches") / ops,
		"coherence.disk_reads_per_op":    sum("blade/*/coh/disk_reads") / ops,
		"coherence.writebacks_per_op":    sum("blade/*/coh/writebacks") / ops,
		"coherence.write_retries_per_op": sum("blade/*/coh/write_retries") / ops,
		"coherence.degraded_ops":         sum("blade/*/coh/degraded_ops"),
		"simnet.rpc_calls_per_op":        sum("blade/*/rpc/calls") / ops,
		"simnet.bytes_per_op":            sum("net/link/*/bytes") / ops,
		"simnet.retries":                 sum("blade/*/rpc/retries"),
		"simnet.timeouts":                sum("blade/*/rpc/timeouts"),
		"simnet.gave_up":                 sum("blade/*/rpc/gave_up"),
		"replication.puts_per_op":        sum("blade/*/repl/puts") / ops,
		"controller.blade_ops_cv":        metrics.Summarize(deltas("blade/*/ops")).CV(),
		"controller.ops_per_op":          sum("cluster/op_latency/count") / ops,
		"disk.ios_per_op":                diskIOs / ops,
		"disk.busy_mean_frac":            metrics.Summarize(diskBusy).Mean / virtMs,
		"disk.busy_max_frac":             metrics.Summarize(diskBusy).Max / virtMs,
		"disk.queue_max":                 float64(r.diskQueueMax),
		"raid.disk_bytes_per_user_byte":  ratio(sum("disk/*/bytes_read")+sum("disk/*/bytes_written"), float64(r.load.bytes)),
		"pfs.bytes_read":                 float64(b.pfsR - a.pfsR),
		"pfs.bytes_written":              float64(b.pfsW - a.pfsW),
		"gateway.iam_p99_ms":             0,
		"gateway.index_ops_per_op":       sum("gateway/meta/shard/*/ops") / ops,
		"gateway.index_busy_max_frac":    metrics.Summarize(shardBusy).Max / virtMs,
		"gateway.index_busy_cv":          metrics.Summarize(shardBusy).CV(),
	}
	if h := in.cluster.Reg.HistogramFor("gateway/iam/latency"); h != nil {
		v["gateway.iam_p99_ms"] = h.QuantileSince(a.iam, 0.99).Millis()
	}
	return v
}

// ---- traced run ----

// analyzeTrace turns a traced run's spans into the virtual-clock budget:
// the tracer's spans through critpath (below the controller), the
// benchmark's own spans for what lies above it. It writes the spans out
// and returns an error when the budget does not tile.
func analyzeTrace(in *instance, workload string) (v values, note string, err error) {
	a := critpath.FromTracer(in.tracer)
	v = values{"trace.dropped_spans": float64(in.tracer.Dropped())}
	_, tail := a.Cohorts()
	var tiled float64
	for pi, ph := range trace.Phases {
		layer, budgeted := phaseLayer[ph]
		if !budgeted || ph == trace.CacheHit {
			continue // instant markers own no time
		}
		share := 0.0
		if a.Wall > 0 {
			share = 100 * float64(a.ByPhase[pi].Critical) / float64(a.Wall)
		}
		v[layer+".crit_share_pct"] = share
		v[layer+".tail_share_pct"] = tail.Share(pi)
		tiled += share
	}
	self, covered := in.spans.aboveControllerShare()
	v["above_controller.self_share_pct"] = self

	path, err := in.spans.writeJSONL(workload)
	if err != nil {
		return v, "", err
	}
	note = fmt.Sprintf("%d benchmark spans + %d tracer spans -> %s", len(in.spans.spans), len(in.tracer.Spans()), path)
	switch {
	case in.tracer.Dropped() != 0 || a.Truncated != 0:
		err = fmt.Errorf("trace lost spans: %d dropped, %d ops truncated", in.tracer.Dropped(), a.Truncated)
	case a.Check() != nil:
		err = a.Check()
	case tiled < 99:
		err = fmt.Errorf("the six crit shares cover %.2f%% of controller-op wall time, want >= 99", tiled)
	case math.Abs(self+covered-100) > 1e-6:
		err = fmt.Errorf("above-controller self %.4f%% + BlockIO union %.4f%% != 100%%", self, covered)
	case len(a.Ops) != in.spans.controllerOps():
		err = fmt.Errorf("tracer analysed %d controller ops, the benchmark spanned %d", len(a.Ops), in.spans.controllerOps())
	}
	return v, note, err
}
