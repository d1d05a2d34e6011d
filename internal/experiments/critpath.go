package experiments

import (
	"fmt"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/critpath"
	"repro/internal/metrics"
	"repro/internal/qos"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// CP1/CP2 — critical-path tail attribution. Where the phase histograms
// answer "how long did fabric spans take", the span-DAG analysis answers
// "how much of an op's wall clock did fabric *cause*": each traced op's
// critical path is reconstructed from parent links, concurrent siblings
// collapse into overlap instead of double-counting, and the ops are split
// into median (≤p50) and tail (≥p99) cohorts so the table shows which
// phase's share grows when an op lands in the tail. CP1 runs the canonical
// workload on the unbatched plane (B6 runs it on both); CP2 re-runs the E14
// PI-governor arm with tracing on during the loaded phase only, so the
// attribution isolates behavior under the scrub aggressor. Same seed →
// byte-identical tables.

// Canonical workload shape, shared by CP1 and B6 so their numbers
// describe the same run.
const (
	snapBlades  = 8
	snapClients = 32
	snapWS      = 4 << 10
	snapDur     = 2 * sim.Second
)

// canonicalTraced runs the canonical workload — an 8-blade cluster under
// a mixed read/write closed loop, warmed 2s untraced then measured 2s
// traced — and returns the traced window's workload result plus the
// tracer holding its span log. Deterministic per seed. The caller closes
// the kernel once it has read the tracer: Close unwinds the ops still in
// flight, and their deferred span ends would land in the span log.
func canonicalTraced(seed int64, batched bool) (*sim.Kernel, *workload.Runner, *trace.Tracer) {
	k := sim.NewKernel(seed)
	cfg := clusterConfig(snapBlades)
	cfg.FabricBatch = batched
	tracer := trace.NewTracer(k)
	cfg.Tracer = tracer
	c, err := controller.New(k, cfg)
	if err != nil {
		panic(err)
	}
	if _, err := c.Pool.CreateDMSD("snap", 1<<20); err != nil {
		panic(err)
	}
	target := &core.VolumeTarget{Cluster: c, Vol: "snap"}
	if err := prefillVolume(k, c, "snap", snapWS); err != nil {
		panic(err)
	}
	pat := func(int) workload.Pattern {
		return workload.Uniform{Range: snapWS, Blocks: 4, WriteFrac: 0.25}
	}
	// Warm untraced, then measure traced.
	runWorkload(k, snapClients, 2*sim.Second, target, pat)
	tracer.SetEnabled(true)
	r := runWorkload(k, snapClients, snapDur, target, pat)
	tracer.SetEnabled(false)
	return k, r, tracer
}

// RunCritPath analyzes the canonical workload's span DAG under one seed.
// Deterministic per seed.
func RunCritPath(seed int64) *critpath.Analysis {
	k, _, tracer := canonicalTraced(seed, false)
	defer k.Close()
	return critpath.FromTracer(tracer)
}

// RunCritPathE14 re-runs the E14 PI arm (reduced scale, step aggressor)
// with tracing enabled during the loaded phase and returns its analysis:
// tail attribution for victim ops contended by the background scrub.
func RunCritPathE14(seed int64) *critpath.Analysis {
	sc := e14Quick()
	sc.traced = true
	return e14Arm(seed, sc, qos.GovPI, false).CritPath
}

// cpTable renders one analysis as its tail-diagnosis table with the
// one-line summary and identity-check verdict attached.
func cpTable(title string, a *critpath.Analysis) *metrics.Table {
	tab := a.TailTable(title)
	tab.AddNote("%s", a.Summary())
	check := "true"
	if err := a.Check(); err != nil {
		check = fmt.Sprintf("FAILED: %v", err)
	}
	tab.AddNote("attribution identities (wall = Σ critical; total = critical+delegated+overlap): %s", check)
	return tab
}

// CP1 renders the canonical-workload tail diagnosis.
func CP1(seed int64) *metrics.Table {
	return cpTable("CP1 — critical-path tail diagnosis: canonical workload, median vs p99+ ops",
		RunCritPath(seed))
}

// CP2 renders the E14 loaded-phase tail diagnosis.
func CP2(seed int64) *metrics.Table {
	return cpTable("CP2 — critical-path tail diagnosis: E14 PI arm under scrub aggressor (loaded phase)",
		RunCritPathE14(seed))
}

// B6 runs the canonical workload on the unbatched fabric plane and again
// with FabricBatch on — the comparison ROADMAP item 3 needs to pick one.
func B6(seed int64) *metrics.Table {
	tab := metrics.NewTable("B6 — canonical workload: unbatched vs batched fabric plane",
		"plane", "ops", "op p99 ms", "fabric p99 ms")
	for _, plane := range []string{"unbatched", "batched"} {
		k, r, tracer := canonicalTraced(seed, plane == "batched")
		tab.AddRow(plane, r.Ops, fmtDur(r.Latency.P99()),
			fmtDur(tracer.PhaseHistogram(trace.Fabric).P99()))
		k.Close()
	}
	tab.AddNote("%d blades, %d closed-loop clients, uniform 4-block ops, 25%% writes, 2 s warm + 2 s traced",
		snapBlades, snapClients)
	return tab
}
