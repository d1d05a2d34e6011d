package experiments

import (
	"fmt"

	"repro/internal/critpath"
	"repro/internal/metrics"
	"repro/internal/qos"
	"repro/internal/sim"
	"repro/internal/workload"
)

// CP1/CP2 — critical-path tail attribution. Where the phase histograms
// answer "how long did fabric spans take", the span-DAG analysis answers
// "how much of an op's wall clock did fabric *cause*": each traced op's
// critical path is reconstructed from parent links, concurrent siblings
// collapse into overlap instead of double-counting, and the ops are split
// into median (≤p50) and tail (≥p99) cohorts so the table shows which
// phase's share grows when an op lands in the tail. CP1 runs the canonical
// workload; CP2 re-runs the E14 PI-governor arm with tracing on during the
// loaded phase only, so the attribution isolates behavior under the scrub
// aggressor. Same seed → byte-identical tables.

// Canonical workload shape.
const (
	snapBlades  = 8
	snapClients = 32
	snapWS      = 4 << 10
	snapDur     = 2 * sim.Second
)

// canonicalTraced runs the canonical workload — an 8-blade cluster under
// a mixed read/write closed loop, warmed 2s untraced then measured 2s
// traced — and returns the lab whose tracer holds the traced window's
// span log. Deterministic per seed. The caller closes the lab once it has
// read the tracer.
func canonicalTraced(seed int64) *lab {
	l := newLab(seed, clusterConfig(snapBlades), "snap", snapWS)
	pat := func(int) workload.Pattern {
		return workload.Uniform{Range: snapWS, Blocks: 4, WriteFrac: 0.25}
	}
	// Warm untraced, then measure traced.
	l.run(snapClients, 2*sim.Second, pat)
	l.tr.SetEnabled(true)
	l.run(snapClients, snapDur, pat)
	l.tr.SetEnabled(false)
	return l
}

// runCritPath analyzes the canonical workload's span DAG under one seed.
// Deterministic per seed.
func runCritPath(seed int64) *critpath.Analysis {
	l := canonicalTraced(seed)
	defer l.close()
	return critpath.FromTracer(l.tr)
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
		runCritPath(seed))
}

// CP2 renders the E14 loaded-phase tail diagnosis: the E14 PI arm
// (reduced scale, step aggressor) traced during the loaded phase, so the
// tail attribution is for victim ops contended by the background scrub.
func CP2(seed int64) *metrics.Table {
	sc := e14Quick()
	sc.traced = true
	return cpTable("CP2 — critical-path tail diagnosis: E14 PI arm under scrub aggressor (loaded phase)",
		e14Arm(seed, sc, qos.GovPI, false).CritPath)
}
