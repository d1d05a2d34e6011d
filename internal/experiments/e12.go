package experiments

import (
	"repro/internal/metrics"
	"repro/internal/telemetry"
)

// E12 — §2.2/§6.3: adaptive hot-spot rebalancing. E3 shows the pooled
// cache absorbing Zipf reads when clients round-robin across blades; E12
// models the harder case the paper's load-balancing claim is really
// about: SAN hosts with *static paths*, each op routed to the blade that
// homes its data. Under a Zipf workload the blades homing the hot blocks
// saturate their CPU slots while the rest idle. The balance controller
// watches the scraper's per-blade load series and migrates the directory
// homes of the hottest blocks off the sustained hot blade; routing
// follows the homes, so the skew drains and closed-loop throughput
// recovers toward the uniform-workload baseline. Its three arms are E15's
// arm at write fraction 0: uniform × off, static Zipf × off and static
// Zipf × migrate.
//
// Acceptance (checked by the E12 tests): with balancing on, the measured
// per-blade load CV falls below the hot-spot watchdog threshold, ops/s
// reaches ≥ 90% of the uniform baseline, and two same-seed runs render
// byte-identical tables — balancer decisions included.

// e12CVMax / e12RatioMax are the shared skew thresholds: the hot-spot
// watchdog warns on them and the balance controller acts on them.
const (
	e12CVMax    = 0.35
	e12RatioMax = 1.3
)

// E12Result carries everything the E12 table and tests need.
type E12Result struct {
	Uniform  E15Run // uniform workload, balancing off (the baseline)
	Static   E15Run // Zipf workload, balancing off (the hot-spot)
	Balanced E15Run // Zipf workload, balancing on

	// Events is the balanced run's watchdog stream: hot-spot warn during
	// the skewed warm-up, the "rebalanced" clear once migration bites.
	Events []telemetry.Event
	// Skew is the balanced run's per-blade load table over the telemetry
	// window.
	Skew *metrics.Table
}

// runE12 executes the three arms at the given scale under one seed.
func runE12(seed int64, sc e15Scale) E12Result {
	var r E12Result
	r.Uniform, _ = e15Arm(seed, sc, e15Uniform, "off", 0)
	r.Static, _ = e15Arm(seed, sc, e15StaticZipf, "off", 0)
	var scr *telemetry.Scraper
	r.Balanced, scr = e15Arm(seed, sc, e15StaticZipf, "migrate", 0)
	r.Events = scr.Events()
	r.Skew = scr.SkewTable("E12 — per-blade ops (balanced run)", "blade/*/ops")
	return r
}

// E12 renders the experiment table.
func E12(seed int64) *metrics.Table { return e12Table(runE12(seed, e15FullScale())) }

func e12Table(r E12Result) *metrics.Table {
	tab := metrics.NewTable("E12 — §2.2/§6.3: adaptive hot-spot rebalancing under static-path routing",
		"workload", "balancing", "ops/s", "MB/s", "load CV", "max/mean")
	tab.AddRow("uniform", "off", int64(r.Uniform.OpsPerSec), fmtF(r.Uniform.MBps), fmtF(r.Uniform.CV), fmtF(r.Uniform.Ratio))
	tab.AddRow("zipf s=1.1", "off", int64(r.Static.OpsPerSec), fmtF(r.Static.MBps), fmtF(r.Static.CV), fmtF(r.Static.Ratio))
	tab.AddRow("zipf s=1.1", "on", int64(r.Balanced.OpsPerSec), fmtF(r.Balanced.MBps), fmtF(r.Balanced.CV), fmtF(r.Balanced.Ratio))
	tab.AddNote("skew thresholds (watchdog = balancer): CV > %s, max/mean > %s", fmtF(e12CVMax), fmtF(e12RatioMax))
	tab.AddNote("balanced run: %d home migrations (%d declined), measured CV %s (threshold %s), ops/s %s%% of uniform baseline",
		r.Balanced.Migrations, r.Balanced.Skipped, fmtF(r.Balanced.CV), fmtF(e12CVMax),
		fmtF(100*r.Balanced.OpsPerSec/r.Uniform.OpsPerSec))
	for _, d := range r.Balanced.Decisions {
		tab.AddNote("decision: %s", d)
	}
	for _, ev := range r.Events {
		tab.AddNote("event: %s", ev)
	}
	tab.AddNote("%s", r.Skew.String())
	return tab
}
