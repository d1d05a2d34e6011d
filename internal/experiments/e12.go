package experiments

import (
	"math/rand"

	"repro/internal/balance"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
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
// recovers toward the uniform-workload baseline.
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

// E12Run is one scenario's measured window.
type E12Run struct {
	OpsPerSec float64
	MBps      float64
	CV        float64
	Ratio     float64 // max/mean per-blade load
}

// E12Result carries everything the E12 table and tests need.
type E12Result struct {
	Uniform  E12Run // uniform workload, balancing off (the baseline)
	Static   E12Run // Zipf workload, balancing off (the hot-spot)
	Balanced E12Run // Zipf workload, balancing on

	CVMax, RatioMax float64
	Migrations      int64
	Skipped         int64
	Decisions       []balance.Decision
	// Events is the balanced run's watchdog stream: hot-spot warn during
	// the skewed warm-up, the "rebalanced" clear once migration bites.
	Events []telemetry.Event
	// Skew is the balanced run's per-blade load table over the telemetry
	// window.
	Skew *metrics.Table
}

// e12Scenario runs one (workload, balancing) combination on a fresh
// kernel with the given seed and returns the measured window.
func e12Scenario(seed int64, zipf, balanced bool) (E12Run, *balance.Controller, *telemetry.Scraper) {
	const (
		blades = 8
		client = 32
		ws     = 8 << 10 // 32 MiB hot set, same as E3
		// Warm-up long enough for the caches to fill AND, in the balanced
		// scenario, for the feedback loop to detect and drain the skew, so
		// the measured window sees the converged state.
		warm = 4 * sim.Second
		dur  = 2 * sim.Second
	)
	k := sim.NewKernel(seed)
	cfg := clusterConfig(blades)
	// Two extra CPU slots per blade over the shared shape: the static-path
	// hot blade (~26% of the load) still saturates, but a converged
	// balanced run — the dominant key's fair-share-plus (~15%) on one
	// blade — fits with headroom, so throughput can actually recover.
	cfg.CPUSlots = 6
	c, err := controller.New(k, cfg)
	if err != nil {
		panic(err)
	}
	c.Pool.CreateDMSD("v", 1<<20)
	if err := prefillVolume(k, c, "v", ws); err != nil {
		panic(err)
	}
	target := &core.VolumeTarget{Cluster: c, Vol: "v", Pick: func(lba int64) *controller.Blade { return c.HomeBlade("v", lba) }}
	var pat func(int) workload.Pattern
	// Single-block ops: one op == one block == one directory key, so the
	// per-key heat the balancer plans with is exactly the per-blade load
	// the ops land (multi-block ops would smear one op's load across
	// keys homed on other blades).
	if zipf {
		pat = func(cl int) workload.Pattern {
			// Each client's value stream is bound at construction to its
			// own deterministic source (see workload.NewZipf).
			src := rand.New(rand.NewSource(seed*1009 + int64(cl) + 1))
			return workload.NewZipf(src, ws, 1.1, 1, 0)
		}
	} else {
		pat = func(int) workload.Pattern {
			return workload.Uniform{Range: ws, Blocks: 1, WriteFrac: 0}
		}
	}

	scr := telemetry.NewScraper(k, c.Reg, 100*sim.Millisecond)
	scr.AddWatchdog(&telemetry.HotSpot{Pattern: "blade/*/ops", CVMax: e12CVMax, RatioMax: e12RatioMax})
	scr.Start()
	var bal *balance.Controller
	if balanced {
		bal = c.NewBalancer(scr, balance.Config{
			CVMax:    e12CVMax,
			RatioMax: e12RatioMax,
			For:      2,
			MaxMoves: 16,
			// The Zipf skew is built from dozens of medium-heat keys
			// around one dominant one; reach deep into the movable tail.
			MinMoveFrac: 0.005,
		})
		bal.Start()
	}

	// Warm-up: caches fill and, in the balanced scenario, the feedback
	// loop detects the skew and drains it before the measured window.
	runWorkload(k, client, warm, target, pat)

	before := make([]int64, blades)
	for i, b := range c.Blades {
		before[i] = b.Ops
	}
	r := runWorkload(k, client, dur, target, pat)
	deltas := make([]float64, blades)
	for i, b := range c.Blades {
		deltas[i] = float64(b.Ops - before[i])
	}
	st := metrics.Summarize(deltas)
	run := E12Run{
		OpsPerSec: float64(r.Ops) / dur.Seconds(),
		MBps:      r.Bytes.MBps(),
		CV:        st.CV(),
	}
	if st.Mean > 0 {
		run.Ratio = st.Max / st.Mean
	}
	k.Close()
	return run, bal, scr
}

// RunE12 executes the three scenarios under one seed.
func RunE12(seed int64) E12Result {
	res := E12Result{CVMax: e12CVMax, RatioMax: e12RatioMax}
	res.Uniform, _, _ = e12Scenario(seed, false, false)
	res.Static, _, _ = e12Scenario(seed, true, false)
	var bal *balance.Controller
	var scr *telemetry.Scraper
	res.Balanced, bal, scr = e12Scenario(seed, true, true)
	res.Migrations = bal.Stats().Migrations
	res.Skipped = bal.Stats().Skipped
	res.Decisions = bal.Decisions()
	res.Events = scr.Events()
	res.Skew = scr.SkewTable("E12 — per-blade ops (balanced run)", "blade/*/ops")
	return res
}

// E12 renders the experiment table.
func E12(seed int64) *metrics.Table { return e12Table(RunE12(seed)) }

func e12Table(r E12Result) *metrics.Table {
	tab := metrics.NewTable("E12 — §2.2/§6.3: adaptive hot-spot rebalancing under static-path routing",
		"workload", "balancing", "ops/s", "MB/s", "load CV", "max/mean")
	tab.AddRow("uniform", "off", int64(r.Uniform.OpsPerSec), fmtF(r.Uniform.MBps), fmtF(r.Uniform.CV), fmtF(r.Uniform.Ratio))
	tab.AddRow("zipf s=1.1", "off", int64(r.Static.OpsPerSec), fmtF(r.Static.MBps), fmtF(r.Static.CV), fmtF(r.Static.Ratio))
	tab.AddRow("zipf s=1.1", "on", int64(r.Balanced.OpsPerSec), fmtF(r.Balanced.MBps), fmtF(r.Balanced.CV), fmtF(r.Balanced.Ratio))
	tab.AddNote("skew thresholds (watchdog = balancer): CV > %s, max/mean > %s", fmtF(r.CVMax), fmtF(r.RatioMax))
	tab.AddNote("balanced run: %d home migrations (%d declined), measured CV %s (threshold %s), ops/s %s%% of uniform baseline",
		r.Migrations, r.Skipped, fmtF(r.Balanced.CV), fmtF(r.CVMax),
		fmtF(100*r.Balanced.OpsPerSec/r.Uniform.OpsPerSec))
	for _, d := range r.Decisions {
		tab.AddNote("decision: %s", d)
	}
	for _, ev := range r.Events {
		tab.AddNote("event: %s", ev)
	}
	tab.AddNote("%s", r.Skew.String())
	return tab
}
