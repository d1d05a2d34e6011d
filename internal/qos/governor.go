package qos

import (
	"fmt"
	"math"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// minBackgroundWeight is the floor the governor may squeeze the
// background lane down to: it never starves background work entirely,
// only slows it.
const minBackgroundWeight = 0.05

// weightEps is the smallest background-weight move worth applying;
// below it the actuation is noise (and would churn WFQ retagging).
const weightEps = 0.0005

// eventFrac is the fraction of the actuation range a weight move must
// cross to be worth a traced event. The PI controller adjusts every
// window; only meaningful moves should reach the event/trace stream.
const eventFrac = 0.02

// piFiltAlpha is the EWMA coefficient applied to each PI loop's
// normalized error before it drives the gains. A windowed p99 is
// quantized by histogram buckets (adjacent buckets are ~20% apart), so
// the raw error jitters bucket-to-bucket even in steady state; filtering
// keeps the actuator from chasing that quantization noise. The filter is
// asymmetric (peak-hold): error rising above the filtered value is
// believed at piFiltAlphaUp, falling error only at piFiltAlpha. A tail
// SLO is about peaks, so a pulsed aggressor must be regulated at its
// pulse peaks — a symmetric filter would average the on- and off-pulse
// windows and hold a weight whose on-pulses still breach.
const (
	piFiltAlpha   = 0.35
	piFiltAlphaUp = 0.6
)

// piDeadband is the filtered-error hold band: within ±piDeadband of the
// setpoint the loop freezes its output instead of dithering the weight.
// A law without exactly this hysteresis oscillates when the steady-state
// p99 lands near its threshold (see E14's history note).
const piDeadband = 0.15

// The PI loops' fixed tuning. Gains are dimensionless (the error is
// normalized against the setpoint), so one tuning serves every loop.
const (
	// piSetpointFrac places the setpoint below the objective: the loops
	// regulate the windowed p99 to 0.8×target, keeping headroom under the
	// SLO rather than riding it.
	piSetpointFrac = 0.8
	// piKP is the proportional gain: squeeze fraction per unit of
	// filtered normalized error. The error carries the ±piDeadband hold
	// band before the gains see it, so piKP acts on trend, not on
	// per-window p99 quantization noise.
	piKP = 0.6
	// piKI is the integral gain per window; the integral is clamped to
	// [0,1] (anti-windup) and bleeds off by piKI on thin windows so the
	// lane recovers when load stops.
	piKI = 0.2
)

// The signals the governor reads from the registry.
const (
	// clusterLatencyHist is the cluster-wide objective's histogram.
	clusterLatencyHist = "cluster/op_latency"
	// queueDepthPattern matches the per-disk queue-depth gauges.
	queueDepthPattern = "disk/*/queue_depth"
)

// GovernorConfig tunes the feedback loop between the telemetry scraper
// and the background lane's WFQ weight.
type GovernorConfig struct {
	// P99Target is the cluster-wide foreground latency objective
	// (typically the SLO watchdog's own threshold). 0 disables the
	// cluster-wide latency loop; per-tenant TenantSpec.SLOP99 loops run
	// regardless.
	P99Target sim.Duration
	// MinCount is the fewest window samples needed to judge a p99
	// (default 16).
	MinCount int64
	// QueueHigh is the mean per-disk queue depth treated as full-scale
	// pressure (default 6; 0 keeps the default, negative disables the
	// queue loop).
	QueueHigh float64
	// BGMax is the widest background weight — the actuation ceiling,
	// held when no loop sees pressure (default 1). The floor is
	// minBackgroundWeight.
	BGMax float64
}

func (c GovernorConfig) queueHigh() float64 {
	if c.QueueHigh == 0 {
		return 6
	}
	return c.QueueHigh
}

func (c GovernorConfig) minCount() int64 {
	if c.MinCount <= 0 {
		return 16
	}
	return c.MinCount
}

func (c GovernorConfig) bgMax() float64 {
	if c.BGMax <= 0 {
		return 1
	}
	return c.BGMax
}

// piLoop is one PI control loop: a latency objective (cluster-wide or one
// tenant's SLOP99) with its windowed-p99 snapshot and controller state.
// Error is normalized against the setpoint, so gains are dimensionless
// and shared across loops with very different targets:
//
//	e    = (window p99 − setpoint) / setpoint
//	integ = clamp(integ + piKI·e, 0, 1)      // anti-windup clamp
//	out   = clamp(piKP·e + integ, 0, 1)      // squeeze fraction
//
// A thin window (fewer than MinCount samples) is not judged; instead the
// integral bleeds off by piKI so the background lane recovers toward BGMax
// once foreground load stops, without ever acting on a noisy p99.
type piLoop struct {
	tenant string // "" for the cluster-wide objective
	target sim.Duration

	prevSnap metrics.HistogramSnapshot
	integ    float64
	filt     float64 // EWMA-filtered normalized error
	err      float64 // last (filtered) normalized error, for telemetry
	out      float64 // last squeeze fraction in [0,1], for telemetry
}

// Governor is a telemetry.Watchdog that adaptively trades background
// bandwidth for foreground latency.
//
// It runs one PI loop per latency objective — the cluster-wide P99Target
// plus one loop per tenant with a SLOP99 — and a proportional loop on
// mean disk queue depth. Each loop outputs a squeeze fraction in [0,1];
// the most-constrained loop wins (max), and the background lane's weight
// is set continuously to
//
//	w = BGMax · (minBackgroundWeight/BGMax)^u
//
// so actuation is bounded to [minBackgroundWeight, BGMax] by
// construction. The interpolation is geometric, not linear: queueing
// latency responds to weight ratios, so equal control steps should
// multiply the weight by equal factors, or the loop gain would vary
// wildly across the actuation range. There is no hysteresis counter to
// wind up and no fixed-size step to oscillate between: near the setpoint
// the moves shrink toward zero.
//
// Weight moves larger than eventFrac of the actuation range are emitted
// as watchdog events, which the scraper mirrors into the trace stream —
// so governor activity is visible in both `yottactl telemetry events`
// and trace exports without one event per window of micro-adjustment.
//
// Check is a pure function of the view and the governor's own state (the
// windowed-p99 snapshots, the loop integrals): no randomness, no wall
// clock, so same-seed runs make identical decisions.
type Governor struct {
	cfg GovernorConfig
	mgr *Manager

	loops []*piLoop
	lastU float64 // last winning squeeze fraction

	// Narrows and Widens count weight moves down/up, for telemetry and
	// experiment notes: any applied adjustment beyond weightEps.
	Narrows int64
	Widens  int64
}

// NewGovernor builds a governor driving mgr's background weight. PI
// loops are created for the cluster objective (when P99Target > 0) and
// for every tenant whose spec sets SLOP99, in sorted tenant order.
func NewGovernor(cfg GovernorConfig, mgr *Manager) *Governor {
	g := &Governor{cfg: cfg, mgr: mgr}
	if cfg.P99Target > 0 {
		g.loops = append(g.loops, &piLoop{target: cfg.P99Target})
	}
	for _, n := range mgr.sloTenants {
		g.loops = append(g.loops, &piLoop{tenant: n, target: mgr.cfg.Tenants[n].SLOP99})
	}
	return g
}

// Rule implements telemetry.Watchdog.
func (g *Governor) Rule() string { return "qos-governor" }

// Output reports the last winning squeeze fraction in [0,1].
func (g *Governor) Output() float64 { return g.lastU }

// LoopState reports one PI loop's last normalized error and squeeze
// fraction; tenant "" selects the cluster-wide loop. ok is false when no
// such loop exists.
func (g *Governor) LoopState(tenant string) (err, out float64, ok bool) {
	for _, lp := range g.loops {
		if lp.tenant == tenant {
			return lp.err, lp.out, true
		}
	}
	return 0, 0, false
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// histFor resolves the histogram one loop watches: the cluster loop reads
// the registry's cluster latency histogram; tenant loops read the
// manager's own per-tenant op-latency histograms (fed by
// controller.observeOp), which exist independent of any telemetry scope
// naming.
func (g *Governor) histFor(v *telemetry.View, lp *piLoop) *metrics.Histogram {
	if lp.tenant == "" {
		return v.Reg.HistogramFor(clusterLatencyHist)
	}
	return g.mgr.TenantHistogram(lp.tenant)
}

// Check implements telemetry.Watchdog: it runs every loop over the window
// and applies the winning squeeze.
func (g *Governor) Check(v *telemetry.View) []telemetry.Event {
	if !g.mgr.Enabled() {
		return nil
	}
	u := 0.0
	why := "no pressure"
	for _, lp := range g.loops {
		h := g.histFor(v, lp)
		if h == nil {
			// Histogram not registered (yet): hold this loop's state. Its
			// first appearance is baselined below and the very next window
			// is judged — there is no silently skipped window.
			continue
		}
		if v.First {
			lp.prevSnap = h.Snapshot()
			continue
		}
		n := h.CountSince(lp.prevSnap)
		setpoint := float64(lp.target) * piSetpointFrac
		if n < g.cfg.minCount() {
			// Thin window: no judgement, bleed the integral and the
			// error filter toward rest so the lane recovers when the
			// foreground goes quiet.
			lp.filt *= 1 - piFiltAlpha
			lp.err = 0
			lp.integ = clamp01(lp.integ - piKI)
			lp.out = lp.integ
		} else {
			p99 := h.QuantileSince(lp.prevSnap, 0.99)
			e := (float64(p99) - setpoint) / setpoint
			a := piFiltAlpha
			if e > lp.filt {
				a = piFiltAlphaUp
			}
			lp.filt = a*e + (1-a)*lp.filt
			lp.err = lp.filt
			if lp.filt > -piDeadband && lp.filt < piDeadband {
				// In the hold band: freeze the output rather than
				// dither the weight against p99 quantization noise.
				lp.out = lp.integ
			} else {
				lp.integ = clamp01(lp.integ + piKI*lp.filt)
				lp.out = clamp01(piKP*lp.filt + lp.integ)
			}
		}
		lp.prevSnap = h.Snapshot()
		if lp.out > u {
			u = lp.out
			name := lp.tenant
			if name == "" {
				name = "cluster"
			}
			why = fmt.Sprintf("%s loop: err %+.2f integ %.2f", name, lp.err, lp.integ)
		}
	}
	// Queue-pressure loop: proportional on mean disk queue depth, scaled
	// so depth at QueueHigh is full squeeze. Purely proportional — queue
	// depth is already an integral of over-admission, integrating it
	// again double-counts.
	if high := g.cfg.queueHigh(); high > 0 {
		if names := v.Reg.Match(queueDepthPattern); len(names) > 0 {
			sum := 0.0
			for _, n := range names {
				sum += v.Value(n)
			}
			mean := sum / float64(len(names))
			out := clamp01(1 + (mean-high)/high) // full squeeze at mean == high
			if out > u {
				u = out
				why = fmt.Sprintf("queue loop: mean depth %.1f vs %.1f", mean, high)
			}
		}
	}
	g.lastU = u

	bgMax := g.cfg.bgMax()
	next := bgMax * math.Pow(minBackgroundWeight/bgMax, u)
	cur := g.mgr.BackgroundWeight()
	delta := next - cur
	if delta > -weightEps && delta < weightEps {
		return nil
	}
	g.mgr.SetBackgroundWeight(next)
	sev := "info"
	verb := "widen"
	mag := delta
	if delta < 0 {
		g.Narrows++
		sev, verb, mag = "warn", "narrow", -delta
	} else {
		g.Widens++
	}
	if mag < eventFrac*(bgMax-minBackgroundWeight) {
		// Micro-adjustment: applied, but not worth a traced event.
		return nil
	}
	return []telemetry.Event{{Rule: g.Rule(), Severity: sev,
		Detail: fmt.Sprintf("%s background lane %.3g -> %.3g (u=%.2f): %s", verb, cur, next, u, why)}}
}
