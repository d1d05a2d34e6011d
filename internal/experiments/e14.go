package experiments

import (
	"fmt"

	"repro/internal/controller"
	"repro/internal/critpath"
	"repro/internal/metrics"
	"repro/internal/qos"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// E14 — governor step response: the per-tenant PI governor under two
// aggressor loads on identical seeds. A victim tenant with a per-tenant
// SLO runs throughout; at onset a background scrub aggressor (blade CPU
// burn + parity reads on the background lane, the §2.4 maintenance mix)
// either switches on and stays on (step load) or pulses (burst load). A
// recorder watchdog behind the governor captures every scrape window's
// victim p99 and the post-decision background weight, giving an
// actuation trace per arm.
//
// Acceptance (checked by TestE14Quick against the numbers the retired
// halve/double law last recorded on the same arms, kept in EXPERIMENTS.md's
// E14 history note): on both loads the governor settles onto the SLO no
// later than that law (strictly sooner on the step load), breaches it in
// no more windows, oscillates no more (actuation reversals), and keeps the victim's steady-state p99 —
// the second half of the loaded phase, after the governor has had ample
// time to converge — within the SLO, without starving the scrub.
// Loaded-phase-wide p99 is reported too, but it is dominated by the onset
// transient, which the settle and violation columns already measure. Same
// seed → byte-identical tables.
const (
	// e14Interval is the scrape window the governor acts on.
	e14Interval = 100 * sim.Millisecond
	// e14MinCount mirrors GovernorConfig.MinCount for window judging.
	e14MinCount = 8
	// e14BGMax is the actuation ceiling. It deliberately over-provisions
	// the maintenance mix — at the ceiling the background lane's
	// per-cost tag spacing matches the victim lane's (weight 8, typical
	// op cost 1 vs scrub cost 4), so an ungoverned scrub storm genuinely
	// tramples the victim — and it is the governor, not a static weight,
	// that has to take that bandwidth away. The governor's floor (0.05)
	// all but starves the scrub.
	e14BGMax = 32.0
	// e14ReversalRatio is the weight move below which a window-to-window
	// change is jitter, not actuation. The governor acts geometrically
	// (it interpolates in log space), so the threshold is a ratio: a move
	// counts only if the weight changed by at least ×1.25 in either
	// direction.
	e14ReversalRatio = 1.25
)

// e14Scale sizes one E14 run.
type e14Scale struct {
	blades    int
	victims   int
	victimWS  int64 // victim hot set, blocks
	target    sim.Duration
	scrubbers int // background scrub workers per blade
	pre       sim.Duration
	load      sim.Duration
	post      sim.Duration
	// burst pulse geometry (burst shape only).
	burstOn  sim.Duration
	burstOff sim.Duration
	// traced enables the arm's tracer during the loaded phase only, so
	// the span log isolates behavior under contention.
	traced bool
}

func e14Full() e14Scale {
	return e14Scale{
		blades:    6,
		victims:   8,
		victimWS:  1 << 17,
		target:    55 * sim.Millisecond,
		scrubbers: 8,
		pre:       600 * sim.Millisecond,
		load:      3 * sim.Second,
		post:      800 * sim.Millisecond,
		burstOn:   400 * sim.Millisecond,
		burstOff:  300 * sim.Millisecond,
	}
}

func e14Quick() e14Scale {
	return e14Scale{
		blades:    4,
		victims:   8,
		victimWS:  1 << 17,
		target:    55 * sim.Millisecond,
		scrubbers: 8,
		pre:       400 * sim.Millisecond,
		load:      1500 * sim.Millisecond,
		post:      500 * sim.Millisecond,
		burstOn:   300 * sim.Millisecond,
		burstOff:  200 * sim.Millisecond,
	}
}

// e14Window is one scrape window of the actuation trace: victim-visible
// op count and windowed p99, plus the background weight after the
// governor's decision for that window.
type e14Window struct {
	n   int64
	p99 sim.Duration
	w   float64
}

// e14Recorder is a telemetry watchdog attached after the governor, so
// each window it sees the same histogram delta the governor judged and
// the weight the governor just set.
type e14Recorder struct {
	mgr  *qos.Manager
	prev metrics.HistogramSnapshot
	wins []e14Window
}

func (r *e14Recorder) Rule() string { return "e14-recorder" }

func (r *e14Recorder) Check(v *telemetry.View) []telemetry.Event {
	h := v.Reg.HistogramFor("cluster/op_latency")
	if h == nil {
		return nil
	}
	if v.First {
		r.prev = h.Snapshot()
		return nil
	}
	w := e14Window{n: h.CountSince(r.prev), w: r.mgr.BackgroundWeight()}
	if w.n > 0 {
		w.p99 = h.QuantileSince(r.prev, 0.99)
	}
	r.prev = h.Snapshot()
	r.wins = append(r.wins, w)
	return nil
}

// e14Aggressor drives the background scrub load: per-blade workers on the
// background lane looping blade-CPU burns and parity-read scrub shards
// until stopped. The burst shape gates work through on/off pulses aligned
// to the load phase start.
type e14Aggressor struct {
	c       *controller.Cluster
	stopped bool
	next    int
	Chunks  int64
}

func (a *e14Aggressor) start(k *sim.Kernel, sc e14Scale, burst bool) {
	type job struct {
		g      int
		lo, hi int64
	}
	// Small shards matter here: a 256-stripe shard is one enormous
	// non-preemptive disk transfer, and a victim op that queues behind it
	// eats the whole service time no matter what the WFQ weight says —
	// the governor's actuator would be disconnected from the victim's
	// p99. Short shards keep each background op small so the weight
	// genuinely modulates the victim tail.
	var jobs []job
	const shard = 4
	burn := controller.RebuildComputePerChunk * shard / 256
	for gi, g := range a.c.Groups {
		for lo := int64(0); lo < g.Stripes(); lo += shard {
			hi := lo + shard
			if hi > g.Stripes() {
				hi = g.Stripes()
			}
			jobs = append(jobs, job{g: gi, lo: lo, hi: hi})
		}
	}
	start := k.Now()
	cycle := sc.burstOn + sc.burstOff
	for _, b := range a.c.Blades {
		b := b
		for w := 0; w < sc.scrubbers; w++ {
			k.Go(fmt.Sprintf("e14-scrub/blade%d", b.ID), func(q *sim.Proc) {
				qos.TagBackground(q)
				for !a.stopped {
					if burst {
						// Off-pulse: sleep to the next on-pulse edge.
						into := q.Now().Sub(start) % cycle
						if into >= sc.burstOn {
							q.Sleep(cycle - into)
							continue
						}
					}
					j := jobs[a.next%len(jobs)]
					a.next++
					b.Engine.Busy(q, burn)
					if _, err := a.c.Groups[j.g].ScrubRange(q, j.lo, j.hi); err != nil {
						panic(fmt.Sprintf("e14 scrub: %v", err))
					}
					a.Chunks++
				}
			})
		}
	}
}

// E14Arm is one load shape's measurements.
type E14Arm struct {
	// Loaded-phase victim latency and throughput. SteadyP99 covers only
	// the second half of the loaded phase, after the governor has had
	// ample time to converge — the whole-phase p99 is dominated by the
	// onset transient, which the settle/violation columns measure.
	VictimP50, VictimP99 sim.Duration
	SteadyP99            sim.Duration
	VictimOpsPerSec      float64

	// Actuation-trace metrics over the loaded phase.
	// ConvergeWindows is the settling time: the 1-based index just past
	// the last judged window whose p99 still violated the target — i.e.
	// how many windows until the SLO held for the rest of the load. A
	// governor that squeezes fast but relapses keeps pushing this out; 0
	// means never violated.
	ConvergeWindows  int
	ViolationWindows int // judged windows with p99 > target
	Reversals        int // direction flips of significant weight moves
	WeightLo         float64
	WeightHi         float64
	FinalWeight      float64
	Narrows, Widens  int64
	ScrubChunks      int64
	Trace            []float64 // per-window background weight (loaded phase)

	// CritPath is the critical-path analysis of the loaded-phase span log
	// when e14Scale.traced is set (nil otherwise), taken before the arm's
	// kernel is closed.
	CritPath *critpath.Analysis

	// wins is the raw loaded-phase window series (tests poke at it).
	wins []e14Window
}

// e14Arm runs the governor under one load shape on a fresh lab.
func e14Arm(seed int64, sc e14Scale, burst bool) E14Arm {
	cfg := clusterConfig(sc.blades)
	cfg.QoS = &qos.Config{
		Tenants: map[string]qos.TenantSpec{
			"victim": {SLOP99: sc.target},
		},
		Governor: qos.GovernorConfig{
			P99Target: sc.target,
			MinCount:  e14MinCount,
			QueueHigh: -1, // isolate the latency loops: identical signal per arm
			BGMax:     e14BGMax,
		},
	}
	l := newLab(seed, cfg, "v", sc.victimWS)
	defer l.close()
	k, c := l.k, l.c
	c.QoS.SetEnabled(true)
	c.QoS.SetBackgroundWeight(e14BGMax) // every arm starts parked at the ceiling
	scr := telemetry.NewScraper(k, c.Reg, e14Interval)
	scr.AddWatchdog(c.QoS.AttachGovernor(cfg.QoS.Governor))
	rec := &e14Recorder{mgr: c.QoS}
	scr.AddWatchdog(rec)
	scr.Start()

	l.target.Tenant, l.target.Priority = "victim", 3
	pat := func(int) workload.Pattern { return workload.Uniform{Range: sc.victimWS, Blocks: 4} }

	// Pre phase: victim alone, governor parked at BGMax.
	l.run(sc.victims, sc.pre, pat)

	// Onset: the aggressor switches on; the measured victim runner rides
	// through the whole loaded phase.
	onset := len(rec.wins)
	l.tr.SetEnabled(sc.traced)
	agg := &e14Aggressor{c: c}
	vr := l.loop(sc.victims, sc.load, pat)
	vr.Start()
	agg.start(k, sc, burst)
	half := sc.load / 2
	k.RunFor(half)
	steadySnap := vr.Latency.Snapshot()
	k.RunFor(sc.load - half)
	vr.Bytes.CloseAt(k.Now())
	agg.stopped = true
	l.tr.SetEnabled(false)
	loadEnd := len(rec.wins)

	// Post phase: aggressor off, weight free to recover.
	l.run(sc.victims, sc.post, pat)

	arm := E14Arm{
		VictimP50:       vr.Latency.P50(),
		VictimP99:       vr.Latency.P99(),
		SteadyP99:       vr.Latency.QuantileSince(steadySnap, 0.99),
		VictimOpsPerSec: float64(vr.Ops) / sc.load.Seconds(),
		FinalWeight:     c.QoS.BackgroundWeight(),
		ScrubChunks:     agg.Chunks,
	}
	if sc.traced {
		arm.CritPath = critpath.FromTracer(l.tr)
	}
	g := c.QoS.Governor()
	arm.Narrows, arm.Widens = g.Narrows, g.Widens

	loaded := rec.wins[onset:loadEnd]
	arm.wins = loaded
	arm.WeightLo, arm.WeightHi = e14BGMax, 0.0
	lastDir := 0
	prevW := e14BGMax
	if onset > 0 {
		prevW = rec.wins[onset-1].w
	}
	for i, w := range loaded {
		arm.Trace = append(arm.Trace, w.w)
		if w.w < arm.WeightLo {
			arm.WeightLo = w.w
		}
		if w.w > arm.WeightHi {
			arm.WeightHi = w.w
		}
		if w.n >= e14MinCount && w.p99 > sc.target {
			arm.ViolationWindows++
			arm.ConvergeWindows = i + 1
		}
		if r := w.w / prevW; r >= e14ReversalRatio || r <= 1/e14ReversalRatio {
			dir := 1
			if r < 1 {
				dir = -1
			}
			if lastDir != 0 && dir != lastDir {
				arm.Reversals++
			}
			lastDir = dir
		}
		prevW = w.w
	}
	return arm
}

// E14Result carries both load shapes' arms.
type E14Result struct {
	Target sim.Duration
	Step   E14Arm // step aggressor (on and stays on)
	Burst  E14Arm // pulsed aggressor
}

// runE14 executes both arms at the given scale under one seed.
func runE14(seed int64, sc e14Scale) E14Result {
	return E14Result{
		Target: sc.target,
		Step:   e14Arm(seed, sc, false),
		Burst:  e14Arm(seed, sc, true),
	}
}

func e14Table(title string, r E14Result) *metrics.Table {
	tab := metrics.NewTable(title,
		"arm", "victim p50 ms", "victim p99 ms", "steady p99 ms", "victim ops/s",
		"settle (windows)", "violations", "reversals", "bg weight [lo..hi]")
	row := func(name string, a E14Arm) {
		tab.AddRow(name, fmtDur(a.VictimP50), fmtDur(a.VictimP99), fmtDur(a.SteadyP99),
			int64(a.VictimOpsPerSec), int64(a.ConvergeWindows), int64(a.ViolationWindows),
			int64(a.Reversals), fmt.Sprintf("[%s..%s]", fmtF(a.WeightLo), fmtF(a.WeightHi)))
	}
	row("step load, PI governor", r.Step)
	row("burst load, PI governor", r.Burst)
	tab.AddNote("victim SLO p99 %s ms, judged per %d ms scrape window (min %d ops); steady p99 covers the second half of the loaded phase",
		fmtDur(r.Target), int64(e14Interval.Millis()), int64(e14MinCount))
	note := func(name string, a E14Arm) {
		tab.AddNote("%s: %d narrows %d widens, final bg weight %s, scrub chunks %d, weight trace %s",
			name, a.Narrows, a.Widens, fmtF(a.FinalWeight), a.ScrubChunks, metrics.Sparkline(a.Trace))
	}
	note("step/PI", r.Step)
	note("burst/PI", r.Burst)
	return tab
}

// E14 renders the experiment table.
func E14(seed int64) *metrics.Table {
	return e14Table("E14 — governor step response: per-tenant PI control under step and burst load",
		runE14(seed, e14Full()))
}

// E14Q renders the reduced-scale table (CI smoke).
func E14Q(seed int64) *metrics.Table {
	return e14Table("E14Q — governor step response, reduced scale (CI smoke)",
		runE14(seed, e14Quick()))
}
