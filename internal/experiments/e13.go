package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/qos"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// E13 — §2.4/§4: multi-tenant isolation under admission control and
// weighted-fair I/O scheduling. A small victim tenant with a hot working
// set and the highest cache priority shares the cluster with a saturating
// aggressor tenant and a concurrent distributed rebuild — the exact mix
// the paper's "storage services do not impede foreground I/O" claim is
// about. Three arms on the same seed:
//
//	solo — the victim alone on an idle cluster: the baseline p99.
//	QoS on — admission throttles the aggressor to its bucket rate, WFQ
//	  gives the victim's lane 8× the aggressor's share of every disk and
//	  blade CPU, and the governor squeezes the rebuild's background lane
//	  when the foreground p99 nears the SLO.
//	QoS off — the ablation: same contention, FIFO everywhere.
//
// Acceptance (checked by the E13 tests): with QoS on the victim's p99
// stays within e13VictimRatioMax of solo while the same contention with
// QoS off pushes it well past that; the aggressor is held near its bucket
// rate with sheds (Throttled > 0) proving the wait queue bounds; the
// rebuild still completes; and aggregate client throughput stays within
// e13AggregateMin of the QoS-off arm — isolation is not purchased by
// idling the cluster. Same seed → byte-identical tables.
const (
	// e13VictimRatioMax bounds contended-with-QoS victim p99 over solo.
	e13VictimRatioMax = 1.25
	// e13AggregateMin bounds QoS-on aggregate ops/s over QoS-off.
	e13AggregateMin = 0.90
)

// e13Scale sizes one E13 run. Full scale is the experiment; quick scale
// (fewer clients, shorter windows) is the CI smoke and test variant.
type e13Scale struct {
	blades     int
	victims    int
	aggressors int
	victimWS   int64 // victim hot set, blocks (own region)
	aggWS      int64 // aggressor region, blocks
	warm       sim.Duration
	dur        sim.Duration
	agg        qos.TenantSpec
}

func e13Full() e13Scale {
	return e13Scale{
		blades:     8,
		victims:    4,
		aggressors: 24,
		victimWS:   1 << 10,
		aggWS:      24 << 10,
		warm:       sim.Second,
		dur:        2 * sim.Second,
		// Sized near the aggressor's fair share of the contended disks so
		// admission shaves its bursts instead of idling capacity; the tight
		// wait queue is what produces visible sheds.
		agg: qos.TenantSpec{Rate: 3000, Burst: 64, MaxQueue: 8},
	}
}

func e13Quick() e13Scale {
	return e13Scale{
		blades:     4,
		victims:    2,
		aggressors: 12,
		victimWS:   1 << 9,
		aggWS:      8 << 10,
		warm:       500 * sim.Millisecond,
		dur:        sim.Second,
		agg:        qos.TenantSpec{Rate: 2000, Burst: 64, MaxQueue: 8},
	}
}

// E13Arm is one scenario's measured window.
type E13Arm struct {
	VictimOpsPerSec float64
	VictimP50       sim.Duration
	VictimP99       sim.Duration
	AggOpsPerSec    float64
	AggregateOps    float64 // victim + aggressor ops/s
	Admitted        int64   // aggressor ops admitted by the bucket
	Delayed         int64   // aggressor ops delayed for tokens
	Throttled       int64   // aggressor ops shed with ErrThrottled
	RebuildMs       float64 // rebuild wall time (0 when no rebuild ran)
	Narrows, Widens int64   // governor decisions (QoS-on arm only)
	BGWeight        float64 // background lane weight at the end
	Lanes           [qos.NumLanes]qos.LaneStats
}

// e13Arm runs one (contended?, QoS?) combination on a fresh lab.
func e13Arm(seed int64, sc e13Scale, contended, qosOn bool) (E13Arm, []telemetry.Event) {
	cfg := clusterConfig(sc.blades)
	cfg.QoS = &qos.Config{
		Tenants: map[string]qos.TenantSpec{"agg": sc.agg},
		Governor: qos.GovernorConfig{
			P99Target: 50 * sim.Millisecond,
		},
	}
	l := newLab(seed, cfg, "v", sc.victimWS+sc.aggWS)
	defer l.close()
	k, c := l.k, l.c

	var scr *telemetry.Scraper
	if qosOn {
		c.QoS.SetEnabled(true)
		scr = telemetry.NewScraper(k, c.Reg, 100*sim.Millisecond)
		scr.AddWatchdog(c.QoS.AttachGovernor(cfg.QoS.Governor))
		scr.Start()
	}

	l.target.Tenant, l.target.Priority = "victim", 3
	victimPat := func(int) workload.Pattern { return workload.Uniform{Range: sc.victimWS, Blocks: 4} }
	aggressor := &core.VolumeTarget{Cluster: c, Vol: "v", Tenant: "agg", Offset: sc.victimWS}
	aggLoop := func(d sim.Duration) *workload.Runner {
		r := l.loop(sc.aggressors, d, func(int) workload.Pattern {
			return workload.Uniform{Range: sc.aggWS, Blocks: 8, WriteFrac: 0.5}
		})
		r.Target = aggressor
		return r
	}

	// Warm-up: caches fill under the arm's contention mix (no rebuild yet).
	l.run(sc.victims, sc.warm, victimPat)
	if contended {
		aggLoop(sc.warm).Run()
	}

	// Contended arms lose a drive at the window edge; the rebuild runs
	// through the measured window as the §2.4 background service.
	rebuilt := sim.NewGroup(k)
	var rebuildTime sim.Duration
	if contended {
		c.Groups[0].Disks()[1].Fail()
	}
	vr := l.loop(sc.victims, sc.dur, victimPat)
	var ar *workload.Runner
	vr.Start()
	if contended {
		ar = aggLoop(sc.dur)
		ar.Start()
		rebuilt.Add(1)
		k.Go("e13-rebuild", func(p *sim.Proc) {
			t0 := p.Now()
			if err := c.DistributedRebuild(p, 0, 1); err != nil {
				panic(fmt.Sprintf("e13 rebuild: %v", err))
			}
			rebuildTime = p.Now().Sub(t0)
			rebuilt.Done()
		})
	}
	k.RunFor(sc.dur)
	vr.Bytes.CloseAt(k.Now())
	if ar != nil {
		ar.Bytes.CloseAt(k.Now())
	}
	// Clients have stopped; let a straggling rebuild drain.
	l.await("E13 rebuild", rebuilt)

	arm := E13Arm{
		VictimOpsPerSec: float64(vr.Ops) / sc.dur.Seconds(),
		VictimP50:       vr.Latency.P50(),
		VictimP99:       vr.Latency.P99(),
		BGWeight:        c.QoS.BackgroundWeight(),
		Lanes:           c.QoS.LaneTotals(),
	}
	arm.AggregateOps = arm.VictimOpsPerSec
	if ar != nil {
		arm.AggOpsPerSec = float64(ar.Ops) / sc.dur.Seconds()
		arm.AggregateOps += arm.AggOpsPerSec
		arm.RebuildMs = rebuildTime.Millis()
	}
	for _, ts := range c.QoS.Admission().Stats() {
		if ts.Tenant == "agg" {
			arm.Admitted = ts.Admitted
			arm.Delayed = ts.Delayed
			arm.Throttled = ts.Throttled
		}
	}
	var events []telemetry.Event
	if scr != nil {
		g := c.QoS.Governor()
		arm.Narrows, arm.Widens = g.Narrows, g.Widens
		events = scr.Events()
	}
	return arm, events
}

// E13Result carries the three arms and derived acceptance metrics.
type E13Result struct {
	Solo E13Arm // victim alone, QoS off
	On   E13Arm // contended, QoS on
	Off  E13Arm // contended, QoS off (the ablation)

	VictimRatioOn  float64 // On.VictimP99 / Solo.VictimP99
	VictimRatioOff float64 // Off.VictimP99 / Solo.VictimP99
	AggregateFrac  float64 // On.AggregateOps / Off.AggregateOps

	RatioMax, AggregateMin float64
	// AggRate echoes the aggressor's configured bucket rate (blocks/s).
	AggRate float64
	// Events is the QoS-on arm's watchdog stream — every governor
	// decision, as mirrored into trace when a tracer is attached.
	Events []telemetry.Event
}

// runE13 executes the three arms at the given scale under one seed.
func runE13(seed int64, sc e13Scale) E13Result {
	res := E13Result{RatioMax: e13VictimRatioMax, AggregateMin: e13AggregateMin, AggRate: sc.agg.Rate}
	res.Solo, _ = e13Arm(seed, sc, false, false)
	res.On, res.Events = e13Arm(seed, sc, true, true)
	res.Off, _ = e13Arm(seed, sc, true, false)
	if p := res.Solo.VictimP99; p > 0 {
		res.VictimRatioOn = float64(res.On.VictimP99) / float64(p)
		res.VictimRatioOff = float64(res.Off.VictimP99) / float64(p)
	}
	if res.Off.AggregateOps > 0 {
		res.AggregateFrac = res.On.AggregateOps / res.Off.AggregateOps
	}
	return res
}

func e13Table(title string, r E13Result) *metrics.Table {
	tab := metrics.NewTable(title,
		"arm", "victim p50 ms", "victim p99 ms", "victim ops/s", "aggressor ops/s", "rebuild ms")
	row := func(name string, a E13Arm) {
		reb := "-"
		if a.RebuildMs > 0 {
			reb = fmtF(a.RebuildMs)
		}
		tab.AddRow(name, fmtDur(a.VictimP50), fmtDur(a.VictimP99),
			int64(a.VictimOpsPerSec), int64(a.AggOpsPerSec), reb)
	}
	row("victim solo", r.Solo)
	row("contended, QoS on", r.On)
	row("contended, QoS off", r.Off)
	tab.AddNote("victim p99 vs solo: QoS on %sx (bound %sx), QoS off %sx",
		fmtF(r.VictimRatioOn), fmtF(r.RatioMax), fmtF(r.VictimRatioOff))
	tab.AddNote("aggregate client ops/s: on %s vs off %s (%s%%, floor %s%%)",
		fmtF(r.On.AggregateOps), fmtF(r.Off.AggregateOps),
		fmtF(100*r.AggregateFrac), fmtF(100*e13AggregateMin))
	tab.AddNote("aggressor bucket (QoS on): admitted %d, delayed %d, throttled %d (rate %s blk/s)",
		r.On.Admitted, r.On.Delayed, r.On.Throttled, fmtF(r.AggRate))
	tab.AddNote("governor: %d narrows, %d widens, final bg weight %s",
		r.On.Narrows, r.On.Widens, fmtF(r.On.BGWeight))
	for l := 0; l < qos.NumLanes; l++ {
		tab.AddNote("lane %-3s (QoS on): dispatched %d, peak wait %d",
			qos.LaneName(l), r.On.Lanes[l].Dispatched, r.On.Lanes[l].MaxDepth)
	}
	for _, ev := range r.Events {
		tab.AddNote("event: %s", ev)
	}
	return tab
}

// E13 renders the experiment table.
func E13(seed int64) *metrics.Table {
	return e13Table("E13 — §2.4/§4: multi-tenant isolation (admission control + weighted-fair scheduling)",
		runE13(seed, e13Full()))
}

// E13Q renders the reduced-scale table (CI smoke).
func E13Q(seed int64) *metrics.Table {
	return e13Table("E13Q — multi-tenant isolation, reduced scale (CI smoke)",
		runE13(seed, e13Quick()))
}
