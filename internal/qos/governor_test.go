package qos

import (
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// govHarness wires a Manager + Governor to a real registry holding the
// latency histogram, and hand-builds telemetry views the way the scraper
// would — the governor is a pure function of the view stream.
type govHarness struct {
	m    *Manager
	g    *Governor
	h    *metrics.Histogram
	reg  *telemetry.Registry
	tick int
}

func newGovHarness(t *testing.T, cfg GovernorConfig) *govHarness {
	t.Helper()
	return newGovHarnessFull(t, Config{}, cfg, true)
}

// newGovHarnessFull is newGovHarness with a full qos Config (for
// per-tenant SLO loops) and control over whether the cluster latency
// histogram is registered up front (for the appears-mid-run tests).
func newGovHarnessFull(t *testing.T, qcfg Config, gcfg GovernorConfig, withHist bool) *govHarness {
	t.Helper()
	k := sim.NewKernel(1)
	m := NewManager(k, qcfg)
	m.NewFairQueue(1)
	m.SetEnabled(true)
	reg := telemetry.NewRegistry()
	h := metrics.NewHistogram()
	if withHist {
		reg.Histogram("cluster/op_latency", h)
	}
	return &govHarness{m: m, g: m.AttachGovernor(gcfg), h: h, reg: reg}
}

// attachHist registers the cluster latency histogram mid-run, modelling a
// component that starts publishing after the scraper's first windows.
func (hs *govHarness) attachHist() { hs.reg.Histogram("cluster/op_latency", hs.h) }

// check runs one scraper window: observe n latency samples, then Check.
func (hs *govHarness) check(n int, d sim.Duration) []telemetry.Event {
	for i := 0; i < n; i++ {
		hs.h.Observe(d)
	}
	hs.tick++
	v := &telemetry.View{
		T:        sim.Time(0).Add(sim.Duration(hs.tick) * 100 * sim.Millisecond),
		Interval: 100 * sim.Millisecond,
		First:    hs.tick == 1,
		Reg:      hs.reg,
	}
	return hs.g.Check(v)
}

// TestGovernorNarrowsUnderPressure: a window whose p99 is far past the
// setpoint drives the squeeze to full scale at once — one warn event, the
// weight straight to the floor — and holding there emits nothing more.
func TestGovernorNarrowsUnderPressure(t *testing.T) {
	hs := newGovHarness(t, GovernorConfig{
		P99Target: 10 * sim.Millisecond,
		MinCount:  4,
		QueueHigh: -1, // isolate the latency signal
	})
	if ev := hs.check(20, 50*sim.Millisecond); ev != nil {
		t.Fatalf("first window judged without a baseline snapshot: %v", ev)
	}
	ev := hs.check(20, 50*sim.Millisecond)
	if len(ev) != 1 || ev[0].Severity != "warn" || !strings.Contains(ev[0].Detail, "narrow") {
		t.Fatalf("events = %+v, want one narrow warn", ev)
	}
	if got := hs.m.BackgroundWeight(); got != minBackgroundWeight {
		t.Fatalf("bg weight %v, want the floor %v", got, minBackgroundWeight)
	}
	for i := 0; i < 10; i++ {
		if ev := hs.check(20, 50*sim.Millisecond); ev != nil {
			t.Fatalf("window %d: at the floor, still emitting: %+v", i, ev)
		}
	}
	if hs.g.Narrows != 1 || hs.g.Widens != 0 {
		t.Errorf("narrows %d widens %d, want 1 and 0", hs.g.Narrows, hs.g.Widens)
	}
}

// TestGovernorWidensAfterCalm: once the foreground runs well under its
// setpoint, the squeeze releases — only widen moves, traced as info
// events — until the weight is back at BGMax, where calm windows are
// silent.
func TestGovernorWidensAfterCalm(t *testing.T) {
	hs := newGovHarness(t, GovernorConfig{
		P99Target: 10 * sim.Millisecond,
		MinCount:  4,
		QueueHigh: -1,
	})
	hs.check(20, 50*sim.Millisecond) // baseline
	hs.check(20, 50*sim.Millisecond) // squeeze to the floor
	if got := hs.m.BackgroundWeight(); got != minBackgroundWeight {
		t.Fatalf("setup: bg weight %v, want the floor", got)
	}
	infos := 0
	prev := hs.m.BackgroundWeight()
	for i := 0; i < 30; i++ {
		for _, ev := range hs.check(20, 1*sim.Millisecond) {
			if ev.Severity != "info" || !strings.Contains(ev.Detail, "widen") {
				t.Fatalf("calm window %d: event %+v, want only widen infos", i, ev)
			}
			infos++
		}
		w := hs.m.BackgroundWeight()
		if w < prev {
			t.Fatalf("calm window %d: weight fell %v -> %v", i, prev, w)
		}
		prev = w
	}
	if got := hs.m.BackgroundWeight(); got != 1 {
		t.Errorf("bg weight %v, want restored to 1", got)
	}
	if infos == 0 || hs.g.Widens == 0 {
		t.Errorf("%d widen events, %d widens, want both counted", infos, hs.g.Widens)
	}
	if ev := hs.check(20, 1*sim.Millisecond); ev != nil {
		t.Errorf("at BGMax, still widening: %+v", ev)
	}
}

// TestGovernorIgnoresThinWindows: fewer than MinCount samples must not
// trigger a narrow, however slow they were — a two-op window is noise.
func TestGovernorIgnoresThinWindows(t *testing.T) {
	hs := newGovHarness(t, GovernorConfig{
		P99Target: 10 * sim.Millisecond,
		MinCount:  16,
		QueueHigh: -1,
	})
	hs.check(2, 50*sim.Millisecond) // baseline
	for i := 0; i < 4; i++ {
		if ev := hs.check(2, 50*sim.Millisecond); ev != nil {
			t.Fatalf("thin window %d narrowed: %+v", i, ev)
		}
	}
	if got := hs.m.BackgroundWeight(); got != 1 {
		t.Errorf("bg weight %v, want untouched 1", got)
	}
}

// TestGovernorInertWhenDisabled: with the manager switched off the
// governor neither acts nor counts, whatever the view says.
func TestGovernorInertWhenDisabled(t *testing.T) {
	hs := newGovHarness(t, GovernorConfig{
		P99Target: 10 * sim.Millisecond,
		MinCount:  4,
		QueueHigh: -1,
	})
	hs.m.SetEnabled(false)
	for i := 0; i < 3; i++ {
		if ev := hs.check(20, 50*sim.Millisecond); ev != nil {
			t.Fatalf("disabled governor emitted: %+v", ev)
		}
	}
	if hs.g.Narrows != 0 || hs.m.BackgroundWeight() != 1 {
		t.Errorf("disabled governor acted: narrows %d weight %v", hs.g.Narrows, hs.m.BackgroundWeight())
	}
}

// TestGovernorPIHistogramAppearsMidRun: same transition under the PI
// controller — the loop holds while the histogram is missing, then acts
// on its first visible window.
func TestGovernorPIHistogramAppearsMidRun(t *testing.T) {
	hs := newGovHarnessFull(t, Config{}, GovernorConfig{
		P99Target: 10 * sim.Millisecond,
		MinCount:  4,
		QueueHigh: -1,
	}, false)
	for i := 0; i < 3; i++ {
		if ev := hs.check(20, 50*sim.Millisecond); ev != nil {
			t.Fatalf("window %d without histogram emitted: %+v", i, ev)
		}
	}
	if got := hs.m.BackgroundWeight(); got != 1 {
		t.Fatalf("weight moved with no signal: %v", got)
	}
	hs.attachHist()
	hs.check(20, 50*sim.Millisecond)
	if got := hs.m.BackgroundWeight(); got >= 1 {
		t.Errorf("bg weight %v, want squeezed below 1 on the first visible window", got)
	}
	if hs.g.Narrows == 0 {
		t.Errorf("Narrows = 0, want the first visible window counted")
	}
}

// TestGovernorPISqueezesAndRecovers: sustained over-target p99 drives the
// weight monotonically toward the floor (integral accumulation); sustained
// under-target p99 bleeds the integral and restores BGMax. No fixed-size
// steps, no oscillation between fixed levels.
func TestGovernorPISqueezesAndRecovers(t *testing.T) {
	hs := newGovHarness(t, GovernorConfig{
		P99Target: 10 * sim.Millisecond,
		MinCount:  4,
		QueueHigh: -1,
	})
	hs.check(20, 50*sim.Millisecond) // baseline window
	prev := hs.m.BackgroundWeight()
	for i := 0; i < 10; i++ {
		hs.check(20, 50*sim.Millisecond)
		w := hs.m.BackgroundWeight()
		if w > prev+weightEps {
			t.Fatalf("window %d: weight rose under sustained pressure: %v -> %v", i, prev, w)
		}
		prev = w
	}
	if min := minBackgroundWeight; prev > min+1e-9 {
		t.Errorf("sustained 5x-over-target pressure settled at %v, want floor %v", prev, min)
	}
	// Recovery: fast windows under the setpoint.
	for i := 0; i < 20; i++ {
		hs.check(20, 1*sim.Millisecond)
	}
	if got := hs.m.BackgroundWeight(); got < hs.g.cfg.bgMax()-weightEps {
		t.Errorf("bg weight %v after sustained calm, want restored to %v", got, hs.g.cfg.bgMax())
	}
	if hs.g.Narrows == 0 || hs.g.Widens == 0 {
		t.Errorf("narrows %d widens %d, want both counted", hs.g.Narrows, hs.g.Widens)
	}
}

// TestGovernorPIBoundedActuation: whatever the signal does, the applied
// weight stays inside [minBackgroundWeight, BGMax].
func TestGovernorPIBoundedActuation(t *testing.T) {
	hs := newGovHarness(t, GovernorConfig{
		P99Target: 10 * sim.Millisecond,
		MinCount:  4,
		QueueHigh: -1,
	})
	durs := []sim.Duration{
		50 * sim.Millisecond, 1 * sim.Millisecond, 200 * sim.Millisecond,
		5 * sim.Millisecond, 500 * sim.Millisecond, 1 * sim.Microsecond,
	}
	for i := 0; i < 60; i++ {
		hs.check(20, durs[i%len(durs)])
		w := hs.m.BackgroundWeight()
		if w < minBackgroundWeight-1e-9 || w > hs.g.cfg.bgMax()+1e-9 {
			t.Fatalf("window %d: weight %v outside [%v, %v]", i, w, minBackgroundWeight, hs.g.cfg.bgMax())
		}
	}
}

// TestGovernorPIThinWindowsRelax: once load stops entirely (thin windows),
// the integral bleeds off so background work gets its bandwidth back even
// though no window is judged.
func TestGovernorPIThinWindowsRelax(t *testing.T) {
	hs := newGovHarness(t, GovernorConfig{
		P99Target: 10 * sim.Millisecond,
		MinCount:  16,
		QueueHigh: -1,
	})
	hs.check(20, 50*sim.Millisecond) // baseline
	for i := 0; i < 8; i++ {
		hs.check(20, 50*sim.Millisecond)
	}
	squeezed := hs.m.BackgroundWeight()
	if squeezed >= 1 {
		t.Fatalf("setup: pressure did not squeeze (weight %v)", squeezed)
	}
	// Clients leave: two-op windows are never judged, but they do relax.
	for i := 0; i < 20; i++ {
		hs.check(2, 50*sim.Millisecond)
	}
	if got := hs.m.BackgroundWeight(); got < hs.g.cfg.bgMax()-weightEps {
		t.Errorf("bg weight %v after idle stretch, want relaxed to %v", got, hs.g.cfg.bgMax())
	}
}

// TestGovernorPIPerTenantSLO: a tenant with an SLOP99 gets its own loop
// fed by Manager.ObserveOp; breaching it squeezes background work even
// with no cluster-wide target configured, while an SLO-less tenant's
// latency moves nothing.
func TestGovernorPIPerTenantSLO(t *testing.T) {
	hs := newGovHarnessFull(t, Config{
		Tenants: map[string]TenantSpec{
			"fusion": {Rate: 1000, SLOP99: 10 * sim.Millisecond},
			"batch":  {Rate: 1000},
		},
	}, GovernorConfig{
		MinCount:  4,
		QueueHigh: -1, // no cluster P99Target, no queue loop: tenant SLO only
	}, true)
	if _, _, ok := hs.g.LoopState("fusion"); !ok {
		t.Fatal("no PI loop for the SLO tenant")
	}
	if _, _, ok := hs.g.LoopState("batch"); ok {
		t.Fatal("SLO-less tenant got a loop")
	}
	observe := func(tenant string, n int, d sim.Duration) {
		for i := 0; i < n; i++ {
			hs.m.ObserveOp(tenant, d)
		}
	}
	// batch's misery alone must not squeeze anything (it has no SLO, and
	// ObserveOp drops it on the floor).
	observe("batch", 20, 500*sim.Millisecond)
	hs.check(0, 0) // baseline window
	observe("batch", 20, 500*sim.Millisecond)
	hs.check(0, 0)
	if got := hs.m.BackgroundWeight(); got != 1 {
		t.Fatalf("SLO-less tenant latency moved the weight to %v", got)
	}
	// fusion breaching its 10ms SLO squeezes.
	observe("fusion", 20, 50*sim.Millisecond)
	hs.check(0, 0)
	if got := hs.m.BackgroundWeight(); got >= 1 {
		t.Errorf("bg weight %v, want squeezed on tenant SLO breach", got)
	}
	err, out, _ := hs.g.LoopState("fusion")
	if err <= 0 || out <= 0 {
		t.Errorf("fusion loop err %.3f out %.3f, want both positive under breach", err, out)
	}
	// fusion back under its SLO: the squeeze releases.
	for i := 0; i < 20; i++ {
		observe("fusion", 20, 1*sim.Millisecond)
		hs.check(0, 0)
	}
	if got := hs.m.BackgroundWeight(); got < 1-weightEps {
		t.Errorf("bg weight %v, want restored once fusion meets its SLO", got)
	}
}
