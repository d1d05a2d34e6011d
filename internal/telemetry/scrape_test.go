package telemetry

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// tickingCounter builds a registry over a counter a sim process increments
// once per virtual millisecond — the minimal scrapeable workload.
func tickingCounter(k *sim.Kernel) (*Registry, *metrics.Counter) {
	r := NewRegistry()
	var c metrics.Counter
	r.Counter("ticks", &c)
	k.Go("ticker", func(p *sim.Proc) {
		for {
			p.Sleep(sim.Millisecond)
			c.Inc()
		}
	})
	return r, &c
}

func TestScraperSeriesAndDeltas(t *testing.T) {
	k := sim.NewKernel(1)
	reg, _ := tickingCounter(k)
	s := NewScraper(k, reg, 10*sim.Millisecond)
	stop := s.Start()
	k.RunFor(100 * sim.Millisecond)
	stop()

	if s.Scrapes() != 10 {
		t.Fatalf("Scrapes() = %d, want 10", s.Scrapes())
	}
	series := s.Series("ticks")
	if len(series) != 10 {
		t.Fatalf("len(Series) = %d, want 10", len(series))
	}
	deltas := s.DeltaSeries("ticks")
	if len(deltas) != 9 {
		t.Fatalf("len(DeltaSeries) = %d, want 9", len(deltas))
	}
	for i, d := range deltas {
		if d != 10 {
			t.Fatalf("DeltaSeries[%d] = %v, want 10 (counter ticks 1/ms, scrape every 10ms)", i, d)
		}
	}
	if got := s.WindowDelta("ticks"); got != 90 {
		t.Fatalf("WindowDelta = %v, want 90", got)
	}
	if got := s.Window(); got != 90*sim.Millisecond {
		t.Fatalf("Window() = %v, want 90ms", got)
	}
	if s.Series("unknown") != nil {
		t.Fatal("Series of unknown metric should be nil")
	}
}

func TestScraperRingWrap(t *testing.T) {
	k := sim.NewKernel(1)
	reg, _ := tickingCounter(k)
	s := NewScraper(k, reg, 10*sim.Millisecond)
	s.SetCap(4)
	stop := s.Start()
	k.RunFor(100 * sim.Millisecond)
	stop()

	if s.Scrapes() != 10 {
		t.Fatalf("Scrapes() = %d, want 10 (wrapping must not lose count)", s.Scrapes())
	}
	// Only the last 4 scrape instants survive, 70..100 ms.
	if got := s.Window(); got != 30*sim.Millisecond {
		t.Fatalf("Window() = %v, want the 30ms the last 4 scrapes span", got)
	}
	// At each scrape instant the tick scheduled for that exact time has
	// not yet run (the scrape event was enqueued earlier), so the counter
	// reads N*10-1.
	series := s.Series("ticks")
	if len(series) != 4 || series[0] != 69 || series[3] != 99 {
		t.Fatalf("Series after wrap = %v, want [69 79 89 99]", series)
	}
}

func TestScraperStopMovesNoEvents(t *testing.T) {
	// A stopped scraper must let the kernel drain: its tick chain ends.
	k := sim.NewKernel(1)
	reg := NewRegistry()
	reg.Int("zero", func() int64 { return 0 })
	s := NewScraper(k, reg, 10*sim.Millisecond)
	stop := s.Start()
	k.RunFor(30 * sim.Millisecond)
	stop()
	k.Run() // would never return if the scraper kept rescheduling
	if s.Scrapes() != 3 {
		t.Fatalf("Scrapes() = %d, want 3", s.Scrapes())
	}
}

// scrapeRun runs the same seeded scrape workload and returns its exports.
func scrapeRun(seed int64) (timeline, events string, scrapes int64) {
	k := sim.NewKernel(seed)
	reg, _ := tickingCounter(k)
	// A second, seeded-random counter exercises value formatting.
	var noisy metrics.Counter
	reg.Counter("noisy", &noisy)
	k.Go("noise", func(p *sim.Proc) {
		for {
			p.Sleep(sim.Duration(1+k.Rand().Int63n(int64(2*sim.Millisecond))))
			noisy.Add(k.Rand().Int63n(5))
		}
	})
	s := NewScraper(k, reg, 5*sim.Millisecond)
	s.AddWatchdog(&Stall{Queue: "ticks", Throughput: "noisy"})
	stop := s.Start()
	k.RunFor(80 * sim.Millisecond)
	stop()
	var tl, ev bytes.Buffer
	if err := s.WriteJSONL(&tl); err != nil {
		panic(err)
	}
	if err := s.WriteEventsJSONL(&ev); err != nil {
		panic(err)
	}
	return tl.String(), ev.String(), s.Scrapes()
}

func TestScraperDeterministic(t *testing.T) {
	tl1, ev1, n1 := scrapeRun(42)
	tl2, ev2, n2 := scrapeRun(42)
	if n1 != n2 {
		t.Fatalf("scrape counts differ: %d vs %d", n1, n2)
	}
	if tl1 != tl2 {
		t.Fatalf("same-seed timelines differ:\n%s\nvs\n%s", tl1, tl2)
	}
	if ev1 != ev2 {
		t.Fatalf("same-seed event streams differ:\n%q vs %q", ev1, ev2)
	}
	if tl1 == "" {
		t.Fatal("timeline export is empty")
	}
}

// watchdogHarness drives a watchdog with hand-built per-blade loads: each
// step advances virtual time one interval, applies the load, and scrapes.
type watchdogHarness struct {
	k    *sim.Kernel
	s    *Scraper
	vals map[string]*int64
}

func newWatchdogHarness(t *testing.T, w Watchdog, names ...string) *watchdogHarness {
	t.Helper()
	k := sim.NewKernel(1)
	reg := NewRegistry()
	h := &watchdogHarness{k: k, vals: make(map[string]*int64)}
	for _, n := range names {
		v := new(int64)
		h.vals[n] = v
		reg.Int(n, func() int64 { return *v })
	}
	h.s = NewScraper(k, reg, 10*sim.Millisecond)
	h.s.AddWatchdog(w)
	return h
}

// step bumps the named metrics by the given deltas, advances one interval,
// and scrapes, returning the events that scrape emitted.
func (h *watchdogHarness) step(deltas map[string]int64) []Event {
	for n, d := range deltas {
		*h.vals[n] += d
	}
	h.k.RunFor(10 * sim.Millisecond)
	before := len(h.s.Events())
	h.s.ScrapeNow()
	return h.s.Events()[before:]
}

func TestHotSpotWatchdog(t *testing.T) {
	hs := &HotSpot{Pattern: "blade/*/ops"}
	h := newWatchdogHarness(t, hs, "blade/0/ops", "blade/1/ops", "blade/2/ops")

	balanced := map[string]int64{"blade/0/ops": 10, "blade/1/ops": 10, "blade/2/ops": 10}
	skewed := map[string]int64{"blade/0/ops": 30, "blade/1/ops": 0, "blade/2/ops": 0}

	if ev := h.step(balanced); len(ev) != 0 {
		t.Fatalf("first scrape emitted %v", ev)
	}
	if ev := h.step(balanced); len(ev) != 0 {
		t.Fatalf("balanced interval emitted %v", ev)
	}
	if ev := h.step(skewed); len(ev) != 0 {
		t.Fatalf("one skewed interval should not arm (For=2), got %v", ev)
	}
	ev := h.step(skewed)
	if len(ev) != 1 || ev[0].Severity != "warn" {
		t.Fatalf("second skewed interval should fire warn, got %v", ev)
	}
	if want := "hottest blade/0/ops"; !contains(ev[0].Detail, want) {
		t.Fatalf("warn detail %q missing %q", ev[0].Detail, want)
	}
	if ev := h.step(skewed); len(ev) != 0 {
		t.Fatalf("already-firing alarm re-fired: %v", ev)
	}
	// Idle interval: no evidence either way, alarm holds.
	if ev := h.step(nil); len(ev) != 0 {
		t.Fatalf("idle interval emitted %v", ev)
	}
	ev = h.step(balanced)
	if len(ev) != 1 || ev[0].Severity != "info" {
		t.Fatalf("rebalance should emit info clear, got %v", ev)
	}
	if ev := h.step(balanced); len(ev) != 0 {
		t.Fatalf("cleared alarm re-cleared: %v", ev)
	}
}

func TestSLOWatchdogLatency(t *testing.T) {
	k := sim.NewKernel(1)
	reg := NewRegistry()
	lat := metrics.NewHistogram()
	reg.Histogram("lat", lat)
	s := NewScraper(k, reg, 10*sim.Millisecond)
	slo := &SLO{Hist: "lat", P99Max: 5 * sim.Millisecond, MinCount: 4}
	s.AddWatchdog(slo)

	observe := func(d sim.Duration, n int) {
		for i := 0; i < n; i++ {
			lat.Observe(d)
		}
	}
	step := func() []Event {
		k.RunFor(10 * sim.Millisecond)
		before := len(s.Events())
		s.ScrapeNow()
		return s.Events()[before:]
	}

	observe(time1ms, 20)
	if ev := step(); len(ev) != 0 {
		t.Fatalf("first scrape emitted %v", ev)
	}
	observe(time1ms, 20)
	if ev := step(); len(ev) != 0 {
		t.Fatalf("healthy window emitted %v", ev)
	}
	// The lifetime p99 stays poisoned low; only the *windowed* p99 sees
	// the regression.
	observe(20*sim.Millisecond, 20)
	ev := step()
	if len(ev) != 1 || ev[0].Severity != "warn" {
		t.Fatalf("breached window should warn, got %v", ev)
	}
	// Too few samples: no verdict, alarm holds.
	observe(20*sim.Millisecond, 2)
	if ev := step(); len(ev) != 0 {
		t.Fatalf("thin window emitted %v", ev)
	}
	observe(time1ms, 20)
	ev = step()
	if len(ev) != 1 || ev[0].Severity != "info" {
		t.Fatalf("recovered window should clear, got %v", ev)
	}
}

const time1ms = sim.Millisecond

func TestSLOWatchdogErrorsAndDegraded(t *testing.T) {
	slo := &SLO{Errors: "cluster/errors", Degraded: "cluster/degraded_ops"}
	h := newWatchdogHarness(t, slo, "cluster/errors", "cluster/degraded_ops")

	if ev := h.step(nil); len(ev) != 0 {
		t.Fatalf("first scrape emitted %v", ev)
	}
	ev := h.step(map[string]int64{"cluster/errors": 3})
	if len(ev) != 1 || ev[0].Severity != "warn" || !contains(ev[0].Detail, "rose by 3") {
		t.Fatalf("error delta should warn, got %v", ev)
	}
	ev = h.step(map[string]int64{"cluster/degraded_ops": 5})
	if len(ev) != 1 || !contains(ev[0].Detail, "degraded mode entered") {
		t.Fatalf("degraded entry should warn, got %v", ev)
	}
	if ev := h.step(map[string]int64{"cluster/degraded_ops": 2}); len(ev) != 0 {
		t.Fatalf("ongoing degraded window emitted %v", ev)
	}
	ev = h.step(nil)
	if len(ev) != 1 || ev[0].Severity != "info" || !contains(ev[0].Detail, "degraded mode cleared") {
		t.Fatalf("degraded exit should clear, got %v", ev)
	}
}

func TestStallWatchdog(t *testing.T) {
	st := &Stall{Queue: "disk/*/queue_depth", Throughput: "cluster/ops"}
	h := newWatchdogHarness(t, st, "disk/0/queue_depth", "disk/1/queue_depth", "cluster/ops")

	grow := map[string]int64{"disk/0/queue_depth": 2, "disk/1/queue_depth": 1}
	busy := map[string]int64{"disk/0/queue_depth": 2, "cluster/ops": 50}

	if ev := h.step(nil); len(ev) != 0 {
		t.Fatalf("first scrape emitted %v", ev)
	}
	for i := 0; i < 2; i++ {
		if ev := h.step(grow); len(ev) != 0 {
			t.Fatalf("stalled interval %d should not arm yet (For=3), got %v", i+1, ev)
		}
	}
	ev := h.step(grow)
	if len(ev) != 1 || ev[0].Severity != "warn" {
		t.Fatalf("third stalled interval should fire, got %v", ev)
	}
	// Queues still growing but throughput moving: busy, not stalled.
	ev = h.step(busy)
	if len(ev) != 1 || ev[0].Severity != "info" {
		t.Fatalf("moving throughput should clear the stall, got %v", ev)
	}
	if ev := h.step(busy); len(ev) != 0 {
		t.Fatalf("busy interval emitted %v", ev)
	}
}

func TestScraperSkewTableAndReport(t *testing.T) {
	k := sim.NewKernel(1)
	reg := NewRegistry()
	vals := map[string]*int64{}
	for _, n := range []string{"blade/0/ops", "blade/1/ops"} {
		v := new(int64)
		vals[n] = v
		reg.Int(n, func() int64 { return *v })
	}
	s := NewScraper(k, reg, 10*sim.Millisecond)
	for i := 0; i < 5; i++ {
		*vals["blade/0/ops"] += 30
		*vals["blade/1/ops"] += 10
		k.RunFor(10 * sim.Millisecond)
		s.ScrapeNow()
	}
	tab := s.SkewTable("load", "blade/*/ops")
	out := tab.String()
	for _, want := range []string{"blade/0/ops", "blade/1/ops", "skew: CV"} {
		if !contains(out, want) {
			t.Fatalf("skew table missing %q:\n%s", want, out)
		}
	}
	rep := s.Report()
	if rep.Scrapes != 5 || len(rep.Events) != 0 {
		t.Fatalf("Report = %+v, want 5 scrapes, 0 events", rep)
	}
	if !contains(rep.String(), "all watchdogs quiet") {
		t.Fatalf("quiet report missing clean bill: %s", rep.String())
	}
}

func contains(s, sub string) bool {
	return bytes.Contains([]byte(s), []byte(sub))
}

func ExampleReport_String() {
	r := &Report{Scrapes: 3, Interval: 10 * sim.Millisecond, Window: 20 * sim.Millisecond}
	fmt.Println(r.String())
	// Output: telemetry: 3 scrapes every 10.000ms covering 20.000ms; 0 watchdog events (all watchdogs quiet)
}
