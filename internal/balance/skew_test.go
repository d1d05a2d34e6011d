package balance

import (
	"fmt"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// TestBalancerArmsWithHotSpot: one scripted per-blade load series goes to
// the hot-spot watchdog (through a real scraper) and to the balancer's
// skew-and-streak step (through its own load reader), with the same
// thresholds. The balancer must arm on exactly the intervals where the
// watchdog's streak is armed, save one difference: an idle interval resets
// the balancer's streak and holds the watchdog's, so for that interval and
// the DefaultSkewFor-1 after it the watchdog may be armed while the
// balancer is not.
func TestBalancerArmsWithHotSpot(t *testing.T) {
	const cvMax, ratioMax = 0.4, 1.8
	const interval = 100 * sim.Millisecond
	k := sim.NewKernel(1)
	reg := telemetry.NewRegistry()
	ops := make([]int64, 4)
	for i := range ops {
		reg.Int(fmt.Sprintf("blade/%d/ops", i), func() int64 { return ops[i] })
	}
	scr := telemetry.NewScraper(k, reg, interval)
	scr.AddWatchdog(&telemetry.HotSpot{Pattern: loadPattern, CVMax: cvMax, RatioMax: ratioMax})
	c := New(Config{CVMax: cvMax, RatioMax: ratioMax}, Deps{K: k, Scraper: scr,
		Alive: func() []int { return []int{0, 1, 2, 3} }})

	balanced := []int64{10, 10, 10, 10}
	skewed := []int64{40, 0, 0, 0}
	idle := []int64{0, 0, 0, 0}
	script := [][]int64{
		balanced, skewed, skewed, skewed, // both arm on the second skewed interval
		idle, skewed, skewed, // the watchdog holds through idle; the balancer re-streaks
		balanced, skewed, idle, skewed, skewed, // the watchdog arms across idle first
		balanced, balanced, skewed, balanced,
	}

	scr.ScrapeNow() // the baseline scrape: no deltas yet
	firing := false
	sinceIdle := telemetry.DefaultSkewFor
	both, gap := 0, 0
	for i, load := range script {
		for b, d := range load {
			ops[b] += d
		}
		k.RunFor(interval)
		seen := len(scr.Events())
		scr.ScrapeNow()
		for _, ev := range scr.Events()[seen:] {
			firing = ev.Severity == "warn"
		}
		_, deltas := c.loads()
		armed := c.skewStep(metrics.Summarize(deltas))

		if load[0] == 0 {
			sinceIdle = 0
		} else {
			sinceIdle++
		}
		switch {
		case sinceIdle >= telemetry.DefaultSkewFor && armed != firing:
			t.Errorf("interval %d: balancer armed=%v, watchdog armed=%v", i, armed, firing)
		case sinceIdle < telemetry.DefaultSkewFor && armed:
			t.Errorf("interval %d: balancer armed %d interval(s) after an idle one", i, sinceIdle)
		}
		if armed && firing {
			both++
		}
		if firing && !armed {
			gap++
		}
	}
	if both == 0 || gap == 0 {
		t.Fatalf("script exercised %d jointly armed and %d idle-gap intervals, want both > 0", both, gap)
	}
}
