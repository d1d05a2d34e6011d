package telemetry

import (
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// deltaView builds the View a HotSpot would see for one scrape whose
// per-interval increments are exactly deltas (prev is all zeros, cur is the
// deltas themselves — Check only ever looks at the difference).
func deltaView(tick int, names []string, deltas []float64) *View {
	iv := 100 * sim.Millisecond
	return &View{
		T:        sim.Time(0).Add(sim.Duration(tick) * iv),
		Interval: iv,
		names:    names,
		prev:     make([]float64, len(names)),
		cur:      deltas,
	}
}

var bladeNames = []string{"blade/0/ops", "blade/1/ops", "blade/2/ops", "blade/3/ops"}

// skewedDeltas trips both default thresholds: CV ≈ 1.73 > 0.5 and
// max/mean = 4 > 2.
var skewedDeltas = []float64{400, 0, 0, 0}

// levelDeltas is perfectly balanced: CV = 0, ratio = 1.
var levelDeltas = []float64{100, 100, 100, 100}

// TestHotSpotZeroScrapes: the very first scrape carries no deltas, so even a
// wildly skewed snapshot must produce no events and must not advance the
// arming streak.
func TestHotSpotZeroScrapes(t *testing.T) {
	h := &HotSpot{Pattern: "blade/*/ops"}
	v := deltaView(0, bladeNames, skewedDeltas)
	v.First = true
	for i := 0; i < 3; i++ {
		if ev := h.Check(v); ev != nil {
			t.Fatalf("first-scrape check %d emitted %v, want nil", i, ev)
		}
	}
	// The first real scrapes after that must still need a full streak of
	// their own: nothing leaked from the First views.
	if ev := h.Check(deltaView(1, bladeNames, skewedDeltas)); ev != nil {
		t.Fatalf("first real skewed interval emitted %v, want nil (streak 1 of 2)", ev)
	}
	if ev := h.Check(deltaView(2, bladeNames, skewedDeltas)); len(ev) == 0 {
		t.Fatalf("watchdog did not fire on the second real skewed interval")
	}
}

// TestHotSpotSingleBlade: with fewer than two matching series the CV is
// undefined, so the watchdog must stay silent no matter the load.
func TestHotSpotSingleBlade(t *testing.T) {
	h := &HotSpot{Pattern: "blade/*/ops"}
	one := []string{"blade/0/ops"}
	for i := 1; i <= 4; i++ {
		if ev := h.Check(deltaView(i, one, []float64{1e6})); ev != nil {
			t.Fatalf("single-blade check %d emitted %v, want nil", i, ev)
		}
	}
	// Zero matching series (pattern matches nothing) is the same story.
	h2 := &HotSpot{Pattern: "disk/*/ops"}
	if ev := h2.Check(deltaView(1, bladeNames, skewedDeltas)); ev != nil {
		t.Fatalf("no-match pattern emitted %v, want nil", ev)
	}
}

// TestHotSpotExactRatioThreshold: the comparisons are strict, so load that
// hovers exactly at max/mean == RatioMax must never arm, however long it
// persists.
func TestHotSpotExactRatioThreshold(t *testing.T) {
	h := &HotSpot{Pattern: "blade/*/ops"} // defaults: CVMax 0.5, RatioMax 2
	// mean 2, max 4 → ratio exactly 2.0; CV ≈ 0.94 is well past CVMax, so
	// only the ratio leg is holding the alarm back.
	hover := []float64{4, 2, 1, 1}
	st := metrics.Summarize(hover)
	if r := st.Max / st.Mean; r != 2.0 {
		t.Fatalf("test vector drifted: max/mean = %v, want exactly 2.0", r)
	}
	if st.CV() <= 0.5 {
		t.Fatalf("test vector drifted: CV = %v, want > 0.5", st.CV())
	}
	for i := 1; i <= 10; i++ {
		if ev := h.Check(deltaView(i, bladeNames, hover)); ev != nil {
			t.Fatalf("interval %d at exact ratio threshold emitted %v, want nil", i, ev)
		}
	}
}

// TestHotSpotExactCVThreshold: same strictness for the CV leg — pin CVMax to
// the exact CV of the hovering deltas and loosen RatioMax so only CV gates.
func TestHotSpotExactCVThreshold(t *testing.T) {
	hover := []float64{3, 1, 2, 2}
	st := metrics.Summarize(hover)
	h := &HotSpot{Pattern: "blade/*/ops", CVMax: st.CV(), RatioMax: 1.01}
	if r := st.Max / st.Mean; r <= 1.01 {
		t.Fatalf("test vector drifted: ratio %v should exceed RatioMax", r)
	}
	for i := 1; i <= 10; i++ {
		if ev := h.Check(deltaView(i, bladeNames, hover)); ev != nil {
			t.Fatalf("interval %d at exact CV threshold emitted %v, want nil", i, ev)
		}
	}
	// One epsilon past the threshold fires once the streak arms.
	h2 := &HotSpot{Pattern: "blade/*/ops", CVMax: st.CV() * 0.999, RatioMax: 1.01}
	if ev := h2.Check(deltaView(1, bladeNames, hover)); ev != nil {
		t.Fatalf("just past CV threshold, streak 1 of 2: got %v, want nil", ev)
	}
	if ev := h2.Check(deltaView(2, bladeNames, hover)); len(ev) != 1 || ev[0].Severity != "warn" {
		t.Fatalf("just past CV threshold, streak 2 of 2: got %v, want one warn", ev)
	}
}

// TestHotSpotHoverNoFlap: load alternating between skewed and level every
// interval never satisfies DefaultSkewFor = 2 consecutive skewed intervals,
// so the alarm must neither enter nor emit spurious clears.
func TestHotSpotHoverNoFlap(t *testing.T) {
	h := &HotSpot{Pattern: "blade/*/ops"}
	for i := 1; i <= 12; i++ {
		d := levelDeltas
		if i%2 == 1 {
			d = skewedDeltas
		}
		if ev := h.Check(deltaView(i, bladeNames, d)); ev != nil {
			t.Fatalf("alternating interval %d emitted %v, want nothing (streak resets)", i, ev)
		}
	}
}

// TestHotSpotSingleWarnThenClear: sustained skew emits exactly one warn when
// the streak arms, stays silent while still firing, then emits exactly one
// info clear when balance returns — and can re-arm afterwards.
func TestHotSpotSingleWarnThenClear(t *testing.T) {
	h := &HotSpot{Pattern: "blade/*/ops"}
	var events []Event
	tick := 0
	feed := func(d []float64) []Event {
		tick++
		ev := h.Check(deltaView(tick, bladeNames, d))
		events = append(events, ev...)
		return ev
	}

	if ev := feed(skewedDeltas); ev != nil {
		t.Fatalf("streak 1 of 2 emitted %v", ev)
	}
	if ev := feed(skewedDeltas); len(ev) != 1 || ev[0].Severity != "warn" {
		t.Fatalf("streak 2 of 2: got %v, want one warn", ev)
	}
	for i := 0; i < 5; i++ {
		if ev := feed(skewedDeltas); ev != nil {
			t.Fatalf("already-firing interval emitted %v, want dedup to nil", ev)
		}
	}
	clear := feed(levelDeltas)
	if len(clear) != 1 || clear[0].Severity != "info" || !strings.Contains(clear[0].Detail, "rebalanced") {
		t.Fatalf("first level interval: got %v, want one info clear", clear)
	}
	for i := 0; i < 3; i++ {
		if ev := feed(levelDeltas); ev != nil {
			t.Fatalf("already-clear interval emitted %v, want nil", ev)
		}
	}
	// Re-skew: a fresh full streak is required, then exactly one new warn.
	if ev := feed(skewedDeltas); ev != nil {
		t.Fatalf("re-arm streak 1 emitted %v", ev)
	}
	if ev := feed(skewedDeltas); len(ev) != 1 || ev[0].Severity != "warn" {
		t.Fatalf("re-arm streak 2: got %v, want one warn", ev)
	}
	warns, infos := 0, 0
	for _, e := range events {
		switch e.Severity {
		case "warn":
			warns++
		case "info":
			infos++
		}
	}
	if warns != 2 || infos != 1 {
		t.Fatalf("event tally warns=%d infos=%d, want 2 warns and 1 info: %v", warns, infos, events)
	}
}

// TestHotSpotIdleHoldsState: intervals below 1 of total load are evidence of
// nothing — they must neither advance nor reset the streak, so
// skewed, idle, skewed arms the alarm.
func TestHotSpotIdleHoldsState(t *testing.T) {
	h := &HotSpot{Pattern: "blade/*/ops"}
	if ev := h.Check(deltaView(1, bladeNames, skewedDeltas)); ev != nil {
		t.Fatalf("streak 1 emitted %v", ev)
	}
	idle := []float64{0.2, 0, 0, 0} // total 0.2 < 1
	if ev := h.Check(deltaView(2, bladeNames, idle)); ev != nil {
		t.Fatalf("idle interval emitted %v, want nil", ev)
	}
	if ev := h.Check(deltaView(3, bladeNames, skewedDeltas)); len(ev) != 1 || ev[0].Severity != "warn" {
		t.Fatalf("skew resuming after idle: got %v, want one warn (streak held)", ev)
	}
}
