package telemetry

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// Event is one structured watchdog emission. Events carry virtual-time
// stamps and deterministic details, so same-seed runs produce identical
// event sequences.
type Event struct {
	T        sim.Time `json:"t_ns"`
	Rule     string   `json:"rule"`
	Severity string   `json:"severity"` // "warn" or "info" (clears)
	Detail   string   `json:"detail"`
}

// String renders the event for notes and reports.
func (e Event) String() string {
	return fmt.Sprintf("t=%.0fms [%s] %s: %s", sim.Duration(e.T).Millis(), e.Severity, e.Rule, e.Detail)
}

// View is what a watchdog sees at one scrape: the current and previous
// snapshots plus the registry (for histogram access). All lookups are pure
// reads of already-sampled values.
type View struct {
	T        sim.Time
	Interval sim.Duration
	// First is true on the very first scrape, when no deltas exist yet.
	First bool
	Reg   *Registry

	names      []string
	prev, cur  []float64
	indexCache map[string]int
}

func (v *View) index(name string) int {
	if v.indexCache == nil {
		v.indexCache = make(map[string]int, len(v.names))
		for i, n := range v.names {
			v.indexCache[n] = i
		}
	}
	if i, ok := v.indexCache[name]; ok {
		return i
	}
	return -1
}

// Value returns name's current sampled value (0 if unknown).
func (v *View) Value(name string) float64 {
	if i := v.index(name); i >= 0 {
		return v.cur[i]
	}
	return 0
}

// Delta returns name's increment since the previous scrape (0 on the first).
func (v *View) Delta(name string) float64 {
	i := v.index(name)
	if i < 0 || v.First || v.prev == nil {
		return 0
	}
	return v.cur[i] - v.prev[i]
}

// MatchDeltas returns the per-interval increments of every metric matching
// pattern, with the names aligned, in natural order.
func (v *View) MatchDeltas(pattern string) (names []string, deltas []float64) {
	for i, n := range v.names {
		if !matchPattern(pattern, n) {
			continue
		}
		names = append(names, n)
		if v.First || v.prev == nil {
			deltas = append(deltas, 0)
		} else {
			deltas = append(deltas, v.cur[i]-v.prev[i])
		}
	}
	return names, deltas
}

// Watchdog evaluates a rule over consecutive scrapes. Check must be a pure
// function of the view plus the watchdog's own state — no randomness, no
// virtual time — so event sequences are deterministic.
type Watchdog interface {
	// Rule names the watchdog in events and traces.
	Rule() string
	// Check inspects one scrape and returns any events to emit.
	Check(v *View) []Event
}

// DefaultSkewFor is how many consecutive skewed intervals arm a hot-spot
// response, the watchdog's alarm or the balancer's burst, by default.
const DefaultSkewFor = 2

// SkewThresholds resolves skew thresholds: a zero or negative one takes
// its default, CV 0.5 or max/mean 2 (0 and 1 are perfectly balanced).
func SkewThresholds(cvMax, ratioMax float64) (float64, float64) {
	if cvMax <= 0 {
		cvMax = 0.5
	}
	if ratioMax <= 0 {
		ratioMax = 2
	}
	return cvMax, ratioMax
}

// Skewed is the hot-spot test HotSpot and the balancer (internal/balance)
// share, each with its own streak rule over it. An interval under 1 of
// total load is idle (an idle cluster is not a skewed one); any other is
// skewed when CV > cvMax and max/mean > ratioMax.
func Skewed(st metrics.Stats, cvMax, ratioMax float64) (idle, skewed bool) {
	if st.Mean*float64(st.N) < 1 {
		return true, false
	}
	return false, st.CV() > cvMax && st.Max/st.Mean > ratioMax
}

// HotSpot alarms when load concentrates on few members of a group — the
// failure mode the paper's pooled cache is designed out of (§2.2) and the
// one DistCache identifies as the killer of distributed caching tiers. It
// summarizes the per-interval increments of the metrics matching Pattern
// (e.g. "blade/*/ops") and fires when they are Skewed for For consecutive
// judged intervals; an idle interval holds the streak.
type HotSpot struct {
	// Pattern selects the load metric per group member.
	Pattern string
	// CVMax and RatioMax are the skew thresholds (see SkewThresholds).
	CVMax, RatioMax float64
	// For is how many consecutive skewed intervals arm the alarm
	// (default DefaultSkewFor).
	For int

	streak int
	firing bool
}

// Rule implements Watchdog.
func (h *HotSpot) Rule() string { return "hot-spot" }

// Check implements Watchdog.
func (h *HotSpot) Check(v *View) []Event {
	cvMax, ratioMax := SkewThresholds(h.CVMax, h.RatioMax)
	arm := h.For
	if arm <= 0 {
		arm = DefaultSkewFor
	}
	if v.First {
		return nil
	}
	names, deltas := v.MatchDeltas(h.Pattern)
	if len(names) < 2 {
		return nil
	}
	st := metrics.Summarize(deltas)
	idle, skewed := Skewed(st, cvMax, ratioMax)
	if idle {
		// Evidence of nothing; hold state.
		return nil
	}
	ratio := st.Max / st.Mean
	if !skewed {
		h.streak = 0
		if h.firing {
			h.firing = false
			return []Event{{Rule: h.Rule(), Severity: "info",
				Detail: fmt.Sprintf("%s rebalanced: CV %.2f, max/mean %.2f", h.Pattern, st.CV(), ratio)}}
		}
		return nil
	}
	h.streak++
	if h.streak < arm || h.firing {
		return nil
	}
	h.firing = true
	hottest := ""
	for i, d := range deltas {
		if d == st.Max {
			hottest = names[i]
			break
		}
	}
	return []Event{{Rule: h.Rule(), Severity: "warn",
		Detail: fmt.Sprintf("%s skewed for %d intervals: CV %.2f > %.2f, max/mean %.2f > %.2f, hottest %s",
			h.Pattern, h.streak, st.CV(), cvMax, ratio, ratioMax, hottest)}}
}

// SLO monitors service-level objectives over each scrape interval: windowed
// p99 latency from a registered histogram, client-visible errors
// (acked-write loss shows up here), and degraded-mode duration.
type SLO struct {
	// Hist names a histogram registered with Registry.Histogram (e.g.
	// "cluster/op_latency"); its per-window p99 is compared to P99Max.
	Hist string
	// P99Max is the windowed-p99 latency objective (0 disables the check).
	P99Max sim.Duration
	// MinCount is the fewest samples a window needs to be judged
	// (default 16): two slow ops in an idle window are not a breach.
	MinCount int64
	// Errors, when set, names a counter whose increments are client-visible
	// failures; any increment emits an event.
	Errors string
	// Degraded, when set, names a counter of degraded-mode operations;
	// the watchdog reports when degraded mode is entered and, on exit, how
	// long it lasted.
	Degraded string

	prevSnap   metrics.HistogramSnapshot
	haveSnap   bool
	latFiring  bool
	degSince   sim.Time
	degWindows int
}

// Rule implements Watchdog.
func (s *SLO) Rule() string { return "slo" }

// Check implements Watchdog.
func (s *SLO) Check(v *View) []Event {
	var out []Event
	minCount := s.MinCount
	if minCount <= 0 {
		minCount = 16
	}
	if s.Hist != "" && s.P99Max > 0 {
		if h := v.Reg.HistogramFor(s.Hist); h != nil {
			if s.haveSnap && !v.First {
				n := h.CountSince(s.prevSnap)
				p99 := h.QuantileSince(s.prevSnap, 0.99)
				switch {
				case n >= minCount && p99 > s.P99Max && !s.latFiring:
					s.latFiring = true
					out = append(out, Event{Rule: s.Rule(), Severity: "warn",
						Detail: fmt.Sprintf("%s window p99 %.3fms exceeds SLO %.3fms (%d ops)",
							s.Hist, p99.Millis(), s.P99Max.Millis(), n)})
				case n >= minCount && p99 <= s.P99Max && s.latFiring:
					s.latFiring = false
					out = append(out, Event{Rule: s.Rule(), Severity: "info",
						Detail: fmt.Sprintf("%s window p99 %.3fms back within SLO %.3fms",
							s.Hist, p99.Millis(), s.P99Max.Millis())})
				}
			}
			s.prevSnap = h.Snapshot()
			s.haveSnap = true
		}
	}
	if s.Errors != "" && !v.First {
		if d := v.Delta(s.Errors); d > 0 {
			out = append(out, Event{Rule: s.Rule(), Severity: "warn",
				Detail: fmt.Sprintf("%s rose by %d this interval", s.Errors, int64(d))})
		}
	}
	if s.Degraded != "" && !v.First {
		d := v.Delta(s.Degraded)
		switch {
		case d > 0 && s.degWindows == 0:
			s.degSince = v.T.Add(-v.Interval)
			s.degWindows = 1
			out = append(out, Event{Rule: s.Rule(), Severity: "warn",
				Detail: fmt.Sprintf("degraded mode entered (%s +%d)", s.Degraded, int64(d))})
		case d > 0:
			s.degWindows++
		case d == 0 && s.degWindows > 0:
			out = append(out, Event{Rule: s.Rule(), Severity: "info",
				Detail: fmt.Sprintf("degraded mode cleared after ≈%.0fms (%d intervals)",
					v.T.Sub(s.degSince).Millis()-v.Interval.Millis(), s.degWindows)})
			s.degWindows = 0
		}
	}
	return out
}

// Stall alarms when queues grow while throughput stays flat — the signature
// of a wedged pipeline (as opposed to one that is merely busy, where
// throughput is nonzero, or idle, where queues drain).
type Stall struct {
	// Queue is a pattern of queue-depth metrics, summed (e.g.
	// "disk/*/queue_depth").
	Queue string
	// Throughput names a cumulative work counter (e.g. "cluster/ops").
	Throughput string
	// For is how many consecutive stalled intervals arm the alarm
	// (default 3).
	For int

	streak int
	firing bool
}

// Rule implements Watchdog.
func (s *Stall) Rule() string { return "stall" }

// Check implements Watchdog.
func (s *Stall) Check(v *View) []Event {
	arm := s.For
	if arm <= 0 {
		arm = 3
	}
	if v.First {
		return nil
	}
	_, qd := v.MatchDeltas(s.Queue)
	var qGrowth float64
	for _, d := range qd {
		qGrowth += d
	}
	tput := v.Delta(s.Throughput)
	if qGrowth > 0 && tput <= 0 {
		s.streak++
		if s.streak >= arm && !s.firing {
			s.firing = true
			return []Event{{Rule: s.Rule(), Severity: "warn",
				Detail: fmt.Sprintf("%s grew %d over %d intervals while %s was flat",
					s.Queue, int64(qGrowth), s.streak, s.Throughput)}}
		}
		return nil
	}
	s.streak = 0
	if s.firing {
		s.firing = false
		return []Event{{Rule: s.Rule(), Severity: "info",
			Detail: fmt.Sprintf("%s stall cleared (%s moving again)", s.Queue, s.Throughput)}}
	}
	return nil
}
