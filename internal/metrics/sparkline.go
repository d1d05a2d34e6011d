package metrics

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/sim"
)

// sparkRunes are the eight block-element levels used by Sparkline.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders values as a compact unicode strip — benchrunner uses
// it for throughput-over-time views (e.g. the E10 failure dip).
func Sparkline(values []float64) string {
	if len(values) == 0 {
		return ""
	}
	// Non-finite inputs must not reach the index arithmetic: NaN poisons
	// min/max and converts to an out-of-range rune index. They render as
	// a blank cell instead.
	first := true
	var min, max float64
	for _, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		if first || v < min {
			min = v
		}
		if first || v > max {
			max = v
		}
		first = false
	}
	var sb strings.Builder
	for _, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			sb.WriteRune(' ')
			continue
		}
		idx := 0
		if max > min {
			idx = int((v - min) / (max - min) * float64(len(sparkRunes)-1))
		}
		if idx < 0 {
			idx = 0
		}
		if idx > len(sparkRunes)-1 {
			idx = len(sparkRunes) - 1
		}
		sb.WriteRune(sparkRunes[idx])
	}
	return sb.String()
}

// TimeSeries samples a counter-like value into fixed windows so that a
// throughput-over-time strip can be rendered afterwards.
type TimeSeries struct {
	start   sim.Time
	window  sim.Duration
	vals    []float64
	dropped int64
}

// NewTimeSeries begins sampling at start with the given window width.
func NewTimeSeries(start sim.Time, window sim.Duration) *TimeSeries {
	return &TimeSeries{start: start, window: window}
}

// maxTimeSeriesWindows bounds how far Record will grow the window slice:
// one stray far-future timestamp must not allocate gigabytes. 1<<20
// windows is ~12 days at the 1 s windows experiments use.
const maxTimeSeriesWindows = 1 << 20

// Record adds v at time t to the matching window. Samples before the
// series start or beyond maxTimeSeriesWindows windows are dropped (the
// drop count is available via Dropped).
func (ts *TimeSeries) Record(t sim.Time, v float64) {
	if t < ts.start || ts.window <= 0 {
		return
	}
	idx64 := int64(t.Sub(ts.start) / ts.window)
	if idx64 >= maxTimeSeriesWindows {
		ts.dropped++
		return
	}
	idx := int(idx64)
	for len(ts.vals) <= idx {
		ts.vals = append(ts.vals, 0)
	}
	ts.vals[idx] += v
}

// Spark renders the series as a sparkline with a caption.
func (ts *TimeSeries) Spark(caption string) string {
	return fmt.Sprintf("%s [%s] (%d windows of %v)", caption, Sparkline(ts.vals), len(ts.vals), ts.window)
}
