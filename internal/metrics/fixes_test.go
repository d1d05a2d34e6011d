package metrics

import (
	"math"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/sim"
)

// Regression: NaN/±Inf inputs used to convert to an out-of-range rune
// index and panic. They must render as blanks and leave the finite
// values' scaling intact.
func TestSparklineNonFinite(t *testing.T) {
	cases := [][]float64{
		{math.NaN()},
		{math.Inf(1)},
		{math.Inf(-1)},
		{1, math.NaN(), 3},
		{math.Inf(-1), 0, math.Inf(1)},
		{math.NaN(), math.NaN()},
	}
	for _, vals := range cases {
		s := Sparkline(vals) // must not panic
		if utf8.RuneCountInString(s) != len(vals) {
			t.Fatalf("Sparkline(%v) = %q: %d runes, want %d", vals, s, utf8.RuneCountInString(s), len(vals))
		}
	}
	// Non-finite cells are blank; finite neighbours still span the ramp.
	s := Sparkline([]float64{0, math.NaN(), 10})
	runes := []rune(s)
	if runes[1] != ' ' {
		t.Fatalf("NaN cell = %q, want blank (full strip %q)", runes[1], s)
	}
	if runes[0] != '▁' || runes[2] != '█' {
		t.Fatalf("finite cells lost scaling: %q", s)
	}
}

// The index arithmetic must stay clamped even for adversarial finite
// values near the float boundaries.
func TestSparklineExtremeFinite(t *testing.T) {
	s := Sparkline([]float64{-math.MaxFloat64, math.MaxFloat64})
	if utf8.RuneCountInString(s) != 2 {
		t.Fatalf("strip = %q", s)
	}
	if strings.ContainsRune(s, ' ') {
		t.Fatalf("finite values rendered blank: %q", s)
	}
}

// Regression: one far-future timestamp used to grow vals unboundedly
// (gigabytes for a stray t). Past the window cap the sample is dropped
// and counted instead.
func TestTimeSeriesGrowthCap(t *testing.T) {
	ts := NewTimeSeries(0, sim.Second)
	ts.Record(0, 1)
	// ~31 years in the future at 1 s windows: far past the cap.
	ts.Record(sim.Time(1_000_000_000)*sim.Time(sim.Second), 1)
	if n := len(ts.vals); n > maxTimeSeriesWindows {
		t.Fatalf("vals grew to %d windows", n)
	}
	if ts.dropped != 1 {
		t.Fatalf("dropped = %d, want 1", ts.dropped)
	}
	// The last in-range window still records.
	edge := sim.Time(maxTimeSeriesWindows-1) * sim.Time(sim.Second)
	ts.Record(edge, 2)
	if ts.dropped != 1 {
		t.Fatalf("in-range edge sample dropped")
	}
	if vals := ts.vals; vals[maxTimeSeriesWindows-1] != 2 {
		t.Fatalf("edge window = %v, want 2", vals[maxTimeSeriesWindows-1])
	}
	// First out-of-range index drops.
	ts.Record(edge+sim.Time(sim.Second), 3)
	if ts.dropped != 2 {
		t.Fatalf("dropped = %d, want 2", ts.dropped)
	}
}

func TestTimeSeriesZeroWindow(t *testing.T) {
	ts := &TimeSeries{} // zero window must not divide by zero
	ts.Record(sim.Time(sim.Second), 1)
	if len(ts.vals) != 0 {
		t.Fatalf("zero-window series recorded %v", ts.vals)
	}
}

// Regression: Quantile returned bucketUpper, which for low q could fall
// below the recorded Min. The result must stay within [Min, Max].
func TestHistogramQuantileClamped(t *testing.T) {
	// Single sample: every quantile is that sample.
	h := NewHistogram()
	h.Observe(123456)
	for _, q := range []float64{0, 0.01, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 123456 {
			t.Fatalf("single-sample Quantile(%v) = %v, want 123456", q, got)
		}
	}

	// Bucket-edge values: all samples in one bucket, low quantiles must
	// not dip below Min.
	h2 := NewHistogram()
	samples := []sim.Duration{1000, 1001, 1002, 1069}
	for _, d := range samples {
		h2.Observe(d)
	}
	for _, q := range []float64{0, 0.001, 0.25, 0.5, 0.75, 0.99, 1} {
		got := h2.Quantile(q)
		if got < h2.min || got > h2.max {
			t.Fatalf("Quantile(%v) = %v outside [%v, %v]", q, got, h2.min, h2.max)
		}
	}
	if h2.Quantile(0) != h2.min {
		t.Fatalf("Quantile(0) = %v, want Min %v", h2.Quantile(0), h2.min)
	}
	if h2.Quantile(1) != h2.max {
		t.Fatalf("Quantile(1) = %v, want Max %v", h2.Quantile(1), h2.max)
	}

	// Wide spread: the invariant holds across many buckets too.
	h3 := NewHistogram()
	for d := sim.Duration(1); d < 1_000_000; d *= 3 {
		h3.Observe(d)
	}
	for q := 0.0; q <= 1.0; q += 0.05 {
		got := h3.Quantile(q)
		if got < h3.min || got > h3.max {
			t.Fatalf("Quantile(%v) = %v outside [%v, %v]", q, got, h3.min, h3.max)
		}
	}
}
