// Package metrics provides the measurement instruments used by every
// experiment in this repository: latency histograms, throughput meters
// and small statistical helpers, plus plain-text table rendering for
// the benchmark harness.
package metrics

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/sim"
)

// Histogram records sim.Duration samples in logarithmic buckets
// (~7% relative width), supporting quantile queries without storing
// every sample.
type Histogram struct {
	buckets map[int]int64
	count   int64
	sum     float64
	min     sim.Duration
	max     sim.Duration

	// exemplars holds, per occupied bucket, the trace behind the bucket's
	// largest traced sample (lazily allocated; only ObserveTraced feeds
	// it). Memory is bounded by the occupied-bucket count, not the sample
	// count.
	exemplars map[int]Exemplar
}

// Exemplar links a histogram bucket back to the trace of its largest
// traced sample, so a quantile can be followed to a concrete op.
type Exemplar struct {
	Bucket int
	Trace  uint64
	Value  sim.Duration
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{buckets: make(map[int]int64), min: math.MaxInt64}
}

const histGrowth = 1.07

func bucketOf(d sim.Duration) int {
	if d <= 0 {
		return 0
	}
	return 1 + int(math.Log(float64(d))/math.Log(histGrowth))
}

func bucketUpper(b int) sim.Duration {
	if b == 0 {
		return 0
	}
	return sim.Duration(math.Pow(histGrowth, float64(b)))
}

// Observe records one sample.
func (h *Histogram) Observe(d sim.Duration) {
	h.buckets[bucketOf(d)]++
	h.count++
	h.sum += float64(d)
	if d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
}

// ObserveTraced records one sample and, when trace != 0, offers it as the
// bucket's exemplar. The exemplar is replaced only by a strictly greater
// value, so for a fixed observation sequence (deterministic under the sim
// kernel) the exemplar set is deterministic regardless of ties.
func (h *Histogram) ObserveTraced(d sim.Duration, trace uint64) {
	h.Observe(d)
	if trace == 0 {
		return
	}
	b := bucketOf(d)
	ex, ok := h.exemplars[b]
	if ok && d <= ex.Value {
		return
	}
	if h.exemplars == nil {
		h.exemplars = make(map[int]Exemplar)
	}
	h.exemplars[b] = Exemplar{Bucket: b, Trace: trace, Value: d}
}

// Exemplars returns all bucket exemplars sorted by bucket (ascending
// value order), empty if no traced samples were observed.
func (h *Histogram) Exemplars() []Exemplar {
	if len(h.exemplars) == 0 {
		return nil
	}
	out := make([]Exemplar, 0, len(h.exemplars))
	for _, ex := range h.exemplars {
		out = append(out, ex)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Bucket < out[j].Bucket })
	return out
}

// ExemplarNear returns the exemplar closest to the q-quantile: the one in
// the highest occupied bucket not above Quantile(q)'s bucket, falling back
// to the lowest exemplar above it. ok is false if no exemplars exist.
func (h *Histogram) ExemplarNear(q float64) (Exemplar, bool) {
	exs := h.Exemplars()
	if len(exs) == 0 {
		return Exemplar{}, false
	}
	qb := bucketOf(h.Quantile(q))
	best := exs[0]
	for _, ex := range exs {
		if ex.Bucket > qb {
			break
		}
		best = ex
	}
	return best, true
}

// Count returns the number of samples.
func (h *Histogram) Count() int64 { return h.count }

// Mean returns the arithmetic mean of all samples (0 if empty).
func (h *Histogram) Mean() sim.Duration {
	if h.count == 0 {
		return 0
	}
	return sim.Duration(h.sum / float64(h.count))
}

// Quantile returns an upper bound on the q-quantile (0 ≤ q ≤ 1), accurate to
// the bucket width (~7%). Exact min/max are returned at the extremes.
func (h *Histogram) Quantile(q float64) sim.Duration {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	target := int64(math.Ceil(q * float64(h.count)))
	keys := make([]int, 0, len(h.buckets))
	for b := range h.buckets {
		keys = append(keys, b)
	}
	sort.Ints(keys)
	var cum int64
	for _, b := range keys {
		cum += h.buckets[b]
		if cum >= target {
			u := bucketUpper(b)
			// Clamp to the observed range: bucketUpper of the lowest
			// occupied bucket can fall below the recorded minimum (the
			// bucket's upper bound is only within ~7% of its samples),
			// and a quantile below the minimum misleads every consumer.
			if u > h.max {
				u = h.max
			}
			if u < h.min {
				u = h.min
			}
			return u
		}
	}
	return h.max
}

// P50, P99 are convenience quantiles.
func (h *Histogram) P50() sim.Duration { return h.Quantile(0.50) }
func (h *Histogram) P99() sim.Duration { return h.Quantile(0.99) }

// HistogramSnapshot is a point-in-time copy of a Histogram's bucket state,
// taken with Snapshot. Holding one lets a consumer compute windowed
// statistics (count, mean, quantiles of only the samples observed since the
// snapshot) from a cumulative histogram — how the telemetry SLO watchdog
// gets a per-scrape p99 without resetting the shared instrument.
type HistogramSnapshot struct {
	buckets map[int]int64
	count   int64
	sum     float64
}

// Snapshot copies the histogram's current bucket state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{buckets: make(map[int]int64, len(h.buckets)), count: h.count, sum: h.sum}
	for b, n := range h.buckets {
		s.buckets[b] = n
	}
	return s
}

// CountSince returns the number of samples observed since prev was taken.
func (h *Histogram) CountSince(prev HistogramSnapshot) int64 { return h.count - prev.count }

// QuantileSince returns an upper bound on the q-quantile of only the samples
// observed since prev was taken (0 if none), accurate to the bucket width.
// The result is clamped to the histogram's lifetime max; the per-window
// minimum is not tracked, so the low extreme is bucket-resolution only.
func (h *Histogram) QuantileSince(prev HistogramSnapshot, q float64) sim.Duration {
	n := h.count - prev.count
	if n <= 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(n)))
	if target < 1 {
		target = 1
	}
	keys := make([]int, 0, len(h.buckets))
	for b := range h.buckets {
		keys = append(keys, b)
	}
	sort.Ints(keys)
	var cum int64
	for _, b := range keys {
		cum += h.buckets[b] - prev.buckets[b]
		if cum >= target {
			u := bucketUpper(b)
			if u > h.max {
				u = h.max
			}
			return u
		}
	}
	return h.max
}

// Meter measures throughput: bytes (or operations) accumulated over a
// virtual-time window.
type Meter struct {
	bytes int64
	start sim.Time
	end   sim.Time
}

// NewMeter returns a meter whose window opens at start.
func NewMeter(start sim.Time) *Meter { return &Meter{start: start, end: start} }

// Record adds n bytes/ops observed at time t.
func (m *Meter) Record(t sim.Time, n int64) {
	m.bytes += n
	if t > m.end {
		m.end = t
	}
}

// CloseAt fixes the window end (e.g. the experiment end time).
func (m *Meter) CloseAt(t sim.Time) {
	if t > m.end {
		m.end = t
	}
}

// Window returns the elapsed window.
func (m *Meter) Window() sim.Duration { return m.end.Sub(m.start) }

// PerSecond returns the average rate over the window.
func (m *Meter) PerSecond() float64 {
	w := m.Window().Seconds()
	if w <= 0 {
		return 0
	}
	return float64(m.bytes) / w
}

// MBps returns the average rate in megabytes (1e6) per second.
func (m *Meter) MBps() float64 { return m.PerSecond() / 1e6 }

// Stats summarizes a plain slice of float64 observations.
type Stats struct {
	N                   int
	Mean, Std, Min, Max float64
}

// Summarize computes summary statistics for xs.
func Summarize(xs []float64) Stats {
	st := Stats{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	if len(xs) == 0 {
		st.Min, st.Max = 0, 0
		return st
	}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < st.Min {
			st.Min = x
		}
		if x > st.Max {
			st.Max = x
		}
	}
	st.Mean = sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - st.Mean
		ss += d * d
	}
	if len(xs) > 1 {
		st.Std = math.Sqrt(ss / float64(len(xs)-1))
	}
	return st
}

// CV returns the coefficient of variation (std/mean), the hot-spot metric
// used in experiment E3: near 0 means perfectly balanced load.
func (s Stats) CV() float64 {
	if s.Mean == 0 {
		return 0
	}
	return s.Std / s.Mean
}

// FormatBytes renders a byte count with a binary-prefix unit.
func FormatBytes(n int64) string {
	const unit = 1024
	if n < unit {
		return fmt.Sprintf("%dB", n)
	}
	div, exp := int64(unit), 0
	for m := n / unit; m >= unit; m /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f%ciB", float64(n)/float64(div), "KMGTPEZY"[exp])
}
