package metrics

import (
	"testing"

	"repro/internal/sim"
)

func TestMeterClosedAtStart(t *testing.T) {
	// A meter created and closed at the same instant must report zero
	// rates, not Inf/NaN — the empty measurement window a scraper can
	// produce at startup.
	start := sim.Time(3 * sim.Second)
	m := NewMeter(start)
	m.CloseAt(start)
	if m.PerSecond() != 0 || m.MBps() != 0 {
		t.Fatalf("zero-window rates = %v B/s, %v MB/s, want both 0",
			m.PerSecond(), m.MBps())
	}
}

func TestHistogramSnapshotWindow(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 100; i++ {
		h.Observe(sim.Millisecond)
	}
	snap := h.Snapshot()
	for i := 0; i < 100; i++ {
		h.Observe(20 * sim.Millisecond)
	}
	if n := h.CountSince(snap); n != 100 {
		t.Fatalf("CountSince = %d, want 100", n)
	}
	// The lifetime p50 straddles both populations; the windowed quantiles
	// see only the slow second batch.
	if p50 := h.QuantileSince(snap, 0.50); p50 < 15*sim.Millisecond {
		t.Fatalf("windowed p50 = %v, want ≈20ms", p50)
	}
	if lifetime := h.P50(); lifetime > 5*sim.Millisecond {
		t.Fatalf("lifetime p50 = %v, want ≈1ms (both batches pooled)", lifetime)
	}
}

func TestHistogramSnapshotEmptyWindow(t *testing.T) {
	h := NewHistogram()
	h.Observe(sim.Millisecond)
	snap := h.Snapshot()
	if n := h.CountSince(snap); n != 0 {
		t.Fatalf("CountSince on empty window = %d, want 0", n)
	}
	if q := h.QuantileSince(snap, 0.99); q != 0 {
		t.Fatalf("QuantileSince on empty window = %v, want 0", q)
	}
}

func TestHistogramZeroSnapshotIsLifetime(t *testing.T) {
	// The zero-value snapshot means "since the beginning": windowed reads
	// against it must agree with the lifetime accessors.
	h := NewHistogram()
	for i := 1; i <= 50; i++ {
		h.Observe(sim.Duration(i) * sim.Millisecond)
	}
	var zero HistogramSnapshot
	if h.CountSince(zero) != h.Count() {
		t.Fatalf("CountSince(zero) = %d, want %d", h.CountSince(zero), h.Count())
	}
	if h.QuantileSince(zero, 0.99) != h.P99() {
		t.Fatalf("QuantileSince(zero, .99) = %v, want %v", h.QuantileSince(zero, 0.99), h.P99())
	}
}
