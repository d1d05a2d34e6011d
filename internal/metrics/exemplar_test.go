package metrics

import (
	"reflect"
	"testing"

	"repro/internal/sim"
)

func TestExemplarBasics(t *testing.T) {
	h := NewHistogram()
	h.ObserveTraced(100, 1)
	h.ObserveTraced(105, 2) // same bucket, larger → replaces
	h.ObserveTraced(105, 3) // tie → first writer wins (strictly greater only)
	h.ObserveTraced(1e6, 4) // distinct bucket
	h.Observe(2e6)          // untraced: no exemplar
	h.ObserveTraced(3e6, 0) // trace 0 = untraced
	exs := h.Exemplars()
	if len(exs) != 2 {
		t.Fatalf("exemplars = %+v, want 2", exs)
	}
	if exs[0].Trace != 2 || exs[0].Value != 105 {
		t.Errorf("low exemplar = %+v, want trace 2 @105", exs[0])
	}
	if exs[1].Trace != 4 {
		t.Errorf("high exemplar = %+v, want trace 4", exs[1])
	}
	if exs[0].Bucket >= exs[1].Bucket {
		t.Error("exemplars not sorted by bucket")
	}
}

func TestExemplarNear(t *testing.T) {
	h := NewHistogram()
	if _, ok := h.ExemplarNear(0.99); ok {
		t.Fatal("empty histogram should have no exemplar")
	}
	// 95 fast ops traced, 5 slow ops in one far bucket: p99 lands among
	// the slow ones, whose exemplar is the slowest of the five.
	for i := 0; i < 95; i++ {
		h.ObserveTraced(sim.Duration(1000+i), uint64(i+1))
	}
	for i := 0; i < 5; i++ {
		h.ObserveTraced(sim.Duration(1e9+float64(i)*1e7), uint64(551+i))
	}
	ex, ok := h.ExemplarNear(0.99)
	if !ok || ex.Trace != 555 {
		t.Errorf("p99 exemplar = %+v ok=%v, want trace 555", ex, ok)
	}
	ex, ok = h.ExemplarNear(0.50)
	if !ok || ex.Trace == 555 {
		t.Errorf("p50 exemplar = %+v, should come from the fast cluster", ex)
	}
}

// TestExemplarDeterminism: the same observation sequence produces a
// deeply equal exemplar set, and order of ties never matters because only
// strictly greater values replace.
func TestExemplarDeterminism(t *testing.T) {
	run := func() []Exemplar {
		h := NewHistogram()
		for i := 0; i < 10000; i++ {
			d := sim.Duration((i*7919)%100000 + 1)
			h.ObserveTraced(d, uint64(i+1))
		}
		return h.Exemplars()
	}
	if !reflect.DeepEqual(run(), run()) {
		t.Error("exemplar sets differ across identical runs")
	}
}

// TestExemplarMemoryBounded: exemplar count is bounded by occupied
// buckets, not samples.
func TestExemplarMemoryBounded(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 200000; i++ {
		h.ObserveTraced(sim.Duration(i%1000000+1), uint64(i+1))
	}
	if n := len(h.Exemplars()); n > 250 {
		t.Errorf("%d exemplars for ~200 occupied buckets — not bounded", n)
	}
}
