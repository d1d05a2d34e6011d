package telemetry

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
)

func TestRegistryNaturalOrder(t *testing.T) {
	r := NewRegistry()
	for _, n := range []string{"blade/10/ops", "blade/9/ops", "blade/2/cache/hits", "cluster/ops", "blade/2/ops"} {
		r.Int(n, func() int64 { return 0 })
	}
	got := r.Names()
	want := []string{"blade/2/cache/hits", "blade/2/ops", "blade/9/ops", "blade/10/ops", "cluster/ops"}
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names()[%d] = %q, want %q (full: %v)", i, got[i], want[i], got)
		}
	}
	if r.Len() != len(want) {
		t.Fatalf("Len() = %d, want %d", r.Len(), len(want))
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Int("a/b", func() int64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Int("a/b", func() int64 { return 1 })
}

func TestRegistryMatch(t *testing.T) {
	r := NewRegistry()
	for _, n := range []string{"blade/0/ops", "blade/1/ops", "blade/0/cache/hits", "disk/0/queue_depth", "cluster/ops"} {
		r.Int(n, func() int64 { return 0 })
	}
	cases := []struct {
		pattern string
		want    []string
	}{
		{"blade/*/ops", []string{"blade/0/ops", "blade/1/ops"}},
		{"blade/0/cache/hits", []string{"blade/0/cache/hits"}},
		{"*/*/ops", []string{"blade/0/ops", "blade/1/ops"}},
		// '*' matches exactly one segment, so a 3-segment pattern never
		// matches a 4-segment name.
		{"blade/*/*", []string{"blade/0/ops", "blade/1/ops"}},
		{"nothing/*", nil},
		// '*' also matches part of a segment.
		{"blade/*/o*", []string{"blade/0/ops", "blade/1/ops"}},
		{"d*/0/*", []string{"disk/0/queue_depth"}},
	}
	for _, c := range cases {
		got := r.Match(c.pattern)
		if len(got) != len(c.want) {
			t.Fatalf("Match(%q) = %v, want %v", c.pattern, got, c.want)
		}
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Fatalf("Match(%q) = %v, want %v", c.pattern, got, c.want)
			}
		}
	}
}

func TestRegistryHistogram(t *testing.T) {
	r := NewRegistry()
	h := metrics.NewHistogram()
	r.Histogram("lat", h)
	h.Observe(2 * sim.Millisecond)
	h.Observe(4 * sim.Millisecond)
	if v, _ := r.Value("lat/count"); v != 2 {
		t.Fatalf("lat/count = %v, want 2", v)
	}
	if v, _ := r.Value("lat/p99_ms"); v <= 0 {
		t.Fatalf("lat/p99_ms = %v, want > 0", v)
	}
	if v, _ := r.Value("lat/mean_ms"); v <= 0 {
		t.Fatalf("lat/mean_ms = %v, want > 0", v)
	}
	if r.HistogramFor("lat") != h {
		t.Fatal("HistogramFor did not return the registered histogram")
	}
	if r.HistogramFor("nope") != nil {
		t.Fatal("HistogramFor returned a histogram for an unknown name")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate histogram registration did not panic")
		}
	}()
	r.Histogram("lat", metrics.NewHistogram())
}

func TestWritePromStable(t *testing.T) {
	r := NewRegistry()
	r.Int("net/link/blade0.fc0-switch/bytes", func() int64 { return 42 })
	r.Int("blade/3/ops", func() int64 { return 7 })
	var a, b bytes.Buffer
	if err := r.WriteProm(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("WriteProm not byte-stable:\n%s\nvs\n%s", a.String(), b.String())
	}
	if !strings.Contains(a.String(), "blade_3_ops 7\n") {
		t.Fatalf("missing sanitized blade line in:\n%s", a.String())
	}
	if !strings.Contains(a.String(), "net_link_blade0_fc0_switch_bytes 42\n") {
		t.Fatalf("link name not sanitized in:\n%s", a.String())
	}
}

func TestScopeSub(t *testing.T) {
	r := NewRegistry()
	s := r.Sub("blade/3").Sub("cache")
	s.Int("hits", func() int64 { return 11 })
	if v, ok := r.Value("blade/3/cache/hits"); !ok || v != 11 {
		t.Fatalf("scoped registration: got (%v, %v), want (11, true)", v, ok)
	}
}

func TestSkewTableFree(t *testing.T) {
	r := NewRegistry()
	vals := map[string]int64{"blade/0/ops": 90, "blade/1/ops": 5, "blade/2/ops": 5}
	for n, v := range vals {
		v := v
		r.Int(n, func() int64 { return v })
	}
	tab := SkewTable(r, "skew", "blade/*/ops")
	out := tab.String()
	if !strings.Contains(out, "blade/0/ops") || !strings.Contains(out, "90") {
		t.Fatalf("skew table missing hottest row:\n%s", out)
	}
	if !strings.Contains(out, "skew: CV") {
		t.Fatalf("skew table missing CV note:\n%s", out)
	}
	// A pattern that matches nothing says so instead of claiming balance.
	out = SkewTable(r, "skew", "disk/*/ops").String()
	if !strings.Contains(out, `skew: no metric matches "disk/*/ops"`) || strings.Contains(out, "balanced") {
		t.Fatalf("no-match skew table should say nothing matched:\n%s", out)
	}
}

func TestRegistryExemplarFor(t *testing.T) {
	r := NewRegistry()
	h := metrics.NewHistogram()
	r.Histogram("cluster/op_latency", h)
	if _, ok := r.ExemplarFor("cluster/op_latency", 0.99); ok {
		t.Fatal("exemplar from empty histogram")
	}
	if _, ok := r.ExemplarFor("no/such", 0.99); ok {
		t.Fatal("exemplar from unknown histogram")
	}
	for i := 0; i < 50; i++ {
		h.ObserveTraced(sim.Duration(1000+i), uint64(i+1))
	}
	h.ObserveTraced(sim.Duration(1e9), 77)
	ex, ok := r.ExemplarFor("cluster/op_latency", 1.0)
	if !ok || ex.Trace != 77 {
		t.Errorf("ExemplarFor(p100) = %+v ok=%v, want trace 77", ex, ok)
	}
	// Registering with exemplars must not add derived series (scrape and
	// prom output stay stable).
	if got := r.Len(); got != 4 {
		t.Errorf("registry Len = %d, want 4 derived series only", got)
	}
}
