package metrics

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Observe(sim.Duration(i) * sim.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Quantile(0) != sim.Millisecond {
		t.Fatalf("min = %v", h.Quantile(0))
	}
	if h.max != 100*sim.Millisecond {
		t.Fatalf("max = %v", h.max)
	}
	mean := h.Mean()
	if mean < 49*sim.Millisecond || mean > 52*sim.Millisecond {
		t.Fatalf("mean = %v, want ~50.5ms", mean)
	}
}

// Property: quantiles are monotone in q and bounded by min/max, within
// bucket resolution.
func TestHistogramQuantileProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHistogram()
		for _, r := range raw {
			h.Observe(sim.Duration(r%10_000_000) + 1)
		}
		qs := []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1}
		prev := sim.Duration(-1)
		for _, q := range qs {
			v := h.Quantile(q)
			if v < prev {
				return false
			}
			if v > h.max {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: histogram quantile approximates the exact quantile within
// bucket relative error (~7%) plus one bucket.
func TestHistogramQuantileAccuracy(t *testing.T) {
	h := NewHistogram()
	var exact []float64
	for i := 0; i < 5000; i++ {
		d := sim.Duration((i*7919)%1_000_000 + 1)
		h.Observe(d)
		exact = append(exact, float64(d))
	}
	sort.Float64s(exact)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want := exact[int(q*float64(len(exact)-1))]
		got := float64(h.Quantile(q))
		if got < want*0.85 || got > want*1.20 {
			t.Fatalf("q=%.2f: got %.0f, exact %.0f (outside tolerance)", q, got, want)
		}
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Mean() != 0 || h.Quantile(0.5) != 0 || h.Quantile(0) != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestMeterRates(t *testing.T) {
	m := NewMeter(0)
	m.Record(sim.Time(sim.Second), 125_000_000) // 125 MB over 1 s
	if mb := m.MBps(); math.Abs(mb-125) > 1e-9 {
		t.Fatalf("MBps = %v, want 125", mb)
	}
}

func TestMeterCloseAtExtendsWindow(t *testing.T) {
	m := NewMeter(0)
	m.Record(sim.Time(sim.Second), 100)
	m.CloseAt(sim.Time(2 * sim.Second))
	if m.Window() != 2*sim.Second {
		t.Fatalf("window = %v, want 2s", m.Window())
	}
	if m.PerSecond() != 50 {
		t.Fatalf("rate = %v, want 50", m.PerSecond())
	}
}

func TestMeterZeroWindow(t *testing.T) {
	m := NewMeter(0)
	m.Record(0, 100)
	if m.PerSecond() != 0 {
		t.Fatal("zero-window meter should report 0 rate, not Inf")
	}
}

func TestSummarize(t *testing.T) {
	st := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if st.Mean != 5 {
		t.Fatalf("mean = %v, want 5", st.Mean)
	}
	if st.Min != 2 || st.Max != 9 {
		t.Fatalf("min/max = %v/%v", st.Min, st.Max)
	}
	if math.Abs(st.Std-2.138) > 0.01 {
		t.Fatalf("std = %v, want ~2.138 (sample std)", st.Std)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	st := Summarize(nil)
	if st.N != 0 || st.Mean != 0 || st.CV() != 0 {
		t.Fatal("empty summarize should be all zero")
	}
}

// Property: CV is scale-invariant — multiplying all observations by a
// positive constant leaves CV unchanged.
func TestCVScaleInvariance(t *testing.T) {
	f := func(raw []uint16, scale uint8) bool {
		if len(raw) < 2 || scale == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		ys := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r) + 1
			ys[i] = xs[i] * float64(scale)
		}
		a, b := Summarize(xs).CV(), Summarize(ys).CV()
		return math.Abs(a-b) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("E1", "blades", "Gbps")
	tab.AddRow(4, 9.87)
	tab.AddNote("port limit 10 Gb/s")
	out := tab.String()
	for _, want := range []string{"== E1 ==", "blades", "9.87", "note: port limit"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[int64]string{
		512:             "512B",
		2048:            "2.0KiB",
		3 * 1024 * 1024: "3.0MiB",
		5 << 30:         "5.0GiB",
		int64(1) << 50:  "1.0PiB",
	}
	for n, want := range cases {
		if got := FormatBytes(n); got != want {
			t.Errorf("FormatBytes(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestSparkline(t *testing.T) {
	s := Sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7})
	if len([]rune(s)) != 8 {
		t.Fatalf("len = %d", len([]rune(s)))
	}
	if []rune(s)[0] != '▁' || []rune(s)[7] != '█' {
		t.Fatalf("sparkline = %q", s)
	}
	if Sparkline(nil) != "" {
		t.Fatal("empty input should render empty")
	}
	flat := Sparkline([]float64{5, 5, 5})
	for _, r := range flat {
		if r != '▁' {
			t.Fatalf("flat series = %q", flat)
		}
	}
}

func TestTimeSeries(t *testing.T) {
	ts := NewTimeSeries(0, sim.Duration(100)*sim.Millisecond)
	ts.Record(sim.Time(50*sim.Millisecond), 1)
	ts.Record(sim.Time(60*sim.Millisecond), 2)
	ts.Record(sim.Time(250*sim.Millisecond), 4)
	vals := ts.vals
	if len(vals) != 3 || vals[0] != 3 || vals[1] != 0 || vals[2] != 4 {
		t.Fatalf("vals = %v", vals)
	}
	if !strings.Contains(ts.Spark("x"), "windows") {
		t.Fatal("spark caption missing")
	}
	ts.Record(-1, 9) // before start: ignored
	if ts.vals[0] != 3 {
		t.Fatal("pre-start sample recorded")
	}
}
