package experiments

import (
	"strings"
	"testing"

	"repro/internal/critpath"
	"repro/internal/qos"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestCritPathReconciles is the attribution property on the canonical
// same-seed workload: the span-DAG attribution must reconcile exactly with
// the tracer's own accounting. Wall time tiles into critical segments
// (Check), and the analyzer's per-phase inclusive totals — recomputed here
// straight from the span log — match what it aggregated, while the phase
// histograms (the BreakdownTable's source) count every ended span the
// analyzer saw.
func TestCritPathReconciles(t *testing.T) {
	skipIfShort(t)
	l := canonicalTraced(3)
	defer l.close()
	tracer := l.tr
	a := critpath.FromTracer(tracer)
	if err := a.Check(); err != nil {
		t.Fatal(err)
	}
	if len(a.Ops) < 100 {
		t.Fatalf("canonical workload analyzed only %d ops", len(a.Ops))
	}
	if tracer.Dropped() != 0 || a.DroppedUnknown {
		t.Fatalf("canonical workload should fit the span cap: %d dropped", tracer.Dropped())
	}
	// The traced window closes with each client's final op still in flight:
	// those spans never end, so up to one trace per client is rootless and
	// counted truncated — visibly, never folded into the attribution.
	if a.Truncated == 0 || a.Truncated > snapClients {
		t.Fatalf("want 1..%d in-flight truncated traces, got %d", snapClients, a.Truncated)
	}
	if a.Rootless != a.Truncated {
		t.Fatalf("window-end truncation should be rootless traces: %d rootless, %d truncated",
			a.Rootless, a.Truncated)
	}

	// Independent recomputation of the inclusive per-phase view over spans
	// of analyzed op traces; must match ByPhase span-for-span and ns-for-ns.
	analyzed := make(map[uint64]bool, len(a.Ops))
	for _, op := range a.Ops {
		analyzed[op.Trace] = true
	}
	nPhases := len(trace.Phases) + 1
	counts := make([]int64, nPhases)
	sums := make([]sim.Duration, nPhases)
	pidx := func(ph trace.Phase) int {
		for i, p := range trace.Phases {
			if p == ph {
				return i
			}
		}
		return len(trace.Phases)
	}
	var total int64
	for _, s := range tracer.Spans() {
		total++
		if !analyzed[s.Trace] {
			continue
		}
		pi := pidx(s.Phase)
		counts[pi]++
		sums[pi] += s.Duration()
	}
	for pi, pt := range a.ByPhase {
		if pt.Spans != counts[pi] || pt.Total != sums[pi] {
			t.Fatalf("phase %d inclusive totals diverge: analysis %d spans/%v, span log %d spans/%v",
				pi, pt.Spans, pt.Total, counts[pi], sums[pi])
		}
	}
	// Every retained span was observed by exactly one phase histogram, so
	// the BreakdownTable's counts sum to the span log the analyzer read.
	var histTotal int64
	for _, ph := range trace.Phases {
		histTotal += tracer.PhaseHistogram(ph).Count()
	}
	if histTotal != total {
		t.Fatalf("phase histograms counted %d spans, span log holds %d", histTotal, total)
	}
}

// TestCritPathDeterministic: same seed, byte-identical analyzer output at
// cluster scale — tables and folded stacks both, since EXPERIMENTS.md and
// flame graphs each consume one of them.
func TestCritPathDeterministic(t *testing.T) {
	skipIfShort(t)
	render := func() (string, string) {
		a := runCritPath(7)
		var folded strings.Builder
		if err := a.WriteFolded(&folded); err != nil {
			t.Fatal(err)
		}
		return a.TailTable("t").String() + a.BudgetTable("b").String(), folded.String()
	}
	t1, f1 := render()
	t2, f2 := render()
	if t1 != t2 {
		t.Fatalf("same-seed tables differ:\n%s\nvs\n%s", t1, t2)
	}
	if f1 != f2 {
		t.Fatal("same-seed folded stacks differ")
	}
	if !strings.Contains(f1, "read") && !strings.Contains(f1, "write") {
		t.Fatalf("folded stacks carry no op frames:\n%.400s", f1)
	}
}

// TestCritPathE14TracedArm: the traced E14 arm must yield an analyzable
// span log — and tracing must not perturb the arm. The tracer rides
// virtual time, so the traced and untraced runs of the same seed must
// agree on every behavioural output.
func TestCritPathE14TracedArm(t *testing.T) {
	skipIfShort(t)
	sc := e14Quick()
	plain := e14Arm(11, sc, qos.GovPI, false)
	if plain.CritPath != nil {
		t.Fatal("untraced arm should carry no analysis")
	}
	sc.traced = true
	traced := e14Arm(11, sc, qos.GovPI, false)
	a := traced.CritPath
	if a == nil {
		t.Fatal("traced arm lost its analysis")
	}
	if plain.VictimP99 != traced.VictimP99 || plain.ScrubChunks != traced.ScrubChunks ||
		plain.ViolationWindows != traced.ViolationWindows || plain.Reversals != traced.Reversals {
		t.Fatalf("tracing perturbed the arm: %+v vs %+v", plain, traced)
	}
	if err := a.Check(); err != nil {
		t.Fatal(err)
	}
	if len(a.Ops) < 100 {
		t.Fatalf("E14 loaded phase analyzed only %d ops", len(a.Ops))
	}
	// The arm traces only the loaded phase: contended ops must show disk
	// or queue time on the critical path, or the attribution is vacuous.
	median, tail := a.Cohorts()
	if median.Ops == 0 || tail.Ops == 0 {
		t.Fatalf("cohorts empty: median %d, tail %d", median.Ops, tail.Ops)
	}
	if tail.MeanWall <= median.MeanWall {
		t.Fatalf("tail cohort no slower than median: %v vs %v", tail.MeanWall, median.MeanWall)
	}
}

// TestCritPathScaleTraced drives ten thousand traced closed-loop clients
// with the span log capped far below the load, the ISSUE-8 scale point:
// exemplar memory must stay bounded by the histogram's occupied buckets,
// and cap eviction must surface as counted truncation — never as silently
// skewed attribution. The window is 60 ms because with 10,000 clients
// starting at once no op completes by 30 ms: every client's first op queues
// behind the others' directory requests and CPU charges.
func TestCritPathScaleTraced(t *testing.T) {
	skipIfShort(t)
	const (
		blades  = 16
		clients = 10_000
		ws      = 64 << 10
		dur     = 60 * sim.Millisecond
	)
	l := newLab(8, clusterConfig(blades), "scale", 0)
	defer l.close()
	c, tracer := l.c, l.tr
	tracer.SetCap(1 << 12)
	tracer.SetEnabled(true)
	r := l.run(clients, dur, func(int) workload.Pattern {
		return workload.Uniform{Range: ws, Blocks: 4, WriteFrac: 0.25}
	})
	tracer.SetEnabled(false)
	if r.Ops < int64(clients)/2 {
		t.Fatalf("completed only %d ops for %d clients", r.Ops, clients)
	}
	if tracer.Dropped() == 0 {
		t.Fatal("expected span-cap eviction at this scale")
	}

	a := critpath.FromTracer(tracer)
	if err := a.Check(); err != nil {
		t.Fatal(err)
	}
	if a.Truncated == 0 {
		t.Fatal("cap eviction must surface as truncated traces")
	}
	// No analyzed op may belong to a trace the tracer marked as dropped.
	for _, op := range a.Ops {
		if tracer.TraceDropped(op.Trace) {
			t.Fatalf("trace %d was analyzed despite dropped spans", op.Trace)
		}
	}

	// Exemplar storage on the op-latency histogram: one entry per occupied
	// bucket at most, regardless of how many of the 10k clients observed.
	h := c.Reg.HistogramFor("cluster/op_latency")
	if h == nil {
		t.Fatal("cluster/op_latency histogram missing")
	}
	exs := h.Exemplars()
	if len(exs) == 0 {
		t.Fatal("traced run recorded no exemplars")
	}
	if len(exs) > 256 {
		t.Fatalf("exemplar storage unbounded: %d entries", len(exs))
	}
	for _, ex := range exs {
		if ex.Trace == 0 {
			t.Fatal("exemplar with zero trace id")
		}
	}
	t.Logf("ops=%d spans=%d dropped=%d analyzed=%d truncated=%d exemplars=%d",
		r.Ops, len(tracer.Spans()), tracer.Dropped(), len(a.Ops), a.Truncated, len(exs))
}
