package critpath

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// CritFor returns the op's critical time attributed to phase ph.
func (o *OpPath) CritFor(ph trace.Phase) sim.Duration {
	for i, p := range trace.Phases {
		if p == ph {
			return o.Crit[i]
		}
	}
	return 0
}

// span is a test shorthand for building span logs by hand. Spans must be
// appended in end order (the tracer's log order).
func span(traceID, id, parent uint64, name string, ph trace.Phase, start, end int64) trace.Span {
	return trace.Span{Trace: traceID, ID: id, Parent: parent, Name: name, Phase: ph,
		Start: sim.Time(start), End: sim.Time(end)}
}

func mustCheck(t *testing.T, a *Analysis) {
	t.Helper()
	if err := a.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestLinearChain: op → queue → disk nested sequentially. Every span's
// self time lands in its own phase.
func TestLinearChain(t *testing.T) {
	spans := []trace.Span{
		span(1, 3, 2, "disk", trace.Disk, 20, 60),
		span(1, 2, 1, "wait", trace.Queue, 10, 80),
		span(1, 1, 0, "read", trace.Op, 0, 100),
	}
	a := Analyze(spans, nil)
	mustCheck(t, a)
	if len(a.Ops) != 1 {
		t.Fatalf("ops = %d, want 1", len(a.Ops))
	}
	op := a.Ops[0]
	if op.Wall != 100 {
		t.Fatalf("wall = %d", op.Wall)
	}
	// disk owns [20,60); queue owns [10,20) and [60,80); op owns [0,10) and [80,100).
	if got := op.CritFor(trace.Disk); got != 40 {
		t.Errorf("disk critical = %d, want 40", got)
	}
	if got := op.CritFor(trace.Queue); got != 30 {
		t.Errorf("queue critical = %d, want 30", got)
	}
	if got := op.CritFor(trace.Op); got != 30 {
		t.Errorf("op self critical = %d, want 30", got)
	}
	if op.Queue != 30 || op.Service != 70 {
		t.Errorf("queue/service = %d/%d, want 30/70", op.Queue, op.Service)
	}
	if op.Overlap != 0 {
		t.Errorf("overlap = %d, want 0", op.Overlap)
	}
	// Delegated: wait delegated 40 to disk; read delegated 70 to wait.
	if got := a.ByPhase[phaseIdx(trace.Queue)].Delegated; got != 40 {
		t.Errorf("queue delegated = %d, want 40", got)
	}
	if got := a.ByPhase[phaseIdx(trace.Op)].Delegated; got != 70 {
		t.Errorf("op delegated = %d, want 70", got)
	}
}

// TestParallelChildren: two concurrent children; the later-finishing one
// owns the shared interval, the other becomes overlap.
func TestParallelChildren(t *testing.T) {
	spans := []trace.Span{
		span(1, 2, 1, "fab-a", trace.Fabric, 10, 50),
		span(1, 3, 1, "fab-b", trace.Fabric, 10, 90),
		span(1, 1, 0, "read", trace.Op, 0, 100),
	}
	a := Analyze(spans, nil)
	mustCheck(t, a)
	op := a.Ops[0]
	// fab-b (ends 90) owns [10,90); fab-a is fully hidden behind it.
	if got := op.CritFor(trace.Fabric); got != 80 {
		t.Errorf("fabric critical = %d, want 80", got)
	}
	if op.Overlap != 40 {
		t.Errorf("overlap = %d, want 40 (all of fab-a)", op.Overlap)
	}
	ft := a.ByPhase[phaseIdx(trace.Fabric)]
	if ft.Critical != 80 || ft.Overlap != 40 || ft.Delegated != 0 {
		t.Errorf("fabric totals = %+v", ft)
	}
	if ft.Critical+ft.Delegated+ft.Overlap != ft.Total {
		t.Errorf("fabric identity broken: %+v", ft)
	}
}

// TestPartialOverlap: children overlap partially; the backward walk splits
// the window at the later child's start.
func TestPartialOverlap(t *testing.T) {
	spans := []trace.Span{
		span(1, 2, 1, "fab-a", trace.Fabric, 10, 60),
		span(1, 3, 1, "fab-b", trace.Fabric, 40, 90),
		span(1, 1, 0, "read", trace.Op, 0, 100),
	}
	a := Analyze(spans, nil)
	mustCheck(t, a)
	op := a.Ops[0]
	// fab-b owns [40,90) = 50; fab-a owns [10,40) = 30; overlap = fab-a's [40,60) = 20.
	if got := op.CritFor(trace.Fabric); got != 80 {
		t.Errorf("fabric critical = %d, want 80", got)
	}
	if op.Overlap != 20 {
		t.Errorf("overlap = %d, want 20", op.Overlap)
	}
}

// TestAsyncChildIgnored: a fire-and-forget handler span hangs off an
// instant dispatch span and finishes after the op root. Its time is pure
// overlap — never critical — and identities still hold.
func TestAsyncChildIgnored(t *testing.T) {
	spans := []trace.Span{
		span(1, 2, 1, "rpc-go", trace.Fabric, 30, 30), // instant dispatch
		span(1, 1, 0, "write", trace.Op, 0, 100),
		span(1, 3, 2, "handler", trace.Coherence, 60, 150), // ends after root
	}
	a := Analyze(spans, nil)
	mustCheck(t, a)
	op := a.Ops[0]
	if got := op.CritFor(trace.Op); got != 100 {
		t.Errorf("op self critical = %d, want 100 (async work must not steal the path)", got)
	}
	if got := op.CritFor(trace.Coherence); got != 0 {
		t.Errorf("coherence critical = %d, want 0", got)
	}
	if op.Overlap != 90 {
		t.Errorf("overlap = %d, want 90 (the whole handler)", op.Overlap)
	}
}

// TestDeepDelegation: coherence wraps fabric (inclusive duration); the
// fabric leaf owns its window, coherence only its residue — no
// double-count between the two phases.
func TestDeepDelegation(t *testing.T) {
	spans := []trace.Span{
		span(1, 3, 2, "rpc", trace.Fabric, 25, 70),
		span(1, 2, 1, "getx", trace.Coherence, 20, 80),
		span(1, 1, 0, "write", trace.Op, 0, 100),
	}
	a := Analyze(spans, nil)
	mustCheck(t, a)
	op := a.Ops[0]
	if got := op.CritFor(trace.Fabric); got != 45 {
		t.Errorf("fabric critical = %d, want 45", got)
	}
	if got := op.CritFor(trace.Coherence); got != 15 {
		t.Errorf("coherence critical = %d, want 15 ([20,25)+[70,80))", got)
	}
	ct := a.ByPhase[phaseIdx(trace.Coherence)]
	if ct.Delegated != 45 {
		t.Errorf("coherence delegated = %d, want 45", ct.Delegated)
	}
	// Sum over phases of critical equals wall; inclusive totals would have
	// been 60 (coherence) + 45 (fabric) > wall — the double-count the
	// critical path removes.
	if a.Wall != 100 {
		t.Errorf("wall = %d", a.Wall)
	}
}

// TestOrphanTruncated: a span whose parent never made the log marks the
// trace truncated and excludes it from attribution.
func TestOrphanTruncated(t *testing.T) {
	spans := []trace.Span{
		span(1, 3, 2, "disk", trace.Disk, 20, 60), // parent 2 missing
		span(1, 1, 0, "read", trace.Op, 0, 100),
		span(2, 4, 0, "read", trace.Op, 0, 50),
	}
	a := Analyze(spans, nil)
	mustCheck(t, a)
	if a.Truncated != 1 || a.Orphans != 1 {
		t.Fatalf("truncated/orphans = %d/%d, want 1/1", a.Truncated, a.Orphans)
	}
	if len(a.Ops) != 1 || a.Ops[0].Trace != 2 {
		t.Fatalf("ops = %+v, want only trace 2", a.Ops)
	}
	if a.Wall != 50 {
		t.Errorf("wall = %d, want 50 (truncated trace excluded)", a.Wall)
	}
}

// TestRootlessTruncated: spans with no root span count as rootless.
func TestRootlessTruncated(t *testing.T) {
	spans := []trace.Span{
		span(7, 3, 2, "disk", trace.Disk, 20, 60),
	}
	a := Analyze(spans, nil)
	mustCheck(t, a)
	if a.Rootless != 1 || a.Truncated != 1 {
		t.Fatalf("rootless/truncated = %d/%d, want 1/1", a.Rootless, a.Truncated)
	}
}

// TestDroppedMarker: the dropped predicate excludes a structurally intact
// trace — the case (dropped leaf) structure alone cannot detect.
func TestDroppedMarker(t *testing.T) {
	spans := []trace.Span{
		span(1, 1, 0, "read", trace.Op, 0, 100),
		span(2, 2, 0, "read", trace.Op, 0, 50),
	}
	a := Analyze(spans, func(id uint64) bool { return id == 1 })
	mustCheck(t, a)
	if a.Truncated != 1 {
		t.Fatalf("truncated = %d, want 1", a.Truncated)
	}
	if len(a.Ops) != 1 || a.Ops[0].Trace != 2 {
		t.Fatalf("ops = %+v", a.Ops)
	}
}

// TestNonOpTraces: watchdog/balance-rooted traces are counted, not analyzed.
func TestNonOpTraces(t *testing.T) {
	spans := []trace.Span{
		span(1, 1, 0, "slo-breach", trace.Watchdog, 10, 10),
		span(2, 2, 0, "migrate", trace.Balance, 0, 40),
	}
	a := Analyze(spans, nil)
	mustCheck(t, a)
	if a.NonOp != 2 || len(a.Ops) != 0 {
		t.Fatalf("nonop/ops = %d/%d, want 2/0", a.NonOp, len(a.Ops))
	}
	if a.ByPhase[phaseIdx(trace.Watchdog)].Total != 0 {
		t.Error("non-op spans must not enter phase totals")
	}
}

// TestFoldedStacks: folded keys are full name chains and weights are the
// critical nanoseconds attributed at that stack.
func TestFoldedStacks(t *testing.T) {
	spans := []trace.Span{
		span(1, 3, 2, "rpc", trace.Fabric, 25, 70),
		span(1, 2, 1, "getx", trace.Coherence, 20, 80),
		span(1, 1, 0, "write", trace.Op, 0, 100),
	}
	a := Analyze(spans, nil)
	folded := a.folded
	want := map[string]int64{
		"write":          40,
		"write;getx":     15,
		"write;getx;rpc": 45,
	}
	for k, v := range want {
		if folded[k] != v {
			t.Errorf("folded[%q] = %d, want %d (all: %v)", k, folded[k], v, folded)
		}
	}
	var buf bytes.Buffer
	if err := a.WriteFolded(&buf); err != nil {
		t.Fatal(err)
	}
	wantOut := "write 40\nwrite;getx 15\nwrite;getx;rpc 45\n"
	if buf.String() != wantOut {
		t.Errorf("folded output:\n%s\nwant:\n%s", buf.String(), wantOut)
	}
}

// TestPathForSegments: PathFor returns ordered segments tiling the wall.
func TestPathForSegments(t *testing.T) {
	spans := []trace.Span{
		span(1, 3, 2, "disk", trace.Disk, 20, 60),
		span(1, 2, 1, "wait", trace.Queue, 10, 80),
		span(1, 1, 0, "read", trace.Op, 0, 100),
	}
	a := Analyze(spans, nil)
	op, segs, ok := a.PathFor(1)
	if !ok {
		t.Fatal("PathFor(1) not found")
	}
	var total sim.Duration
	prevEnd := op.Start
	for _, s := range segs {
		if s.Start < prevEnd {
			t.Errorf("segment %+v overlaps previous end %d", s, prevEnd)
		}
		total += s.Duration()
		prevEnd = s.End
	}
	if total != op.Wall {
		t.Errorf("segments tile %d of %d wall", total, op.Wall)
	}
	if _, _, ok := a.PathFor(999); ok {
		t.Error("PathFor(999) should miss")
	}
	var buf bytes.Buffer
	if err := a.RenderPath(&buf, 1); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"trace 1", "wall 0.000 ms", "disk", "wait"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("render missing %q:\n%s", want, buf.String())
		}
	}
	if err := a.RenderPath(&buf, 999); err == nil {
		t.Error("RenderPath(999) should error")
	}
}

// TestCohortsAndTables: enough ops for distinct p50/p99 cohorts, and the
// tables render deterministically.
func TestCohortsAndTables(t *testing.T) {
	var spans []trace.Span
	// 100 ops: wall = 10*(i+1), each with one disk child covering half.
	var next uint64 = 1
	for i := 0; i < 100; i++ {
		tr := next
		wall := int64(10 * (i + 1))
		spans = append(spans,
			span(tr, next+1, tr, "disk", trace.Disk, 0, wall/2),
			span(tr, next, 0, "read", trace.Op, 0, wall),
		)
		next += 2
	}
	a := Analyze(spans, nil)
	mustCheck(t, a)
	median, tail := a.Cohorts()
	if median.Ops == 0 || tail.Ops == 0 {
		t.Fatalf("empty cohort: median %d tail %d", median.Ops, tail.Ops)
	}
	if tail.MeanWall <= median.MeanWall {
		t.Errorf("tail mean %d should exceed median mean %d", tail.MeanWall, median.MeanWall)
	}
	// Shares sum to 100% of mean wall for each cohort.
	var sum float64
	for pi := range median.Crit {
		sum += median.Share(pi)
	}
	if sum < 99.9 || sum > 100.1 {
		t.Errorf("median shares sum to %.2f%%", sum)
	}
	t1 := a.TailTable("t").String()
	t2 := a.TailTable("t").String()
	b1 := a.BudgetTable("b").String()
	if t1 != t2 {
		t.Error("TailTable not deterministic")
	}
	if !strings.Contains(t1, "disk") || !strings.Contains(b1, "disk") {
		t.Error("tables missing disk row")
	}
	if !strings.Contains(b1, "Check: true") {
		t.Errorf("budget table should report Check passing:\n%s", b1)
	}
}

// TestAnalyzeDeterministic: same span log → byte-identical folded output,
// tables and summary.
func TestAnalyzeDeterministic(t *testing.T) {
	spans := []trace.Span{
		span(1, 2, 1, "fab-a", trace.Fabric, 10, 50),
		span(1, 3, 1, "fab-b", trace.Fabric, 10, 90),
		span(1, 1, 0, "read", trace.Op, 0, 100),
		span(2, 5, 4, "disk", trace.Disk, 5, 45),
		span(2, 4, 0, "write", trace.Op, 0, 60),
	}
	render := func() string {
		a := Analyze(spans, nil)
		var buf bytes.Buffer
		if err := a.WriteFolded(&buf); err != nil {
			t.Fatal(err)
		}
		buf.WriteString(a.TailTable("tail").String())
		buf.WriteString(a.BudgetTable("budget").String())
		buf.WriteString(a.Summary())
		return buf.String()
	}
	if render() != render() {
		t.Error("analysis output not deterministic")
	}
}

// TestFromTracerCapOverflow overflows a small span cap mid-op and checks
// the analyzer excludes exactly the truncated traces via the tracer's
// dropped markers — structure alone would miss dropped leaves.
func TestFromTracerCapOverflow(t *testing.T) {
	k := sim.NewKernel(1)
	defer k.Close()
	tr := trace.NewTracer(k)
	tr.SetEnabled(true)
	tr.SetCap(5)
	k.Go("ops", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			root := tr.StartTrace("read", trace.Op, "b0")
			child := root.Child("disk", trace.Disk, "b0")
			p.Sleep(10)
			child.End() // 4 ops x 2 spans = 8 > cap 5
			p.Sleep(5)
			root.End()
		}
	})
	k.Run()
	if tr.Dropped() == 0 {
		t.Fatal("expected span drops")
	}
	a := FromTracer(tr)
	mustCheck(t, a)
	if a.Truncated == 0 {
		t.Fatal("expected truncated traces")
	}
	// Every analyzed op must be complete: wall fully attributed (Check
	// above) and 2 spans' worth of phase totals per op.
	if got := len(a.Ops) + a.Truncated; got != 4 {
		t.Errorf("ops + truncated = %d, want 4", got)
	}
}

// TestDefaultCapOverflowMidOp is the satellite regression test at real
// cap scale: overflow trace.DefaultCap mid-op and verify no silent skew.
func TestDefaultCapOverflowMidOp(t *testing.T) {
	if testing.Short() {
		t.Skip("DefaultCap overflow is slow under -race")
	}
	k := sim.NewKernel(1)
	defer k.Close()
	tr := trace.NewTracer(k)
	tr.SetEnabled(true)
	n := trace.DefaultCap/2 + 100 // 2 spans per op → overflows mid-run
	k.Go("ops", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			root := tr.StartTrace("read", trace.Op, "b0")
			child := root.Child("disk", trace.Disk, "b0")
			p.Sleep(10)
			child.End()
			root.End()
		}
	})
	k.Run()
	if tr.Dropped() == 0 {
		t.Fatal("expected drops past DefaultCap")
	}
	a := FromTracer(tr)
	mustCheck(t, a)
	if a.Truncated == 0 {
		t.Fatal("expected truncated traces")
	}
	if got := len(a.Ops) + a.Truncated; got != n {
		t.Errorf("ops %d + truncated %d != %d started", len(a.Ops), a.Truncated, n)
	}
	// Attribution must only cover complete ops: wall = 10ns per op.
	if a.Wall != sim.Duration(10*len(a.Ops)) {
		t.Errorf("wall %d != 10 * %d analyzed ops", a.Wall, len(a.Ops))
	}
}

// TestEmptyAnalysis: nil input stays well-formed.
func TestEmptyAnalysis(t *testing.T) {
	a := FromTracer(nil)
	mustCheck(t, a)
	if len(a.Ops) != 0 || a.Wall != 0 {
		t.Fatalf("empty analysis: %+v", a)
	}
	if s := a.Summary(); !strings.Contains(s, "0 ops") {
		t.Errorf("summary: %s", s)
	}
	median, tail := a.Cohorts()
	if median.Ops != 0 || tail.Ops != 0 {
		t.Error("cohorts of empty analysis should be empty")
	}
	_ = a.TailTable("t").String()
	_ = a.BudgetTable("b").String()
}
