package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer enabled")
	}
	tr.SetEnabled(true)
	sp := tr.StartTrace("op", Op, "x")
	if sp != nil {
		t.Fatal("nil tracer returned a span")
	}
	sp.Detail("d").End() // nil Active: no-op
	if sp.Ctx().Valid() {
		t.Fatal("nil span ctx valid")
	}
	pop := sp.Push(nil)
	pop()
	if err := tr.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "traceEvents") {
		t.Fatalf("nil chrome export = %q", buf.String())
	}
}

func TestDisabledTracerRecordsNothing(t *testing.T) {
	k := sim.NewKernel(1)
	defer k.Close()
	tr := NewTracer(k)
	if sp := tr.StartTrace("op", Op, "x"); sp != nil {
		t.Fatal("disabled tracer returned a span")
	}
	if len(tr.Spans()) != 0 {
		t.Fatal("disabled tracer recorded spans")
	}
}

func TestSpanNestingAndIDs(t *testing.T) {
	k := sim.NewKernel(1)
	defer k.Close()
	tr := NewTracer(k)
	tr.SetEnabled(true)

	done := false
	k.Go("op", func(p *sim.Proc) {
		root := tr.StartTrace("read", Op, "blade0")
		pop := root.Push(p)
		p.Sleep(sim.Millisecond)
		child := FromProc(p).Child("rpc:gets", Fabric, "blade1")
		p.Sleep(2 * sim.Millisecond)
		grand := child.Child("disk-read", Disk, "disk3")
		p.Sleep(3 * sim.Millisecond)
		grand.End()
		child.End()
		pop()
		root.End()
		done = true
	})
	k.Run()
	if !done {
		t.Fatal("proc did not finish")
	}

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(spans))
	}
	// End order: grand, child, root.
	grand, child, root := spans[0], spans[1], spans[2]
	if root.Trace != root.ID || root.Parent != 0 {
		t.Fatalf("root identity wrong: %+v", root)
	}
	if child.Parent != root.ID || child.Trace != root.Trace {
		t.Fatalf("child not nested under root: %+v", child)
	}
	if grand.Parent != child.ID || grand.Trace != root.Trace {
		t.Fatalf("grandchild not nested under child: %+v", grand)
	}
	// IDs in start order.
	if !(root.ID < child.ID && child.ID < grand.ID) {
		t.Fatalf("ids not in start order: %d %d %d", root.ID, child.ID, grand.ID)
	}
	// Virtual-time stamps.
	if grand.Duration() != 3*sim.Millisecond {
		t.Fatalf("grand duration = %v", grand.Duration())
	}
	if child.Duration() != 5*sim.Millisecond {
		t.Fatalf("child duration = %v", child.Duration())
	}
	if root.Duration() != 6*sim.Millisecond {
		t.Fatalf("root duration = %v", root.Duration())
	}
	// Phase histograms fed.
	if tr.PhaseHistogram(Disk).Count() != 1 || tr.PhaseHistogram(Fabric).Count() != 1 || tr.PhaseHistogram(Op).Count() != 1 {
		t.Fatal("phase histograms not fed")
	}
}

func TestCtxInheritedBySpawnedProcs(t *testing.T) {
	k := sim.NewKernel(1)
	defer k.Close()
	tr := NewTracer(k)
	tr.SetEnabled(true)

	k.Go("parent", func(p *sim.Proc) {
		root := tr.StartTrace("op", Op, "a")
		pop := root.Push(p)
		grp := sim.NewGroup(k)
		for i := 0; i < 3; i++ {
			grp.Add(1)
			k.Go("child", func(q *sim.Proc) {
				defer grp.Done()
				FromProc(q).Child("work", Disk, "d").End()
			})
		}
		pop()
		grp.Wait(p)
		root.End()
	})
	k.Run()

	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("spans = %d, want 4", len(spans))
	}
	rootID := spans[len(spans)-1].ID
	for _, s := range spans[:3] {
		if s.Parent != rootID {
			t.Fatalf("spawned child span parent = %d, want root %d", s.Parent, rootID)
		}
	}
}

// A proc spawned by a kernel callback (cur == nil) must NOT inherit a
// context from whatever proc happened to run earlier.
func TestCallbackSpawnDoesNotInherit(t *testing.T) {
	k := sim.NewKernel(1)
	defer k.Close()
	tr := NewTracer(k)
	tr.SetEnabled(true)

	var leaked bool
	k.Go("traced", func(p *sim.Proc) {
		root := tr.StartTrace("op", Op, "a")
		defer root.End()
		pop := root.Push(p)
		defer pop()
		k.After(sim.Millisecond, func() {
			k.Go("background", func(q *sim.Proc) {
				leaked = FromProc(q).Valid()
			})
		})
		p.Sleep(2 * sim.Millisecond)
	})
	k.Run()
	if leaked {
		t.Fatal("callback-spawned proc inherited a trace context")
	}
}

func TestSpanCapDropsButCounts(t *testing.T) {
	k := sim.NewKernel(1)
	defer k.Close()
	tr := NewTracer(k)
	tr.SetEnabled(true)
	tr.SetCap(4)
	for i := 0; i < 10; i++ {
		tr.StartTrace("op", Op, "x").End()
	}
	if len(tr.Spans()) != 4 {
		t.Fatalf("retained %d spans, want cap 4", len(tr.Spans()))
	}
	if tr.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", tr.Dropped())
	}
	if tr.PhaseHistogram(Op).Count() != 10 {
		t.Fatalf("histogram count = %d, want all 10", tr.PhaseHistogram(Op).Count())
	}
}

func TestEndIsIdempotent(t *testing.T) {
	k := sim.NewKernel(1)
	defer k.Close()
	tr := NewTracer(k)
	tr.SetEnabled(true)
	sp := tr.StartTrace("op", Op, "x")
	sp.End()
	sp.End()
	if len(tr.Spans()) != 1 {
		t.Fatalf("double End recorded %d spans", len(tr.Spans()))
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	k := sim.NewKernel(1)
	defer k.Close()
	tr := NewTracer(k)
	tr.SetEnabled(true)
	root := tr.StartTrace("read", Op, "blade0")
	root.Detail("vol@0+4")
	root.Child("rpc:gets", Fabric, "blade1").End()
	root.End()

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("jsonl lines = %d, want 2", len(lines))
	}
	for _, ln := range lines {
		var s Span
		if err := json.Unmarshal([]byte(ln), &s); err != nil {
			t.Fatalf("bad jsonl line %q: %v", ln, err)
		}
		if s.Trace == 0 || s.ID == 0 {
			t.Fatalf("zero ids in %q", ln)
		}
	}
}

func TestChromeExportWellFormed(t *testing.T) {
	k := sim.NewKernel(1)
	defer k.Close()
	tr := NewTracer(k)
	tr.SetEnabled(true)
	done := false
	k.Go("op", func(p *sim.Proc) {
		root := tr.StartTrace("read", Op, "blade0")
		ch := root.Child("disk-read", Disk, "disk1")
		p.Sleep(sim.Millisecond)
		ch.End()
		root.End()
		done = true
	})
	k.Run()
	if !done {
		t.Fatal("proc did not finish")
	}

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export not valid JSON: %v", err)
	}
	var x, m int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			x++
			if _, ok := ev["ts"].(float64); !ok {
				t.Fatalf("X event without ts: %v", ev)
			}
		case "M":
			m++
		}
	}
	if x != 2 {
		t.Fatalf("complete events = %d, want 2", x)
	}
	if m != 2 { // two distinct Where values → two thread_name rows
		t.Fatalf("metadata events = %d, want 2", m)
	}
}

// Two identical runs must serialize identically — the subsystem's core
// guarantee.
func TestDeterministicExport(t *testing.T) {
	run := func() (string, string) {
		k := sim.NewKernel(7)
		defer k.Close()
		tr := NewTracer(k)
		tr.SetEnabled(true)
		for i := 0; i < 5; i++ {
			k.Go("op", func(p *sim.Proc) {
				root := tr.StartTrace("op", Op, "a")
				pop := root.Push(p)
				p.Sleep(sim.Duration(k.Rand().Int63n(int64(sim.Millisecond))))
				FromProc(p).Child("work", Disk, "d").End()
				pop()
				root.End()
			})
		}
		k.Run()
		var j, c bytes.Buffer
		if err := tr.WriteJSONL(&j); err != nil {
			t.Fatal(err)
		}
		if err := tr.WriteChrome(&c); err != nil {
			t.Fatal(err)
		}
		return j.String(), c.String()
	}
	j1, c1 := run()
	j2, c2 := run()
	if j1 != j2 {
		t.Fatalf("JSONL not deterministic:\n%s\n---\n%s", j1, j2)
	}
	if c1 != c2 {
		t.Fatalf("Chrome export not deterministic")
	}
}

func TestBreakdownTable(t *testing.T) {
	k := sim.NewKernel(1)
	defer k.Close()
	tr := NewTracer(k)
	tr.SetEnabled(true)
	done := false
	k.Go("op", func(p *sim.Proc) {
		root := tr.StartTrace("op", Op, "a")
		d := root.Child("x", Disk, "d")
		p.Sleep(4 * sim.Millisecond)
		d.End()
		root.End()
		done = true
	})
	k.Run()
	if !done {
		t.Fatal("proc did not finish")
	}
	tab := tr.BreakdownTable("phases")
	if len(tab.Rows) != 2 { // op + disk; empty phases skipped
		t.Fatalf("rows = %d, want 2\n%s", len(tab.Rows), tab)
	}
	if tab.Rows[0][0] != "op" || tab.Rows[1][0] != "disk" {
		t.Fatalf("phase order wrong\n%s", tab)
	}
	if tab.Rows[1][3] != "4.000" {
		t.Fatalf("disk p50 = %q, want 4.000\n%s", tab.Rows[1][3], tab)
	}
}

func TestDroppedTraceMarkers(t *testing.T) {
	k := sim.NewKernel(1)
	defer k.Close()
	tr := NewTracer(k)
	tr.SetEnabled(true)
	tr.SetCap(3)
	var ids []uint64
	for i := 0; i < 5; i++ {
		sp := tr.StartTrace("op", Op, "x")
		ids = append(ids, sp.TraceID())
		sp.End()
	}
	for i, id := range ids {
		want := i >= 3 // first 3 retained, last 2 dropped
		if tr.TraceDropped(id) != want {
			t.Errorf("TraceDropped(%d) = %v, want %v", id, !want, want)
		}
	}
	if tr.DroppedTraceOverflow() {
		t.Error("overflow flag set for 2 dropped traces")
	}
	dropped := tr.DroppedTraces()
	if len(dropped) != 2 || dropped[0] != ids[3] || dropped[1] != ids[4] {
		t.Errorf("DroppedTraces() = %v, want [%d %d]", dropped, ids[3], ids[4])
	}
	// A trace dropping several spans is marked once.
	sp := tr.StartTrace("op", Op, "x")
	sp.Child("a", Disk, "x").End()
	sp.Child("b", Disk, "x").End()
	sp.End()
	if n := len(tr.DroppedTraces()); n != 3 {
		t.Errorf("dropped set = %d entries, want 3", n)
	}
}

func TestTraceIDAccessors(t *testing.T) {
	k := sim.NewKernel(1)
	defer k.Close()
	tr := NewTracer(k)
	tr.SetEnabled(true)
	sp := tr.StartTrace("op", Op, "x")
	if sp.TraceID() == 0 {
		t.Fatal("live span TraceID = 0")
	}
	if sp.Ctx().trace != sp.TraceID() {
		t.Error("Ctx trace mismatch")
	}
	child := sp.Child("c", Disk, "x")
	if child.TraceID() != sp.TraceID() {
		t.Error("child TraceID differs from root")
	}
	child.End()
	sp.End()
	var nilA *Active
	if nilA.TraceID() != 0 {
		t.Error("nil Active TraceID != 0")
	}
	var nilT *Tracer
	if nilT.TraceDropped(1) || nilT.DroppedTraceOverflow() || nilT.DroppedTraces() != nil {
		t.Error("nil tracer dropped-marker methods not inert")
	}
}

func TestPhaseHistogramCarriesExemplars(t *testing.T) {
	k := sim.NewKernel(1)
	defer k.Close()
	tr := NewTracer(k)
	tr.SetEnabled(true)
	done := make(chan struct{})
	k.Go("op", func(p *sim.Proc) {
		defer close(done)
		sp := tr.StartTrace("op", Op, "x")
		p.Sleep(1000)
		sp.End()
	})
	k.Run()
	<-done
	ex, ok := tr.PhaseHistogram(Op).ExemplarNear(0.99)
	if !ok || ex.Trace == 0 {
		t.Fatalf("phase histogram has no exemplar: %+v ok=%v", ex, ok)
	}
}

func TestChromeFlowEventsForAsyncEdges(t *testing.T) {
	k := sim.NewKernel(1)
	defer k.Close()
	tr := NewTracer(k)
	tr.SetEnabled(true)
	done := make(chan struct{})
	k.Go("op", func(p *sim.Proc) {
		defer close(done)
		root := tr.StartTrace("write", Op, "blade0")
		// Sync RPC: handler nests inside the rpc span — no flow pair.
		rpc := root.Child("rpc:put", Fabric, "blade0")
		h := rpc.Child("put", Coherence, "blade1")
		p.Sleep(100)
		h.End()
		rpc.End()
		// Async dispatch: instant fabric span; handler starts later on
		// another blade — exactly one flow pair.
		disp := root.Child("rpc-go:inv", Fabric, "blade0")
		disp.End()
		p.Sleep(50)
		hh := disp.Child("inv", Coherence, "blade2")
		p.Sleep(100)
		hh.End()
		root.End()
	})
	k.Run()
	<-done
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			TID  int     `json:"tid"`
			ID   uint64  `json:"id"`
			BP   string  `json:"bp"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var starts, finishes int
	var sTS, fTS float64
	var sID, fID uint64
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "s":
			starts++
			sTS, sID = ev.TS, ev.ID
			if ev.Name != "inv" {
				t.Errorf("flow start name = %q, want inv", ev.Name)
			}
		case "f":
			finishes++
			fTS, fID = ev.TS, ev.ID
			if ev.BP != "e" {
				t.Errorf("flow finish bp = %q, want e", ev.BP)
			}
		}
	}
	if starts != 1 || finishes != 1 {
		t.Fatalf("flow events = %d starts / %d finishes, want 1/1", starts, finishes)
	}
	if sID == 0 || sID != fID {
		t.Errorf("flow ids differ: s=%d f=%d", sID, fID)
	}
	if fTS < sTS {
		t.Errorf("flow finish ts %.3f before start ts %.3f", fTS, sTS)
	}
}
