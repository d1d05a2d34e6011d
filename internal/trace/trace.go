// Package trace provides deterministic per-operation tracing for the
// simulated storage system. Spans are stamped from the sim kernel's
// virtual clock, so a traced run produces byte-identical output across
// runs with the same seed, and tracing never perturbs simulation timing
// (it takes no virtual time and draws no randomness).
//
// A Tracer hands out root spans (one per client op); the span's Ctx
// propagates through the call chain two ways: implicitly, because
// sim.Kernel.Go copies the spawning process's context into children, and
// explicitly over simulated RPC, where simnet carries the caller's Ctx in
// the request and installs it on the handler process. Every layer in
// between just calls FromProc(p).Child(...) — no tracer plumbing.
//
// All span handles are nil-safe: an untraced path pays one nil check and
// nothing else.
package trace

import (
	"fmt"
	"sort"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// Phase classifies where a span's time is spent. Phase histograms and the
// breakdown table aggregate by these.
type Phase string

const (
	// Op is a whole client operation (read/write) — the trace root.
	Op Phase = "op"
	// Queue is time waiting for a contended resource (controller CPU
	// slot, disk queue) before service begins.
	Queue Phase = "queue"
	// Fabric is a simulated-network RPC, wire time plus remote handling.
	Fabric Phase = "fabric"
	// Coherence is a cache-coherence protocol exchange (gets/getx/inv/
	// fetch). Coherence spans include the fabric spans nested under them;
	// durations are inclusive.
	Coherence Phase = "coherence"
	// Disk is drive service time (seek + rotation + transfer).
	Disk Phase = "disk"
	// Repl is a replication push of dirty data to buddy blades.
	Repl Phase = "repl"
	// CacheHit marks a block served from the local blade cache (an
	// instant span: Start == End).
	CacheHit Phase = "cache"
	// Watchdog marks a telemetry watchdog event (hot-spot, SLO breach,
	// stall) — an instant span interleaving alarms with the operations
	// they explain.
	Watchdog Phase = "watchdog"
	// Balance is a hot-spot rebalancer action: one home migration, with
	// the coherence/fabric spans of the migrate exchange nested under it.
	Balance Phase = "balance"
)

// Phases lists every phase in canonical (breakdown-table) order.
var Phases = []Phase{Op, Queue, Fabric, Coherence, Disk, Repl, CacheHit, Watchdog, Balance}

// Span is one completed timed region. IDs are assigned in start order and
// spans are recorded in end order, both deterministic under the sim
// kernel, so serialized traces are reproducible byte-for-byte.
type Span struct {
	Trace  uint64   `json:"trace"`
	ID     uint64   `json:"id"`
	Parent uint64   `json:"parent,omitempty"`
	Name   string   `json:"name"`
	Phase  Phase    `json:"phase"`
	Where  string   `json:"where,omitempty"`
	Detail string   `json:"detail,omitempty"`
	Start  sim.Time `json:"start"`
	End    sim.Time `json:"end"`
}

// Duration returns the span's inclusive duration.
func (s Span) Duration() sim.Duration { return s.End.Sub(s.Start) }

// DefaultCap bounds the number of retained spans per tracer. Phase
// histograms are always fed; only the raw span log is capped, so long
// warm phases cannot exhaust memory.
const DefaultCap = 1 << 18

// droppedTraceCap bounds the set of trace IDs marked as having lost at
// least one span to the retention cap. Past this the tracer degrades to a
// single overflow flag, so analyzers know truncation became untrackable
// rather than trusting a partial set.
const droppedTraceCap = 1 << 16

// Tracer collects spans for one kernel. It is not safe for concurrent
// use, matching the kernel's single-threaded execution model. A nil
// *Tracer is valid everywhere and records nothing.
type Tracer struct {
	k        *sim.Kernel
	enabled  bool
	nextSpan uint64
	spans    []Span
	phases   map[Phase]*metrics.Histogram
	cap      int
	dropped  int64
	started  int64
	ended    int64

	// droppedTraces marks traces that lost at least one span past the
	// retention cap; a dropped leaf leaves no structural evidence in the
	// log, so analyzers need this to avoid silently mis-attributing a
	// truncated DAG. Bounded by droppedTraceCap, then droppedOverflow.
	droppedTraces   map[uint64]struct{}
	droppedOverflow bool
}

// NewTracer returns a disabled tracer bound to k's clock. Call SetEnabled
// to start recording.
func NewTracer(k *sim.Kernel) *Tracer {
	t := &Tracer{k: k, cap: DefaultCap, phases: make(map[Phase]*metrics.Histogram, len(Phases))}
	for _, ph := range Phases {
		t.phases[ph] = metrics.NewHistogram()
	}
	return t
}

// SetEnabled turns span creation on or off. Children of spans already in
// flight still complete after disabling, so traces are never truncated
// mid-op; only new roots and new children of live contexts are gated here
// via StartTrace.
func (t *Tracer) SetEnabled(on bool) {
	if t != nil {
		t.enabled = on
	}
}

// Enabled reports whether the tracer is currently recording new traces.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled }

// SetCap bounds the retained span log (≤ 0 restores DefaultCap).
func (t *Tracer) SetCap(n int) {
	if t == nil {
		return
	}
	if n <= 0 {
		n = DefaultCap
	}
	t.cap = n
}

// StartTrace opens a new root span (trace id == root span id). It returns
// nil when the tracer is nil or disabled; all Active methods tolerate a
// nil receiver.
func (t *Tracer) StartTrace(name string, phase Phase, where string) *Active {
	if t == nil || !t.enabled {
		return nil
	}
	t.nextSpan++
	t.started++
	return &Active{t: t, s: Span{
		Trace: t.nextSpan,
		ID:    t.nextSpan,
		Name:  name,
		Phase: phase,
		Where: where,
		Start: t.k.Now(),
	}}
}

// child opens a span under (trace, parent). Internal; reached via Ctx.
func (t *Tracer) child(traceID, parent uint64, name string, phase Phase, where string) *Active {
	if t == nil {
		return nil
	}
	t.nextSpan++
	t.started++
	return &Active{t: t, s: Span{
		Trace:  traceID,
		ID:     t.nextSpan,
		Parent: parent,
		Name:   name,
		Phase:  phase,
		Where:  where,
		Start:  t.k.Now(),
	}}
}

func (t *Tracer) record(s Span) {
	t.ended++
	if h := t.phases[s.Phase]; h != nil {
		h.ObserveTraced(s.Duration(), s.Trace)
	}
	if len(t.spans) >= t.cap {
		t.dropped++
		t.markTraceDropped(s.Trace)
		return
	}
	t.spans = append(t.spans, s)
}

// markTraceDropped records that trace id lost a span to the retention cap.
func (t *Tracer) markTraceDropped(id uint64) {
	if t.droppedTraces == nil {
		t.droppedTraces = make(map[uint64]struct{})
	}
	if _, ok := t.droppedTraces[id]; ok {
		return
	}
	if len(t.droppedTraces) >= droppedTraceCap {
		t.droppedOverflow = true
		return
	}
	t.droppedTraces[id] = struct{}{}
}

// TraceDropped reports whether trace id is known to have lost at least one
// span to the retention cap (its DAG in Spans() is incomplete). When
// DroppedTraceOverflow is true the set itself is incomplete and a false
// return is inconclusive.
func (t *Tracer) TraceDropped(id uint64) bool {
	if t == nil {
		return false
	}
	_, ok := t.droppedTraces[id]
	return ok
}

// DroppedTraceOverflow reports whether so many distinct traces lost spans
// that the dropped-trace set itself overflowed.
func (t *Tracer) DroppedTraceOverflow() bool { return t != nil && t.droppedOverflow }

// DroppedTraces returns the IDs of traces known to have lost spans, in
// ascending order. A trace that lost every span leaves no mark in Spans()
// at all; this is the only record it existed.
func (t *Tracer) DroppedTraces() []uint64 {
	if t == nil || len(t.droppedTraces) == 0 {
		return nil
	}
	out := make([]uint64, 0, len(t.droppedTraces))
	for id := range t.droppedTraces {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Spans returns the retained span log in end order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// Started counts spans opened; Dropped counts spans that ended past the
// retention cap (still counted in histograms).
func (t *Tracer) Started() int64 { return t.started }
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// PhaseHistogram returns the histogram of span durations (milliseconds)
// for phase, or nil for an unknown phase or nil tracer.
func (t *Tracer) PhaseHistogram(phase Phase) *metrics.Histogram {
	if t == nil {
		return nil
	}
	return t.phases[phase]
}

// Ctx identifies a position in a trace: which tracer, which trace, and
// the span new children should parent under. The zero Ctx is "untraced".
// Ctx is what travels on sim.Proc and across simulated RPC.
type Ctx struct {
	t     *Tracer
	trace uint64
	span  uint64
}

// Valid reports whether c belongs to a live trace.
func (c Ctx) Valid() bool { return c.t != nil }

// Child opens a span under c, or returns nil for an invalid Ctx.
func (c Ctx) Child(name string, phase Phase, where string) *Active {
	if !c.Valid() {
		return nil
	}
	return c.t.child(c.trace, c.span, name, phase, where)
}

// FromProc extracts the trace context carried by p (zero Ctx if none).
func FromProc(p *sim.Proc) Ctx {
	if p == nil {
		return Ctx{}
	}
	if c, ok := p.TraceCtx().(Ctx); ok {
		return c
	}
	return Ctx{}
}

// Active is an open span. The nil *Active is a valid no-op handle, so
// instrumented code never branches on "is tracing on".
type Active struct {
	t     *Tracer
	s     Span
	ended bool
}

// Ctx returns the context that parents children under this span. For a
// nil receiver it returns the zero (invalid) Ctx.
func (a *Active) Ctx() Ctx {
	if a == nil {
		return Ctx{}
	}
	return Ctx{t: a.t, trace: a.s.Trace, span: a.s.ID}
}

// Child opens a span nested under a.
func (a *Active) Child(name string, phase Phase, where string) *Active {
	return a.Ctx().Child(name, phase, where)
}

// TraceID returns the trace this span belongs to (0 for a nil handle).
func (a *Active) TraceID() uint64 {
	if a == nil {
		return 0
	}
	return a.s.Trace
}

// Detail attaches a free-form annotation and returns a for chaining.
func (a *Active) Detail(format string, args ...any) *Active {
	if a != nil {
		a.s.Detail = fmt.Sprintf(format, args...)
	}
	return a
}

// End stamps the span with the current virtual time and records it. End
// is idempotent; extra calls are ignored.
func (a *Active) End() {
	if a == nil || a.ended {
		return
	}
	a.ended = true
	a.s.End = a.t.k.Now()
	a.t.record(a.s)
}

// Push installs a's context as p's trace context and returns a restore
// function, so fan-out spawned under this span parents correctly:
//
//	pop := span.Push(p)
//	... k.Go(...) children inherit span's ctx ...
//	pop()
//
// A nil receiver returns a no-op restore.
func (a *Active) Push(p *sim.Proc) func() {
	if a == nil || p == nil {
		return func() {}
	}
	prev := p.TraceCtx()
	p.SetTraceCtx(a.Ctx())
	return func() { p.SetTraceCtx(prev) }
}

// BreakdownTable renders per-phase latency statistics (count, mean, p50,
// p99 in milliseconds) in canonical phase order, skipping empty phases.
func (t *Tracer) BreakdownTable(title string) *metrics.Table {
	tab := metrics.NewTable(title, "phase", "spans", "mean ms", "p50 ms", "p99 ms")
	if t == nil {
		return tab
	}
	for _, ph := range Phases {
		h := t.phases[ph]
		if h == nil || h.Count() == 0 {
			continue
		}
		tab.AddRow(string(ph),
			fmt.Sprintf("%d", h.Count()),
			fmt.Sprintf("%.3f", h.Mean().Millis()),
			fmt.Sprintf("%.3f", h.Quantile(0.50).Millis()),
			fmt.Sprintf("%.3f", h.Quantile(0.99).Millis()))
	}
	return tab
}
