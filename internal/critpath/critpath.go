// Package critpath reconstructs each traced operation's span DAG and
// computes its critical path: the chain of spans that actually bounded the
// op's latency. Per-phase histograms (internal/trace) say where time was
// spent in aggregate; they cannot say which stage a given op was *waiting
// on*, because concurrent children (parallel per-block reads, replication
// fan-out) overlap and inclusive span durations double-count the
// hierarchy. The critical path removes both ambiguities: every instant of
// an op's wall time is attributed to exactly one span — the deepest span
// that was last to finish at that instant — so attribution sums exactly to
// wall time and phases never double-count.
//
// The attribution of one span's time window splits three ways:
//
//   - critical: instants attributed to the span itself (its service or
//     queue time bounded the op right then);
//   - delegated: instants inside the span's window handed down to a child
//     span on the path (a coherence exchange whose time is really the
//     nested fabric RPC's);
//   - overlapped: span time off the path entirely — work hidden behind a
//     concurrent sibling that finished later. Overlap is real resource
//     usage but not latency: shortening it does not move the op.
//
// So for every span, duration = critical + delegated + overlapped, and for
// every op, wall = Σ critical over the trace — the two identities
// Analysis.Check verifies.
//
// Like the tracer it reads, the analyzer is deterministic: same spans in,
// byte-identical tables, folded stacks and renders out.
package critpath

import (
	"fmt"
	"sort"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Segment is one contiguous stretch of an op's critical path, attributed
// to a single span. Segments tile the op's wall time exactly.
type Segment struct {
	SpanID uint64
	Name   string
	Phase  trace.Phase
	Where  string
	Detail string
	Depth  int // nesting depth under the op root (root = 0)
	Start  sim.Time
	End    sim.Time
}

// Duration returns the segment's length.
func (s Segment) Duration() sim.Duration { return s.End.Sub(s.Start) }

// OpPath is one analyzed op: its identity plus the critical-path totals.
type OpPath struct {
	Trace  uint64
	Name   string
	Where  string
	Detail string
	Start  sim.Time
	Wall   sim.Duration
	// Queue is critical time spent in Queue-phase spans (waiting for a
	// contended resource); Service is critical time in every other phase.
	// Queue + Service == Wall.
	Queue   sim.Duration
	Service sim.Duration
	// Overlap is span time off the critical path — concurrent work the op
	// did not wait for. It can exceed Wall on wide fan-outs.
	Overlap sim.Duration
	// Crit is the per-phase critical time, aligned with trace.Phases.
	Crit []sim.Duration
}

// CritFor returns the op's critical time attributed to phase ph.
func (o *OpPath) CritFor(ph trace.Phase) sim.Duration {
	for i, p := range trace.Phases {
		if p == ph {
			return o.Crit[i]
		}
	}
	return 0
}

// PhaseTotals aggregates one phase's accounting across all analyzed ops.
type PhaseTotals struct {
	Spans     int64        // completed spans in analyzed op traces
	Total     sim.Duration // inclusive span time (the tracer histogram's view)
	Critical  sim.Duration // attributed to the phase on the critical path
	Delegated sim.Duration // on the path but handed down to child spans
	Overlap   sim.Duration // off the path: hidden behind concurrent siblings
}

// Analysis is the result of analyzing a span log.
type Analysis struct {
	// Ops lists every complete op trace in root-end order (deterministic).
	Ops []OpPath
	// ByPhase aggregates attribution per phase, aligned with trace.Phases.
	ByPhase []PhaseTotals
	// Wall is the summed wall time of all analyzed ops.
	Wall sim.Duration

	// Truncated counts op traces excluded from attribution because spans
	// were lost — to the tracer's retention cap (per the dropped-trace
	// markers) or structurally (orphaned spans, missing roots). Silently
	// attributing a partial DAG would skew every share downward, so these
	// are counted, never analyzed.
	Truncated int
	// Orphans counts retained spans whose parent never made the log.
	Orphans int
	// Rootless counts traces that have spans but no root span.
	Rootless int
	// NonOp counts complete traces rooted outside the op path (watchdog
	// markers, balancer migrations); they are not ops and not analyzed.
	NonOp int
	// DroppedUnknown is set when the tracer's dropped-trace set
	// overflowed: some traces may be silently incomplete and the Truncated
	// count is a lower bound.
	DroppedUnknown bool

	folded  map[string]int64 // folded-stack key -> critical ns
	spans   []trace.Span
	byTrace map[uint64][]int // trace id -> indices into spans, log order
	opIdx   map[uint64]int   // trace id -> index into Ops
}

// phaseIdx maps a phase to its index in trace.Phases (len(trace.Phases)
// for an unknown phase, which callers treat as "other").
func phaseIdx(ph trace.Phase) int {
	for i, p := range trace.Phases {
		if p == ph {
			return i
		}
	}
	return len(trace.Phases)
}

// FromTracer analyzes t's retained span log, honouring its dropped-trace
// markers. A nil tracer yields an empty analysis.
func FromTracer(t *trace.Tracer) *Analysis {
	if t == nil {
		return Analyze(nil, nil)
	}
	a := Analyze(t.Spans(), t.TraceDropped)
	a.DroppedUnknown = t.DroppedTraceOverflow()
	// A trace that lost every span to the cap is invisible in the log;
	// only the tracer's dropped set knows it existed. Count those too.
	for _, id := range t.DroppedTraces() {
		if _, inLog := a.byTrace[id]; !inLog {
			a.Truncated++
		}
	}
	return a
}

// Analyze reconstructs every trace in spans and attributes each complete
// op trace's wall time along its critical path. dropped, when non-nil,
// reports whether a trace id lost spans to the retention cap; such traces
// are excluded and counted as truncated.
func Analyze(spans []trace.Span, dropped func(uint64) bool) *Analysis {
	a := &Analysis{
		ByPhase: make([]PhaseTotals, len(trace.Phases)+1),
		folded:  make(map[string]int64),
		spans:   spans,
		byTrace: make(map[uint64][]int),
		opIdx:   make(map[uint64]int),
	}
	// Group spans by trace, keeping log (end) order within each trace.
	traceOrder := []uint64{}
	for i, s := range spans {
		if _, ok := a.byTrace[s.Trace]; !ok {
			traceOrder = append(traceOrder, s.Trace)
		}
		a.byTrace[s.Trace] = append(a.byTrace[s.Trace], i)
	}
	// Analyze traces in first-seen order: deterministic, and close to
	// root-end order. Ops are then re-sorted by root end explicitly.
	for _, id := range traceOrder {
		a.analyzeTrace(id, dropped)
	}
	sort.SliceStable(a.Ops, func(i, j int) bool {
		ei := a.Ops[i].Start.Add(a.Ops[i].Wall)
		ej := a.Ops[j].Start.Add(a.Ops[j].Wall)
		if ei != ej {
			return ei < ej
		}
		return a.Ops[i].Trace < a.Ops[j].Trace
	})
	for i := range a.Ops {
		a.opIdx[a.Ops[i].Trace] = i
	}
	return a
}

// node is one span in a reconstructed trace tree. window accumulates the
// stretch of the op's critical path that recursed into this span.
type node struct {
	span     trace.Span
	logIdx   int
	children []*node
	window   sim.Duration
}

// buildTree reconstructs the span tree for one trace. It returns the root
// and the orphan count (spans whose parent is missing from the log).
func (a *Analysis) buildTree(id uint64) (root *node, orphans int) {
	idxs := a.byTrace[id]
	nodes := make(map[uint64]*node, len(idxs))
	for _, i := range idxs {
		s := a.spans[i]
		nodes[s.ID] = &node{span: s, logIdx: i}
	}
	for _, i := range idxs {
		s := a.spans[i]
		n := nodes[s.ID]
		if s.Parent == 0 {
			root = n
			continue
		}
		p, ok := nodes[s.Parent]
		if !ok {
			orphans++
			continue
		}
		p.children = append(p.children, n)
	}
	// Children sorted by end, latest first; ties broken by log position,
	// where a later index ended later in kernel scheduling order. The
	// backward walk then always picks the child that finished last.
	var sortChildren func(n *node)
	sortChildren = func(n *node) {
		sort.Slice(n.children, func(i, j int) bool {
			ci, cj := n.children[i], n.children[j]
			if ci.span.End != cj.span.End {
				return ci.span.End > cj.span.End
			}
			return ci.logIdx > cj.logIdx
		})
		for _, c := range n.children {
			sortChildren(c)
		}
	}
	if root != nil {
		sortChildren(root)
	}
	return root, orphans
}

// analyzeTrace classifies one trace and, if it is a complete op trace,
// attributes its critical path into the aggregates.
func (a *Analysis) analyzeTrace(id uint64, dropped func(uint64) bool) {
	root, orphans := a.buildTree(id)
	a.Orphans += orphans
	if dropped != nil && dropped(id) {
		a.Truncated++
		return
	}
	if root == nil {
		a.Rootless++
		a.Truncated++
		return
	}
	if orphans > 0 {
		a.Truncated++
		return
	}
	if root.span.Phase != trace.Op {
		a.NonOp++
		return
	}

	op := OpPath{
		Trace:  id,
		Name:   root.span.Name,
		Where:  root.span.Where,
		Detail: root.span.Detail,
		Start:  root.span.Start,
		Wall:   root.span.Duration(),
		Crit:   make([]sim.Duration, len(trace.Phases)+1),
	}
	// Inclusive per-phase totals, computed independently of the walk so
	// Check has two genuinely separate accountings to compare.
	for _, i := range a.byTrace[id] {
		s := a.spans[i]
		pi := phaseIdx(s.Phase)
		a.ByPhase[pi].Spans++
		a.ByPhase[pi].Total += s.Duration()
	}

	w := walker{a: a, op: &op}
	w.walk(root, root.span.Start, root.span.End, nil)
	// Everything recursed into was marked; the rest of each span's
	// duration is overlap. The walk marks windows per node, so sweep once.
	w.sweepOverlap(root)

	for pi, d := range op.Crit {
		a.ByPhase[pi].Critical += d
		if pi < len(trace.Phases) && trace.Phases[pi] == trace.Queue {
			op.Queue += d
		} else {
			op.Service += d
		}
	}
	a.Wall += op.Wall
	a.Ops = append(a.Ops, op)
}

// walker attributes one op trace's critical path.
type walker struct {
	a  *Analysis
	op *OpPath
	// segs, when non-nil, collects the path's segments (single-op render).
	segs *[]Segment
}

// walk attributes window [winStart, winEnd] of n's time, recursing into
// the children that bounded it. stack is the chain of span names from the
// root down to n's parent.
func (w *walker) walk(n *node, winStart, winEnd sim.Time, stack []string) {
	n.window += winEnd.Sub(winStart)
	stack = append(stack, n.span.Name)
	cur := winEnd
	for _, ch := range n.children {
		if cur <= winStart {
			break
		}
		effEnd := ch.span.End
		if effEnd > cur {
			effEnd = cur
		}
		effStart := ch.span.Start
		if effStart < winStart {
			effStart = winStart
		}
		if effEnd <= effStart || effEnd <= winStart {
			continue
		}
		if effEnd < cur {
			// The gap after this child closed is n's own time.
			w.attribute(n, effEnd, cur, stack)
		}
		w.walk(ch, effStart, effEnd, stack)
		cur = effStart
	}
	if cur > winStart {
		w.attribute(n, winStart, cur, stack)
	}
}

// attribute credits [from, to] of the op's wall time to span n.
func (w *walker) attribute(n *node, from, to sim.Time, stack []string) {
	d := to.Sub(from)
	if d <= 0 {
		return
	}
	pi := phaseIdx(n.span.Phase)
	w.op.Crit[pi] += d
	w.a.ByPhase[pi].Delegated -= d // critical is not delegated; see sweepOverlap
	key := foldKey(stack)
	w.a.folded[key] += int64(d)
	if w.segs != nil {
		*w.segs = append(*w.segs, Segment{
			SpanID: n.span.ID,
			Name:   n.span.Name,
			Phase:  n.span.Phase,
			Where:  n.span.Where,
			Detail: n.span.Detail,
			Depth:  len(stack) - 1,
			Start:  from,
			End:    to,
		})
	}
}

// sweepOverlap finalizes per-span accounting after a walk: a span's window
// (time the path recursed into it) splits into critical (already credited)
// and delegated; the remainder of its duration is overlap. Delegated was
// pre-decremented by attribute, so adding the full window here nets out.
func (w *walker) sweepOverlap(n *node) {
	pi := phaseIdx(n.span.Phase)
	w.a.ByPhase[pi].Delegated += n.window
	w.a.ByPhase[pi].Overlap += n.span.Duration() - n.window
	w.op.Overlap += n.span.Duration() - n.window
	for _, c := range n.children {
		w.sweepOverlap(c)
	}
}

// foldKey renders a stack as a stacks.folded frame chain.
func foldKey(stack []string) string {
	n := 0
	for _, s := range stack {
		n += len(s) + 1
	}
	b := make([]byte, 0, n)
	for i, s := range stack {
		if i > 0 {
			b = append(b, ';')
		}
		b = append(b, s...)
	}
	return string(b)
}

// Check verifies the two accounting identities over the whole analysis:
// every op's wall time is fully attributed (Σ critical == Σ wall), and no
// phase double-counts (critical + delegated + overlap == the phase's
// inclusive span time, the tracer histogram's view). A non-nil error means
// the analyzer itself is broken, never the workload.
func (a *Analysis) Check() error {
	var crit sim.Duration
	for _, pt := range a.ByPhase {
		crit += pt.Critical
		if got, want := pt.Critical+pt.Delegated+pt.Overlap, pt.Total; got != want {
			return fmt.Errorf("critpath: phase accounting off: critical %v + delegated %v + overlap %v != inclusive %v",
				pt.Critical, pt.Delegated, pt.Overlap, pt.Total)
		}
	}
	if crit != a.Wall {
		return fmt.Errorf("critpath: attribution does not tile wall time: Σ critical %v != Σ wall %v", crit, a.Wall)
	}
	var perOp sim.Duration
	for i := range a.Ops {
		op := &a.Ops[i]
		var sum sim.Duration
		for _, d := range op.Crit {
			sum += d
		}
		if sum != op.Wall {
			return fmt.Errorf("critpath: trace %d attributed %v of %v wall", op.Trace, sum, op.Wall)
		}
		if op.Queue+op.Service != op.Wall {
			return fmt.Errorf("critpath: trace %d queue %v + service %v != wall %v", op.Trace, op.Queue, op.Service, op.Wall)
		}
		perOp += op.Wall
	}
	if perOp != a.Wall {
		return fmt.Errorf("critpath: op walls sum to %v, analysis says %v", perOp, a.Wall)
	}
	return nil
}

// PathFor re-walks one analyzed op and returns its ordered critical-path
// segments (earliest first). The bool reports whether the trace was
// analyzed (false for truncated, non-op or unknown traces).
func (a *Analysis) PathFor(traceID uint64) (OpPath, []Segment, bool) {
	i, ok := a.opIdx[traceID]
	if !ok {
		return OpPath{}, nil, false
	}
	op := a.Ops[i]
	root, _ := a.buildTree(traceID)
	segs := []Segment{}
	// Re-walk with segment collection on a scratch op so aggregate totals
	// are not double-counted.
	scratch := OpPath{Crit: make([]sim.Duration, len(trace.Phases)+1)}
	w := walker{a: &Analysis{ByPhase: make([]PhaseTotals, len(trace.Phases)+1), folded: map[string]int64{}}, op: &scratch, segs: &segs}
	w.walk(root, root.span.Start, root.span.End, nil)
	sort.Slice(segs, func(i, j int) bool {
		if segs[i].Start != segs[j].Start {
			return segs[i].Start < segs[j].Start
		}
		return segs[i].Depth < segs[j].Depth
	})
	return op, segs, true
}
