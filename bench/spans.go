package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Spans of a traced run come from three places, none inside the program's
// source: the benchmark's own span around every outermost call, a
// pfs.BlockIO wrapper at the pfs→controller boundary, and below that the
// program's existing trace.Tracer. The first two are recorded here.

// span is one timed region on both clocks. Tracer spans are exported in the
// same shape with zero host times (the tracer stamps the virtual clock only).
type span struct {
	Src    string   `json:"src"` // "bench" or "tracer": each numbers its own ids
	Op     uint64   `json:"op"`
	ID     uint64   `json:"id"`
	Parent uint64   `json:"parent,omitempty"`
	Layer  string   `json:"layer"`
	Name   string   `json:"name"`
	VStart sim.Time `json:"vstart"`
	VEnd   sim.Time `json:"vend"`
	HStart int64    `json:"hstart_ns,omitempty"`
	HEnd   int64    `json:"hend_ns,omitempty"`
	// Trace is the tracer trace id of the controller op this span wraps
	// (0 when it wraps none), which links tracer spans back to their op.
	Trace uint64 `json:"trace,omitempty"`
}

// opCtx is the benchmark's trace context: it rides on sim.Proc exactly
// like trace.Ctx does, so every child proc an op spawns inherits its id.
type opCtx struct {
	op, span uint64
}

// spanLog keeps a traced run's benchmark spans in memory until exit. A nil
// *spanLog records nothing, so the untraced run pays one nil check per op.
type spanLog struct {
	t0     time.Time
	tracer *trace.Tracer
	spans  []span
	nextID uint64
	// outerLayer names the layer of the outermost call: "controller" on
	// the block workloads (the outer call is the controller), "pfs" or
	// "gateway" otherwise.
	outerLayer string
}

func newSpanLog(tracer *trace.Tracer, outerLayer string) *spanLog {
	return &spanLog{t0: time.Now(), tracer: tracer, outerLayer: outerLayer}
}

func (l *spanLog) open(p *sim.Proc, op, parent uint64, layer string) *span {
	l.nextID++
	return &span{Src: "bench", Op: op, ID: l.nextID, Parent: parent, Layer: layer,
		VStart: p.Now(), HStart: time.Since(l.t0).Nanoseconds()}
}

func (l *spanLog) close(p *sim.Proc, s *span, name string) {
	s.Name = name
	s.VEnd = p.Now()
	s.HEnd = time.Since(l.t0).Nanoseconds()
	l.spans = append(l.spans, *s)
}

// nextTrace predicts the tracer trace id of a controller op about to start
// on this proc: trace and span ids come from one counter that Started
// mirrors, and with QoS admission off Cluster.Read/WriteR open their root
// span before anything else can run.
func (l *spanLog) nextTrace() uint64 { return uint64(l.tracer.Started()) + 1 }

// beginOp opens the outer span of one benchmark op and installs its id on
// p so the BlockIO wrapper and every child proc can find it.
func (l *spanLog) beginOp(p *sim.Proc) *span {
	if l == nil {
		return nil
	}
	s := l.open(p, 0, 0, l.outerLayer)
	s.Op = s.ID
	if l.outerLayer == "controller" {
		s.Trace = l.nextTrace()
	}
	p.SetTraceCtx(opCtx{op: s.Op, span: s.ID})
	return s
}

func (l *spanLog) endOp(p *sim.Proc, s *span, name string) {
	if l == nil {
		return
	}
	p.SetTraceCtx(nil)
	l.close(p, s, name)
}

// spanIO wraps the block path beneath pfs and spans every call through it:
// the pfs→controller boundary. It forwards unchanged, so it moves no
// simulated event.
type spanIO struct {
	inner pfs.BlockIO
	log   *spanLog
}

func (s spanIO) BlockSize() int { return s.inner.BlockSize() }

func (s spanIO) begin(p *sim.Proc) *span {
	ctx, _ := p.TraceCtx().(opCtx)
	if ctx.op == 0 {
		return nil // set-up traffic, outside any benchmark op
	}
	sp := s.log.open(p, ctx.op, ctx.span, "controller")
	sp.Trace = s.log.nextTrace()
	return sp
}

func (s spanIO) ReadBlocks(p *sim.Proc, vol string, lba int64, count int, priority int) ([]byte, error) {
	sp := s.begin(p)
	data, err := s.inner.ReadBlocks(p, vol, lba, count, priority)
	if sp != nil {
		s.log.close(p, sp, "ReadBlocks")
	}
	return data, err
}

func (s spanIO) WriteBlocks(p *sim.Proc, vol string, lba int64, data []byte, priority, replFactor int) error {
	sp := s.begin(p)
	err := s.inner.WriteBlocks(p, vol, lba, data, priority, replFactor)
	if sp != nil {
		s.log.close(p, sp, "WriteBlocks")
	}
	return err
}

// controllerOps counts the spans that wrap a controller op.
func (l *spanLog) controllerOps() int {
	n := 0
	for i := range l.spans {
		if l.spans[i].Trace != 0 {
			n++
		}
	}
	return n
}

// aboveControllerShare returns, in percent of all outer-op virtual wall
// time, the part no BlockIO child span covers (the self time of the tiers
// above the controller) and the part their union covers. The two are
// computed independently and must sum to 100.
func (l *spanLog) aboveControllerShare() (self, covered float64) {
	if l.outerLayer == "controller" {
		return 0, 100 // the outer call is the controller: nothing lies above it
	}
	children := make(map[uint64][]*span)
	var outer []*span
	for i := range l.spans {
		s := &l.spans[i]
		if s.Parent == 0 {
			outer = append(outer, s)
		} else {
			children[s.Op] = append(children[s.Op], s)
		}
	}
	var wall, union, gaps sim.Duration
	for _, o := range outer {
		wall += o.VEnd.Sub(o.VStart)
		kids := children[o.Op]
		sort.Slice(kids, func(i, j int) bool { return kids[i].VStart < kids[j].VStart })
		at := o.VStart // everything before at is accounted for
		for _, c := range kids {
			if c.VStart > at {
				gaps += c.VStart.Sub(at)
				at = c.VStart
			}
			if c.VEnd > at {
				union += c.VEnd.Sub(at)
				at = c.VEnd
			}
		}
		gaps += o.VEnd.Sub(at)
	}
	if wall == 0 {
		return 0, 0
	}
	return 100 * float64(gaps) / float64(wall), 100 * float64(union) / float64(wall)
}

// phaseLayer maps the tracer's phases onto the module that owns the time.
var phaseLayer = map[trace.Phase]string{
	trace.Op:        "controller",
	trace.Queue:     "qos",
	trace.Fabric:    "simnet",
	trace.Coherence: "coherence",
	trace.Disk:      "disk",
	trace.Repl:      "replication",
	trace.CacheHit:  "cache",
}

// traceDir is where a traced run writes its spans, relative to the root of
// the checkout the benchmark runs from. The smoke test points it elsewhere.
var traceDir = filepath.Join("bench", "out")

// writeJSONL writes the benchmark's spans followed by the tracer's, one
// JSON object per line, to <traceDir>/<workload>.trace.jsonl.
func (l *spanLog) writeJSONL(workload string) (string, error) {
	path := filepath.Join(traceDir, workload+".trace.jsonl")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", err
	}
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	opOf := make(map[uint64]uint64) // tracer trace id -> benchmark op
	for i := range l.spans {
		if t := l.spans[i].Trace; t != 0 {
			opOf[t] = l.spans[i].Op
		}
		if err := enc.Encode(&l.spans[i]); err != nil {
			return "", err
		}
	}
	for _, s := range l.tracer.Spans() {
		layer, ok := phaseLayer[s.Phase]
		if !ok {
			layer = string(s.Phase)
		}
		out := span{Src: "tracer", Op: opOf[s.Trace], ID: s.ID, Parent: s.Parent, Layer: layer,
			Name: s.Name, VStart: s.Start, VEnd: s.End, Trace: s.Trace}
		if err := enc.Encode(&out); err != nil {
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		return "", err
	}
	return path, f.Close()
}
