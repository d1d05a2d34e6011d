package controller

import (
	"bytes"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// tracedRun drives a small write+read workload on a traced cluster and
// returns the tracer.
func tracedRun(t *testing.T, seed int64) *trace.Tracer {
	t.Helper()
	k := sim.NewKernel(seed)
	t.Cleanup(k.Close)
	cfg := smallConfig()
	// Tiny caches: ops must write back and miss to disk, so disk-phase
	// spans appear inside the traced ops (a fully cached working set
	// would only destage via the untraced background flusher).
	cfg.CacheBlocksPerBlade = 16
	tr := trace.NewTracer(k)
	tr.SetEnabled(true)
	cfg.Tracer = tr
	c, err := New(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Pool.CreateDMSD("vol", 64); err != nil {
		t.Fatal(err)
	}
	data := pattern(512*8, 3)
	run(k, func(p *sim.Proc) {
		// All writes through blade 0: 64 blocks through a 16-block cache
		// forces eviction writebacks inside the traced ops.
		for i := 0; i < 8; i++ {
			if err := c.Write(p, c.Blade(0), "vol", int64(i*8), data, 0); err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
		}
		// Reads through a different blade: the early blocks are destaged
		// and cached nowhere, so the reads miss to disk; the rest force
		// coherence traffic.
		for i := 0; i < 8; i++ {
			if _, err := c.Read(p, c.Blade(1), "vol", int64(i*8), 8, 0); err != nil {
				t.Errorf("read %d: %v", i, err)
				return
			}
		}
	})
	return tr
}

// End-to-end: a traced cluster workload produces op roots with fabric,
// coherence, queue and disk phases nested beneath them.
func TestClusterTracePhases(t *testing.T) {
	tr := tracedRun(t, 1)
	spans := tr.Spans()
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	// Every op root is a read or write; 16 client ops were issued.
	if n := tr.PhaseHistogram(trace.Op).Count(); n != 16 {
		t.Fatalf("op spans = %d, want 16", n)
	}
	for _, ph := range []trace.Phase{trace.Queue, trace.Coherence, trace.Fabric, trace.Disk} {
		if tr.PhaseHistogram(ph).Count() == 0 {
			t.Fatalf("phase %q recorded no spans", ph)
		}
	}
	// Replication is on (N=2) and writes are dirty: repl spans must exist.
	if tr.PhaseHistogram(trace.Repl).Count() == 0 {
		t.Fatal("no replication spans despite ReplicationN=2")
	}

	// Structural checks: every non-root span's parent exists and shares
	// its trace id; roots are Op spans.
	byID := make(map[uint64]trace.Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Parent == 0 {
			if s.Phase != trace.Op {
				t.Fatalf("root span with non-op phase: %+v", s)
			}
			continue
		}
		par, ok := byID[s.Parent]
		if !ok {
			t.Fatalf("span %d has unknown parent %d", s.ID, s.Parent)
		}
		if par.Trace != s.Trace {
			t.Fatalf("span %d trace %d != parent trace %d", s.ID, s.Trace, par.Trace)
		}
		if s.Start < par.Start || s.End > par.End {
			t.Fatalf("span %d [%d,%d] outside parent [%d,%d]", s.ID, s.Start, s.End, par.Start, par.End)
		}
	}
}

// Same-seed traced runs must export byte-identical JSONL.
func TestClusterTraceDeterministic(t *testing.T) {
	var out [2]bytes.Buffer
	for i := range out {
		tr := tracedRun(t, 42)
		if err := tr.WriteJSONL(&out[i]); err != nil {
			t.Fatal(err)
		}
	}
	if out[0].Len() == 0 {
		t.Fatal("empty trace")
	}
	if !bytes.Equal(out[0].Bytes(), out[1].Bytes()) {
		t.Fatal("same-seed traced runs differ")
	}
}

// Tracing must not perturb simulation timing: the same workload with and
// without a tracer finishes at the identical virtual instant.
func TestTracingDoesNotPerturbTiming(t *testing.T) {
	endTime := func(traced bool) sim.Time {
		k := sim.NewKernel(9)
		defer k.Close()
		cfg := smallConfig()
		if traced {
			tr := trace.NewTracer(k)
			tr.SetEnabled(true)
			cfg.Tracer = tr
		}
		c, err := New(k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Pool.CreateDMSD("vol", 64); err != nil {
			t.Fatal(err)
		}
		data := pattern(512*8, 7)
		var end sim.Time
		run(k, func(p *sim.Proc) {
			for i := 0; i < 4; i++ {
				if err := c.Write(p, c.Blade(i%c.Cfg.Blades), "vol", int64(i*8), data, 0); err != nil {
					t.Errorf("write: %v", err)
					return
				}
				if _, err := c.Read(p, c.Blade((i+1)%c.Cfg.Blades), "vol", int64(i*8), 8, 0); err != nil {
					t.Errorf("read: %v", err)
					return
				}
			}
			end = p.Now()
		})
		return end
	}
	plain := endTime(false)
	traced := endTime(true)
	if plain != traced {
		t.Fatalf("tracing changed timing: untraced end %v, traced end %v", plain, traced)
	}
}
