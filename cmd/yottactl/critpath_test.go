package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

// newTracedSession is a script session with per-op tracing attached (off
// until a script says `trace on`), the shape the analyze/critpath commands
// need.
func newTracedSession(t *testing.T) *session {
	t.Helper()
	s := newScriptSession(t, core.Options{Trace: true})
	s.sys.Tracer.SetEnabled(false)
	return s
}

// TestAnalyzeCommand: traced ops → analyze renders the budget and tail
// tables, and the folded export writes flame-graph input.
func TestAnalyzeCommand(t *testing.T) {
	s := newTracedSession(t)
	folded := filepath.Join(t.TempDir(), "stacks.folded")
	out, errs := runScript(t, s,
		"analyze", // before any traces: friendly empty output, no error
		"trace on",
		"mkdir /t",
		"put /t/f critical path smoke data",
		"get /t/f",
		"analyze",
		"analyze folded "+folded,
		"analyze bogus extra args here",
	)
	for i, err := range errs[:7] {
		if err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
	}
	if errs[7] == nil {
		t.Error("bad analyze usage should error")
	}
	for _, want := range []string{
		"no complete op traces",
		"ops analyzed",
		"critical-path latency budget",
		"tail diagnosis",
		"Check: true",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("analyze output missing %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(folded)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "read") && !strings.Contains(string(data), "write") {
		t.Errorf("folded export has no op frames:\n%s", data)
	}
}

// TestCritpathCommand: renders a named trace and the p99 exemplar path.
func TestCritpathCommand(t *testing.T) {
	s := newTracedSession(t)
	out, errs := runScript(t, s,
		"trace on",
		"mkdir /t",
		"put /t/f exemplar path data",
		"get /t/f",
		"critpath",   // p99 exemplar of cluster/op_latency
		"critpath 1", // explicit first trace id
		"critpath nope",
		"critpath 999999",
	)
	for i, err := range errs[:6] {
		if err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
	}
	if errs[6] == nil || errs[7] == nil {
		t.Error("bad trace ids should error")
	}
	if !strings.Contains(out, "p99 exemplar: trace ") {
		t.Errorf("missing exemplar line:\n%s", out)
	}
	if strings.Count(out, "critical path — trace ") < 2 {
		t.Errorf("expected two rendered paths:\n%s", out)
	}
	if !strings.Contains(out, "wall ") || !strings.Contains(out, "queue ") {
		t.Errorf("rendered path missing wall/queue accounting:\n%s", out)
	}
}

// TestCritpathExemplarWithoutTraces: the exemplar lookup fails cleanly on
// an untraced system.
func TestCritpathExemplarWithoutTraces(t *testing.T) {
	s := newScriptSession(t, core.Options{})
	_, errs := runScript(t, s, "critpath")
	if errs[0] == nil || !strings.Contains(errs[0].Error(), "exemplar") {
		t.Errorf("want exemplar error, got %v", errs[0])
	}
}
