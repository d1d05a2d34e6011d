package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// goldenTraceJSONL runs a small deterministic mixed workload on a 4-blade
// cluster and returns the traced span log as JSONL bytes. The working set
// (256 blocks) fits far inside each blade's cache (4096 blocks), so no
// capacity evictions occur and the traced window exercises the synchronous
// RPC surface: gets/getx/inv/invm/downgrade/fetch plus replication pushes.
func goldenTraceJSONL(seed int64) []byte {
	const (
		blades  = 4
		clients = 8
		ws      = 256
	)
	l := newLab(seed, clusterConfig(blades), "golden", ws)
	defer l.close() // after the span log is written: Close ends the ops in flight
	pat := func(int) workload.Pattern {
		return workload.Uniform{Range: ws, Blocks: 4, WriteFrac: 0.25}
	}
	l.run(clients, 200*sim.Millisecond, pat)
	l.tr.SetEnabled(true)
	l.run(clients, 200*sim.Millisecond, pat)
	l.tr.SetEnabled(false)
	var buf bytes.Buffer
	if err := l.tr.WriteJSONL(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// TestTraceGolden pins the seed-42 trace to a golden file: any change to
// the simulated event order of the protocol, the fabric, replication or
// the disks shows up here, span by span. Regenerate (only when a change
// moves simulated time on purpose, with the reason recorded) with
//
//	GOLDEN=rewrite go test ./internal/experiments -run TestTraceGolden
func TestTraceGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden trace run exceeds -short budget")
	}
	path := filepath.Join("testdata", "golden_trace_seed42.jsonl")
	got := goldenTraceJSONL(42)
	if os.Getenv("GOLDEN") == "rewrite" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with GOLDEN=rewrite to generate): %v", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Count(got, []byte{'\n'}), bytes.Count(want, []byte{'\n'})
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("batching-off trace diverged from pre-batching build: %d vs %d spans, first byte diff at offset %d",
			gl, wl, i)
	}
}
