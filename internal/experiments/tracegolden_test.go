package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// goldenTraceJSONL runs a small deterministic mixed workload on a 4-blade
// cluster with frame batching left off and returns the traced span log as
// JSONL bytes. The working set (256 blocks) fits far inside each blade's
// cache (4096 blocks), so no capacity evictions occur and the traced window
// exercises the synchronous RPC surface (gets/getx/inv/invm/downgrade/fetch
// plus replication pushes) whose timing the batching-off path must leave
// untouched.
func goldenTraceJSONL(seed int64) []byte {
	const (
		blades  = 4
		clients = 8
		ws      = 256
	)
	k := sim.NewKernel(seed)
	defer k.Close() // after the span log is written: Close ends the ops in flight
	cfg := clusterConfig(blades)
	tracer := trace.NewTracer(k)
	cfg.Tracer = tracer
	c, err := controller.New(k, cfg)
	if err != nil {
		panic(err)
	}
	if _, err := c.Pool.CreateDMSD("golden", 1<<20); err != nil {
		panic(err)
	}
	target := &core.VolumeTarget{Cluster: c, Vol: "golden"}
	if err := prefillVolume(k, c, "golden", ws); err != nil {
		panic(err)
	}
	pat := func(int) workload.Pattern {
		return workload.Uniform{Range: ws, Blocks: 4, WriteFrac: 0.25}
	}
	runWorkload(k, clients, 200*sim.Millisecond, target, pat)
	tracer.SetEnabled(true)
	runWorkload(k, clients, 200*sim.Millisecond, target, pat)
	tracer.SetEnabled(false)
	var buf bytes.Buffer
	if err := tracer.WriteJSONL(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// TestTraceGoldenUnbatched pins the batching-off trace to a golden file
// generated before frame coalescing existed: with FabricBatch disabled the
// fabric must stay byte-identical to the per-message build, same-seed.
// Regenerate (only when intentionally changing pre-batching behavior) with
//
//	GOLDEN=rewrite go test ./internal/experiments -run TestTraceGoldenUnbatched
func TestTraceGoldenUnbatched(t *testing.T) {
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
