package experiments

import (
	"testing"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestBatchedScale64Blades drives a 64-blade cluster with ten thousand
// closed-loop clients on the batched fabric plane — the ISSUE-6 scale
// point. It asserts the run completes error-free inside the tier-1 budget
// (it skips under -short like the other experiment regenerations), that
// coalescing actually multiplexed the fabric (messages strictly exceed
// frames), and that throughput is sane for the population.
func TestBatchedScale64Blades(t *testing.T) {
	skipIfShort(t)
	const (
		blades  = 64
		clients = 10_000
		ws      = 64 << 10
		dur     = 30 * sim.Millisecond
	)
	k := sim.NewKernel(64)
	defer k.Close()
	cfg := clusterConfig(blades)
	cfg.Disks = 96
	cfg.DisksPerGroup = 6
	cfg.CacheBlocksPerBlade = 2048
	cfg.FabricBatch = true
	c, err := controller.New(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Pool.CreateDMSD("scale", 1<<22); err != nil {
		t.Fatal(err)
	}
	if !c.FabricBatched() {
		t.Fatal("FabricBatch config did not enable the batched plane")
	}
	target := &core.VolumeTarget{Cluster: c, Vol: "scale"}
	r := runWorkload(k, clients, dur, target, func(int) workload.Pattern {
		return workload.Uniform{Range: ws, Blocks: 4, WriteFrac: 0.25}
	})
	if c.Errors != 0 {
		t.Fatalf("cluster reported %d op errors", c.Errors)
	}
	// 10k closed-loop clients for 30 ms must land well over one op each
	// on average; a collapsed fabric would stall far below this floor.
	if r.Ops < int64(clients) {
		t.Fatalf("completed only %d ops for %d clients", r.Ops, clients)
	}
	var frames, msgs int64
	for _, b := range c.Blades {
		st := b.Conn.BatchStats()
		frames += st.Frames
		msgs += st.Messages
	}
	if frames == 0 || msgs <= frames {
		t.Fatalf("no coalescing at scale: %d frames, %d messages", frames, msgs)
	}
	t.Logf("ops=%d frames=%d messages=%d (%.2f msgs/frame)",
		r.Ops, frames, msgs, float64(msgs)/float64(frames))
}
