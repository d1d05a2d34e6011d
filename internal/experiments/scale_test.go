package experiments

import (
	"testing"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestScale64Blades drives a 64-blade cluster with ten thousand closed-loop
// clients. It asserts the run completes error-free inside the tier-1 budget
// (it skips under -short like the other experiment regenerations) and that
// throughput is sane for the population.
func TestScale64Blades(t *testing.T) {
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
	c, err := controller.New(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Pool.CreateDMSD("scale", 1<<22); err != nil {
		t.Fatal(err)
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
	t.Logf("ops=%d", r.Ops)
}
