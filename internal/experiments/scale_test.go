package experiments

import (
	"testing"

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
	cfg := clusterConfig(blades)
	cfg.Disks = 96
	cfg.DisksPerGroup = 6
	cfg.CacheBlocksPerBlade = 2048
	l := newLab(64, cfg, "scale", 0)
	defer l.close()
	r := l.run(clients, dur, func(int) workload.Pattern {
		return workload.Uniform{Range: ws, Blocks: 4, WriteFrac: 0.25}
	})
	if l.c.Errors != 0 {
		t.Fatalf("cluster reported %d op errors", l.c.Errors)
	}
	// 10k closed-loop clients for 30 ms must land well over one op each
	// on average; a collapsed fabric would stall far below this floor.
	if r.Ops < int64(clients) {
		t.Fatalf("completed only %d ops for %d clients", r.Ops, clients)
	}
	t.Logf("ops=%d", r.Ops)
}
