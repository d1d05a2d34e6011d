package controller

import (
	"testing"

	"repro/internal/sim"
)

// workCluster drives a short write/read burst so the fabric counters move.
func workCluster(t *testing.T, c *Cluster, k *sim.Kernel) {
	t.Helper()
	if _, err := c.Pool.CreateDMSD("v", 1<<16); err != nil {
		t.Fatal(err)
	}
	run(k, func(p *sim.Proc) {
		buf := pattern(c.BlockSize(), 0x5a)
		for i := 0; i < 64; i++ {
			b := c.PickBlade()
			if err := c.Write(p, b, "v", int64(i), buf, 0); err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
			if _, err := c.Read(p, c.PickBlade(), "v", int64(i), 1, 0); err != nil {
				t.Errorf("read %d: %v", i, err)
				return
			}
		}
	})
}

func TestFabricTotalsMatchesPerBladeSum(t *testing.T) {
	c, k := newTestCluster(t, 2, nil)
	workCluster(t, c, k)

	var want BladeFabricStats
	want.Blade = -1
	for _, b := range c.Blades {
		s := b.fabricStats()
		want.RPC.Calls += s.RPC.Calls
		want.RPC.Timeouts += s.RPC.Timeouts
		want.RPC.Retries += s.RPC.Retries
		want.RPC.GaveUp += s.RPC.GaveUp
		want.DegradedOps += s.DegradedOps
		want.WritebackErrors += s.WritebackErrors
	}
	got := c.FabricTotals()
	if got != want {
		t.Fatalf("FabricTotals = %+v, want per-blade sum %+v", got, want)
	}
	if got.RPC.Calls == 0 {
		t.Fatal("workload moved no fabric calls; totals test is vacuous")
	}
}
