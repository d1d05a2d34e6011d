package controller

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/balance"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// homeHeatAfterStream runs one skewed stream of single-block reads, each sent
// to the blade that homes its block, on a fresh cluster, with a parked
// balancer attached first when withBalancer is set. It returns every blade's
// HottestHomes ranking as "vol/lba=heat", read at the end of the stream.
func homeHeatAfterStream(t *testing.T, withBalancer bool) [][]string {
	c, k := newTestCluster(t, 1, nil)
	if _, err := c.Pool.CreateDMSD("vol", 64); err != nil {
		t.Fatal(err)
	}
	if withBalancer {
		bal := c.NewBalancer(telemetry.NewScraper(k, c.Reg, 100*sim.Millisecond), balance.Config{})
		bal.SetEnabled(false)
	}
	ranks := make([][]string, len(c.Blades))
	run(k, func(p *sim.Proc) {
		for i := 0; i < 240; i++ {
			lba := int64(i * i % 23) // quadratic residues: eleven blocks read twice per cycle of 23, block 0 once
			if _, err := c.Read(p, c.HomeBlade("vol", lba), "vol", lba, 1, 0); err != nil {
				t.Errorf("read %d: %v", lba, err)
				return
			}
		}
		for i, b := range c.Blades {
			for _, kh := range b.Engine.HottestHomes(4) {
				ranks[i] = append(ranks[i], fmt.Sprintf("%v=%.4f", kh.Key, kh.Heat))
			}
		}
	})
	return ranks
}

// TestHomeHeatOnlyForABalancer: an engine counts home heat only once a
// balancer, its one reader, is attached. Without one, a stream of reads at
// their homes leaves every blade's HottestHomes empty; with one attached
// before the stream, the same stream ranks the keys, and weighs them, as
// engines that counted with or without a balancer did (want was recorded on
// those).
func TestHomeHeatOnlyForABalancer(t *testing.T) {
	for i, r := range homeHeatAfterStream(t, false) {
		if len(r) != 0 {
			t.Errorf("blade %d without a balancer ranks %v, want nothing", i, r)
		}
	}
	want := [][]string{
		{"vol/12=20.9314", "vol/3=20.9313", "vol/16=20.9312"},
		{"vol/4=20.9311", "vol/8=19.9314", "vol/0=10.9621"},
		{"vol/18=20.9313", "vol/9=20.9311", "vol/1=20.9310"},
		{"vol/13=20.9312", "vol/2=20.9312", "vol/6=19.9314"},
	}
	if got := homeHeatAfterStream(t, true); !reflect.DeepEqual(got, want) {
		t.Errorf("with a balancer: ranking\n%q\nwant\n%q", got, want)
	}
}
