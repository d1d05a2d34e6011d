package experiments

import (
	"sync"
	"testing"

	"repro/internal/sim"
)

// One full E16 run shared by every assertion below (two sweep arms over a
// seven-point client ladder are expensive; the assertions all inspect
// different facets of one result).
var e16Shared = sync.OnceValue(func() E16Result { return runE16(1, e16FullScale()) })

// TestE16LinearUntilSaturation: below the metadata knee, doubling the
// closed-loop population doubles throughput — each op pays think time
// plus fixed tier costs and no queue has formed. The first two doublings
// of the single-shard sweep sit well under the shard's serial capacity,
// so they must scale nearly ideally.
func TestE16LinearUntilSaturation(t *testing.T) {
	skipIfShort(t)
	r := e16Shared()
	p2, p4, p8 := r.Point(1, 2), r.Point(1, 4), r.Point(1, 8)
	if p2.OpsPerSec == 0 || p4.OpsPerSec == 0 || p8.OpsPerSec == 0 {
		t.Fatalf("missing sweep points: %+v %+v %+v", p2, p4, p8)
	}
	if p4.OpsPerSec < 1.7*p2.OpsPerSec {
		t.Errorf("2→4 clients scaled %.0f → %.0f ops/s (%.2fx); the linear region should double",
			p2.OpsPerSec, p4.OpsPerSec, p4.OpsPerSec/p2.OpsPerSec)
	}
	if p8.OpsPerSec < 1.6*p4.OpsPerSec {
		t.Errorf("4→8 clients scaled %.0f → %.0f ops/s (%.2fx); still below the knee, should stay near-linear",
			p4.OpsPerSec, p8.OpsPerSec, p8.OpsPerSec/p4.OpsPerSec)
	}
}

// TestE16SingleShardCeiling: past saturation the single-shard arm goes
// flat — adding clients adds index-queue wait, not throughput — and the
// shard is measurably pegged (busy the whole window).
func TestE16SingleShardCeiling(t *testing.T) {
	skipIfShort(t)
	r := e16Shared()
	p16, p128 := r.Point(1, 16), r.Point(1, 128)
	if p128.OpsPerSec > 1.1*p16.OpsPerSec {
		t.Errorf("16→128 clients moved the saturated single-shard arm %.0f → %.0f ops/s; the ceiling should be flat",
			p16.OpsPerSec, p128.OpsPerSec)
	}
	for _, clients := range []int{32, 64, 128} {
		if pt := r.Point(1, clients); pt.ShardUtil < 0.95 {
			t.Errorf("%d clients: single shard only %.2f busy; the ceiling should come from a pegged index server",
				clients, pt.ShardUtil)
		}
	}
	// Queueing, not collapse: latency grows with the population while
	// throughput holds.
	if p128.P50 < 4*p16.P50 {
		t.Errorf("8x the population only moved p50 %v → %v; expected index-queue wait to dominate",
			p16.P50, p128.P50)
	}
}

// TestE16ShardingMovesCeiling: four metadata shards lift the measured
// ceiling at least 2× — less than 4× is expected, because Zipf-hot
// buckets hash unevenly and the busiest shard saturates first.
func TestE16ShardingMovesCeiling(t *testing.T) {
	skipIfShort(t)
	r := e16Shared()
	c1, c4 := r.Ceiling(1), r.Ceiling(4)
	if c4 < 2*c1 {
		t.Errorf("sharding 1→4 moved the ceiling %.0f → %.0f ops/s (%.2fx), want ≥2x",
			c1, c4, c4/c1)
	}
	// Below saturation sharding buys nothing — the low-load points of
	// the two arms must agree (same tier costs, no queues to split).
	a, b := r.Point(1, 4), r.Point(4, 4)
	if b.OpsPerSec < 0.85*a.OpsPerSec || b.OpsPerSec > 1.15*a.OpsPerSec {
		t.Errorf("unsaturated 4-client points diverge across arms: %.0f vs %.0f ops/s",
			a.OpsPerSec, b.OpsPerSec)
	}
}

// TestE16IAMTierFlat: the in-memory IAM tier never queues behind
// metadata — its hit p99 stays under 10 ms (the yig auth budget) and
// flat at every load point, including deep saturation. This is the
// reason the tiers are split.
func TestE16IAMTierFlat(t *testing.T) {
	skipIfShort(t)
	r := e16Shared()
	if r.Users < 1<<20 {
		t.Fatalf("full-scale run registered only %d users; the IAM claim is about a population in the millions", r.Users)
	}
	for _, pt := range r.Points {
		if pt.IAMP99 >= 10*sim.Millisecond {
			t.Errorf("shards=%d clients=%d: IAM hit p99 %v breaches the 10 ms auth budget",
				pt.Shards, pt.Clients, pt.IAMP99)
		}
		if pt.IAMP99 >= 1*sim.Millisecond {
			t.Errorf("shards=%d clients=%d: IAM hit p99 %v not flat under load; the in-memory tier must not queue",
				pt.Shards, pt.Clients, pt.IAMP99)
		}
	}
}

// TestE16Deterministic: the same seed renders a byte-identical table on
// a second run — the whole two-arm sweep is a pure function of the seed.
func TestE16Deterministic(t *testing.T) {
	skipIfShort(t)
	a := e16Table(e16Shared(), "E16").String()
	b := E16(1).String()
	if a != b {
		t.Fatalf("same-seed E16 runs differ:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}

// TestE16QuickDeterministic: the CI smoke variant is deterministic too
// (it is the arm the benchrunner baseline gate diffs against).
func TestE16QuickDeterministic(t *testing.T) {
	skipIfShort(t)
	a := E16Q(7).String()
	b := E16Q(7).String()
	if a != b {
		t.Fatalf("same-seed E16Q runs differ:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}

// Point returns the measurement for one (shards, clients) pair.
func (r E16Result) Point(shards, clients int) E16Point {
	for _, pt := range r.Points {
		if pt.Shards == shards && pt.Clients == clients {
			return pt
		}
	}
	return E16Point{}
}
