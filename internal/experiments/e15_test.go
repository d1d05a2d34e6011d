package experiments

import (
	"sync"
	"testing"
)

// One full E15 run shared by every assertion below (seven arms are
// expensive; the assertions all inspect different facets of one result).
var e15Shared = sync.OnceValue(func() E15Result { return runE15(1, e15FullScale()) })

// TestE15CrossoverStaticSkew: on a stationary hot set the migration
// scheme wins sustained balance — it converges to a stable home
// assignment, so every measurement window sees the same even spread,
// while the cache tier's per-op two-choice routing oscillates window to
// window. Ops/s is deliberately NOT the deciding metric: once every arm
// is equally warm the pooled blade cache absorbs the read hot spot
// (E3's claim) and throughput is statistically flat across schemes — an
// earlier version of this test asserted a migrate ops/s win that turned
// out to be a warm-time artifact.
func TestE15CrossoverStaticSkew(t *testing.T) {
	skipIfShort(t)
	r := e15Shared()

	if r.StaticMigrate.Migrations == 0 {
		t.Fatalf("migrate arm moved no homes on static skew")
	}
	if r.StaticMigrate.WinCV > r.StaticHotCache.WinCV {
		t.Errorf("static skew: migrate windowed CV %.3f > hotcache %.3f; a converged home assignment should hold a steadier spread than per-op routing",
			r.StaticMigrate.WinCV, r.StaticHotCache.WinCV)
	}
	if r.StaticMigrate.CV >= r.StaticOff.CV {
		t.Errorf("static skew: migrate load CV %.3f not below the no-rebalance arm's %.3f; migration is not fixing the imbalance",
			r.StaticMigrate.CV, r.StaticOff.CV)
	}
	if min := 0.9 * r.StaticOff.OpsPerSec; r.StaticMigrate.OpsPerSec < min {
		t.Errorf("static skew: migrate %.0f ops/s more than 10%% below the no-rebalance arm %.0f ops/s",
			r.StaticMigrate.OpsPerSec, r.StaticOff.OpsPerSec)
	}
	if min := 0.9 * r.Uniform.OpsPerSec; r.StaticMigrate.OpsPerSec < min {
		t.Errorf("static skew: winning arm %.0f ops/s < 90%% of uniform baseline %.0f ops/s",
			r.StaticMigrate.OpsPerSec, r.Uniform.OpsPerSec)
	}
}

// TestE15CrossoverShiftingSkew: when the hot set rotates faster than the
// balancer's observe-plan-drain loop, the cache tier wins on load CV
// (aggregate and windowed) with an op tail no worse than migration's.
// The two p99s are histogram-bucket edges of three arms that sit in
// adjacent 7 %-wide buckets (70.06 / 74.96 / 80.21 ms), so "no worse" is
// "by no more than one bucket": which arm lands on which edge moves with
// any change to destage timing and says nothing about the scheme. Raw
// ops/s is not the metric either: the tier is held to "within 5% of the
// off arm" of its own workload and to nothing on the uniform arm, a
// different workload whose destage runs coalesce where a rotating hot
// set's do not (see the package doc on e15.go for the numbers).
func TestE15CrossoverShiftingSkew(t *testing.T) {
	skipIfShort(t)
	r := e15Shared()

	if r.ShiftHotCache.CacheHits == 0 {
		t.Fatalf("hotcache arm served no upper-layer hits on shifting skew")
	}
	if r.ShiftHotCache.WinCV > r.ShiftMigrate.WinCV {
		t.Errorf("shifting skew: hotcache windowed CV %.3f > migrate %.3f; the cache tier should spread fast-moving heat better",
			r.ShiftHotCache.WinCV, r.ShiftMigrate.WinCV)
	}
	if r.ShiftHotCache.CV > r.ShiftMigrate.CV {
		t.Errorf("shifting skew: hotcache load CV %.3f > migrate %.3f",
			r.ShiftHotCache.CV, r.ShiftMigrate.CV)
	}
	// One step of metrics.Histogram's 7 % buckets, with room for their
	// integer-nanosecond edges.
	const bucket = 1.075
	if float64(r.ShiftHotCache.P99) > bucket*float64(r.ShiftMigrate.P99) {
		t.Errorf("shifting skew: hotcache p99 %v more than a histogram bucket above migrate's %v; the cache tier should not lengthen the tail",
			r.ShiftHotCache.P99, r.ShiftMigrate.P99)
	}
	if min := 0.95 * r.ShiftOff.OpsPerSec; r.ShiftHotCache.OpsPerSec < min {
		t.Errorf("shifting skew: hotcache %.0f ops/s more than 5%% below the no-rebalance arm %.0f ops/s",
			r.ShiftHotCache.OpsPerSec, r.ShiftOff.OpsPerSec)
	}
}

// TestE15SkewHurtsWithoutRebalancing: sanity for the whole comparison —
// static Zipf with no rebalancing must actually concentrate load
// (higher CV than uniform), or the schemes have nothing to fix.
func TestE15SkewHurtsWithoutRebalancing(t *testing.T) {
	skipIfShort(t)
	r := e15Shared()
	if r.StaticOff.CV <= r.Uniform.CV {
		t.Errorf("static zipf off-arm CV %.3f not above uniform CV %.3f; skew is not biting",
			r.StaticOff.CV, r.Uniform.CV)
	}
	if r.ShiftOff.CV <= r.Uniform.CV {
		t.Errorf("shifting zipf off-arm CV %.3f not above uniform CV %.3f; skew is not biting",
			r.ShiftOff.CV, r.Uniform.CV)
	}
}

// TestE15Deterministic: the same seed renders a byte-identical table on a
// second run — the whole seven-arm matrix is a pure function of the seed.
func TestE15Deterministic(t *testing.T) {
	skipIfShort(t)
	a := e15Table(e15Shared(), "E15").String()
	b := E15(1).String()
	if a != b {
		t.Fatalf("same-seed E15 runs differ:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}

// TestE15QuickDeterministic: the CI smoke variant is deterministic too
// (it is the arm the benchrunner baseline gate diffs against).
func TestE15QuickDeterministic(t *testing.T) {
	skipIfShort(t)
	a := E15Q(7).String()
	b := E15Q(7).String()
	if a != b {
		t.Fatalf("same-seed E15Q runs differ:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}
