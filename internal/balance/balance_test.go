package balance

import (
	"math"
	"testing"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/sim"
)

// planMoves is a pure function of its inputs, so these tests pin exact
// burst schedules without a kernel, scraper, or fabric.

func kh(lba int64, heat float64) coherence.KeyHeat {
	return coherence.KeyHeat{Key: cache.Key{Vol: "v", LBA: lba}, Heat: heat}
}

// planInterval is the tick the planning tests run at, and planCooldown the
// key cooldown it implies.
const (
	planInterval = 250 * sim.Millisecond
	planCooldown = cooldownIntervals * planInterval
)

func planCfg() Config {
	// MinMoveFrac is a power of two and the test heats are scaled so that
	// "exactly at the churn floor" is exact in float64: with mean = 40·s
	// and MinMoveFrac = 1/4, the floor 0.25·(40·s) equals 10·s bit-for-bit
	// (scaling by powers of two is exact), which is the estimated load of
	// a key with heat 10.
	return Config{MaxMoves: 4, MinMoveFrac: 0.25}
}

func heatScale() float64 {
	return math.Ln2 * float64(planInterval) / float64(coherence.HeatHalfLife)
}

// A key whose heat has decayed to EXACTLY the churn floor must not be
// planned: the floor is exclusive. The pre-fix planner used a strict
// comparison (est < floor), so an exactly-at-floor key was re-planned
// every tick, ping-ponging a cold home between blades.
func TestPlanMovesChurnFloorExclusive(t *testing.T) {
	cfg := planCfg()
	s := heatScale()
	mean := 40 * s
	srcLoad := 100 * s

	cands := []coherence.KeyHeat{
		kh(1, 50), // est 50·s: movable
		kh(2, 10), // est 10·s == 0.25·mean: exactly at the floor
		kh(3, 5),  // colder tail; must never be reached
	}
	targets := []coldBlade{{id: 2, load: 0}, {id: 3, load: 5 * s}}

	plan := planMoves(cfg, planInterval, sim.Time(0), map[cache.Key]sim.Time{}, cands, targets, mean, srcLoad)
	if len(plan) != 1 {
		t.Fatalf("planned %d moves, want 1 (at-floor key must break the burst): %+v", len(plan), plan)
	}
	if plan[0].cand.Key.LBA != 1 || plan[0].to != 2 {
		t.Fatalf("planned %s/%d -> blade%d, want v/1 -> blade2 (the coldest target)",
			plan[0].cand.Key.Vol, plan[0].cand.Key.LBA, plan[0].to)
	}
}

// A key just above the floor is still planned — the fix must not have
// widened the exclusion.
func TestPlanMovesJustAboveFloorStillMoves(t *testing.T) {
	cfg := planCfg()
	s := heatScale()
	mean := 40 * s

	cands := []coherence.KeyHeat{kh(1, 11)} // est 11·s > floor 10·s
	targets := []coldBlade{{id: 2, load: 0}}
	plan := planMoves(cfg, planInterval, sim.Time(0), map[cache.Key]sim.Time{}, cands, targets, mean, 100*s)
	if len(plan) != 1 || plan[0].cand.Key.LBA != 1 {
		t.Fatalf("planned %+v, want the above-floor key moved", plan)
	}
}

// Cooldown is a continue, not a break: a recently-moved hot key is skipped
// and the movable keys after it still get planned, onto coldest-first
// targets whose projected loads update in place.
func TestPlanMovesCooldownSkipsNotBreaks(t *testing.T) {
	cfg := planCfg()
	s := heatScale()
	mean := 40 * s
	now := sim.Time(planCooldown) // one full cooldown into the run

	lastMoved := map[cache.Key]sim.Time{
		{Vol: "v", LBA: 1}: now - sim.Time(planCooldown)/2, // still cooling
	}
	cands := []coherence.KeyHeat{
		kh(1, 60), // hottest, but cooling down: skipped
		kh(2, 50),
		kh(3, 30),
	}
	targets := []coldBlade{{id: 2, load: 0}, {id: 3, load: 20 * s}}

	plan := planMoves(cfg, planInterval, now, lastMoved, cands, targets, mean, 200*s)
	if len(plan) != 2 {
		t.Fatalf("planned %d moves, want 2: %+v", len(plan), plan)
	}
	// Key 2 (est 50·s) takes blade2 (load 0), projecting it to 50·s; key 3
	// (est 30·s) then finds blade3 (20·s) the coldest and fits under the
	// mean+half-est bound (50·s < 40·s+15·s).
	if plan[0].cand.Key.LBA != 2 || plan[0].to != 2 {
		t.Fatalf("first move %+v, want v/2 -> blade2", plan[0])
	}
	if plan[1].cand.Key.LBA != 3 || plan[1].to != 3 {
		t.Fatalf("second move %+v, want v/3 -> blade3", plan[1])
	}
}

// A single dominant key whose load no target can absorb stays pinned, and
// the burst stops once the source is projected at the mean.
func TestPlanMovesDominantKeyPinnedAndMeanStop(t *testing.T) {
	cfg := planCfg()
	s := heatScale()
	mean := 40 * s

	cands := []coherence.KeyHeat{
		kh(1, 100), // est 100·s: 0+100·s > mean+50·s — no target can absorb
		kh(2, 50),
		kh(3, 45), // never reached: source hits the mean after key 2
	}
	targets := []coldBlade{{id: 2, load: 0}}
	plan := planMoves(cfg, planInterval, sim.Time(0), map[cache.Key]sim.Time{}, cands, targets, mean, 90*s)
	if len(plan) != 1 || plan[0].cand.Key.LBA != 2 {
		t.Fatalf("planned %+v, want only v/2 (dominant pinned, then mean stop)", plan)
	}
}

// pruneCooldowns drops exactly the entries whose cooldown has elapsed.
func TestPruneCooldowns(t *testing.T) {
	cfg := planCfg()
	now := sim.Time(10 * planCooldown)
	c := &Controller{cfg: cfg, interval: planInterval, lastMoved: map[cache.Key]sim.Time{
		{Vol: "v", LBA: 1}: now - sim.Time(planCooldown),     // exactly elapsed: dropped
		{Vol: "v", LBA: 2}: now - sim.Time(planCooldown) + 1, // one tick left: kept
		{Vol: "v", LBA: 3}: now - 2*sim.Time(planCooldown),   // long gone: dropped
	}}
	c.pruneCooldowns(now)
	if len(c.lastMoved) != 1 {
		t.Fatalf("kept %d entries, want 1: %v", len(c.lastMoved), c.lastMoved)
	}
	if _, ok := c.lastMoved[cache.Key{Vol: "v", LBA: 2}]; !ok {
		t.Fatalf("the still-cooling key was pruned: %v", c.lastMoved)
	}
}
