package experiments

import (
	"fmt"
	"os"
	"repro/internal/qos"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestMain is the package's leak check: every parked proc and pooled
// runner is a goroutine that keeps its kernel — and the finished system
// behind it — reachable, so an experiment that does not Close its kernel
// shows up as goroutines left over after the tests.
func TestMain(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	// A finished test's goroutine may still be on its way out.
	for i := 0; i < 100 && runtime.NumGoroutine() > before; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before && code == 0 {
		fmt.Fprintf(os.Stderr, "FAIL: %d goroutines leaked (%d before the tests, %d after): some experiment did not Close its kernel\n",
			after-before, before, after)
		code = 1
	}
	os.Exit(code)
}

// e12Shared memoizes one full seed-1 E12 evaluation: the shape test and
// the determinism test both need it, and runE12 is deterministic per seed,
// so re-simulating its three cluster arms per test only burns the
// package's go-test timeout budget.
var e12Shared = sync.OnceValue(func() E12Result { return runE12(1, e15FullScale()) })

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func TestE1Shape(t *testing.T) {
	skipIfShort(t)
	tab := E1(1)
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// achieved Gb/s column is index 2.
	one := parseF(t, tab.Rows[0][2])
	two := parseF(t, tab.Rows[1][2])
	four := parseF(t, tab.Rows[2][2])
	eight := parseF(t, tab.Rows[3][2])
	if one < 3.5 || one > 4.2 {
		t.Fatalf("1 blade = %v, want ~4", one)
	}
	if two < 7.0 || two > 8.4 {
		t.Fatalf("2 blades = %v, want ~8", two)
	}
	if four < 9.0 || four > 10.1 {
		t.Fatalf("4 blades = %v, want ~10", four)
	}
	if eight < four*0.95 {
		t.Fatalf("8 blades (%v) below 4-blade port limit (%v)", eight, four)
	}
}

func TestE2ScalesAndBeatsBaseline(t *testing.T) {
	skipIfShort(t)
	tab := E2(1)
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	mbps := func(i int) float64 { return parseF(t, tab.Rows[i][2]) }
	// Monotone growth through the blade sweep (within 5% noise).
	for i := 1; i < 5; i++ {
		if mbps(i) < mbps(i-1)*0.95 {
			t.Fatalf("throughput shrank adding blades: row %d %v -> %v\n%s", i, mbps(i-1), mbps(i), tab)
		}
	}
	// Meaningful scaling: 16 blades ≥ 3× 1 blade.
	if mbps(4) < 3*mbps(0) {
		t.Fatalf("16 blades (%v) < 3× 1 blade (%v)\n%s", mbps(4), mbps(0), tab)
	}
	// 8-blade cluster beats the dual-controller baseline.
	if mbps(3) <= mbps(5) {
		t.Fatalf("8-blade cluster (%v) did not beat baseline (%v)\n%s", mbps(3), mbps(5), tab)
	}
}

func TestE3HotSpotContrast(t *testing.T) {
	skipIfShort(t)
	tab := E3(1)
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	clusterCV := parseF(t, tab.Rows[0][3])
	baselineCV := parseF(t, tab.Rows[1][3])
	if clusterCV > 0.2 {
		t.Fatalf("cluster load CV = %v, want ~0 (balanced)\n%s", clusterCV, tab)
	}
	if baselineCV < 1.0 {
		t.Fatalf("baseline load CV = %v, want ~1.41 (one hot controller)\n%s", baselineCV, tab)
	}
	clusterOps := parseF(t, tab.Rows[0][1])
	baseOps := parseF(t, tab.Rows[1][1])
	if clusterOps <= baseOps {
		t.Fatalf("cluster ops/s (%v) did not beat hot-volume baseline (%v)\n%s", clusterOps, baseOps, tab)
	}
}

func TestE4RebuildScales(t *testing.T) {
	skipIfShort(t)
	tab := E4(1)
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	t1 := parseF(t, tab.Rows[0][1])
	t4 := parseF(t, tab.Rows[2][1])
	if t4 >= t1 {
		t.Fatalf("4-blade rebuild (%vs) not faster than 1-blade (%vs)\n%s", t4, t1, tab)
	}
}

func TestE5ThinBeatsThick(t *testing.T) {
	skipIfShort(t)
	tab := E5(1)
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	thick := parseF(t, tab.Rows[0][1])
	thin := parseF(t, tab.Rows[1][1])
	if thin < 2*thick {
		t.Fatalf("thin fits %v tenants vs thick %v; want ≥2×\n%s", thin, thick, tab)
	}
}

func TestE6ReplicationSurvivability(t *testing.T) {
	skipIfShort(t)
	tab := E6(1)
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for i, row := range tab.Rows {
		lostNm1 := parseF(t, row[2])
		if lostNm1 != 0 {
			t.Fatalf("N=%d lost %v blocks after N-1 failures\n%s", i+1, lostNm1, tab)
		}
	}
	// With N=1, killing one blade must lose something (write-back with no
	// replication), or the contrast claim is hollow.
	if lostN := parseF(t, tab.Rows[0][3]); lostN == 0 {
		t.Fatalf("N=1 lost nothing after 1 failure; premise broken\n%s", tab)
	}
}

func TestE7FirstTouchThenLocal(t *testing.T) {
	skipIfShort(t)
	tab := E7(1)
	if len(tab.Rows) != 8 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	first := parseF(t, tab.Rows[0][2])
	if first < 80 { // ≥ 2×40 ms one-way
		t.Fatalf("first remote read %v ms, want ≥ RTT 80ms\n%s", first, tab)
	}
	for i := 1; i < 8; i++ {
		if l := parseF(t, tab.Rows[i][2]); l > first/4 {
			t.Fatalf("read %d latency %v ms not local-like\n%s", i+1, l, tab)
		}
	}
}

func TestE8SyncTracksDistanceAsyncDoesNot(t *testing.T) {
	skipIfShort(t)
	tab := E8(1)
	if len(tab.Rows) != 8 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Rows alternate sync/async per distance.
	sync1 := parseF(t, tab.Rows[0][2])    // 1 ms sync
	sync100 := parseF(t, tab.Rows[6][2])  // 100 ms sync
	async100 := parseF(t, tab.Rows[7][2]) // 100 ms async
	if sync100 < 10*sync1 {
		t.Fatalf("sync latency did not track distance: %v vs %v\n%s", sync1, sync100, tab)
	}
	if async100 > sync100/4 {
		t.Fatalf("async latency %v not ≪ sync %v at 100ms\n%s", async100, sync100, tab)
	}
	// Sync never loses writes; async loses some at the largest distance.
	for i := 0; i < 8; i += 2 {
		if lost := parseF(t, tab.Rows[i][3]); lost != 0 {
			t.Fatalf("sync lost %v writes\n%s", lost, tab)
		}
	}
	if lost := parseF(t, tab.Rows[7][3]); lost == 0 {
		t.Fatalf("async lost nothing on immediate disaster; premise broken\n%s", tab)
	}
}

func TestE9EncryptionParallelism(t *testing.T) {
	skipIfShort(t)
	tab := E9(1)
	enc1 := parseF(t, tab.Rows[0][2])
	enc8 := parseF(t, tab.Rows[3][2])
	if enc1 > 2.2 {
		t.Fatalf("1-blade encrypted rate %v, want ≤ 2 Gb/s engine\n%s", enc1, tab)
	}
	if enc8 < 8.5 {
		t.Fatalf("8-blade encrypted rate %v, want near port speed\n%s", enc8, tab)
	}
}

func TestE10Availability(t *testing.T) {
	skipIfShort(t)
	tab := E10(1)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	before := parseF(t, tab.Rows[0][1])
	after := parseF(t, tab.Rows[2][1])
	if after < before*0.5 {
		t.Fatalf("post-recovery throughput %v ≪ pre-failure %v\n%s", after, before, tab)
	}
	// Live blades: 8 before, 6 after.
	if tab.Rows[0][4] != "8" || tab.Rows[2][4] != "6" {
		t.Fatalf("live blade counts wrong\n%s", tab)
	}
}

// skipIfShort skips experiment regeneration in -short mode: each test
// re-runs a full simulated cluster, which the race-enabled tier of the
// verify recipe (`go test -race -short ./...`) cannot afford.
func skipIfShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("experiment regeneration skipped in -short mode")
	}
}

// TestE12RebalanceRecovers checks the experiment's acceptance claims: with
// balancing on, under the same Zipf seed, the per-blade load CV drops
// below the hot-spot watchdog threshold and throughput recovers to ≥ 90%
// of the uniform-workload baseline.
func TestE12RebalanceRecovers(t *testing.T) {
	skipIfShort(t)
	r := e12Shared()
	if r.Static.CV <= e12CVMax || r.Static.Ratio <= e12RatioMax {
		t.Fatalf("static-path Zipf run shows no hot-spot (CV %.2f, max/mean %.2f vs thresholds %.2f/%.2f); premise broken",
			r.Static.CV, r.Static.Ratio, e12CVMax, e12RatioMax)
	}
	if r.Balanced.Migrations == 0 {
		t.Fatalf("balanced run migrated no homes: %+v", r)
	}
	if r.Balanced.CV >= e12CVMax {
		t.Fatalf("balanced load CV %.2f did not fall below the watchdog threshold %.2f", r.Balanced.CV, e12CVMax)
	}
	if got := r.Balanced.OpsPerSec / r.Uniform.OpsPerSec; got < 0.90 {
		t.Fatalf("balanced throughput %.1f%% of uniform baseline, want ≥ 90%%", 100*got)
	}
	// Balancing must actually help over leaving the skew in place.
	if r.Balanced.OpsPerSec <= r.Static.OpsPerSec {
		t.Fatalf("balancing did not improve throughput: %v vs static %v", r.Balanced.OpsPerSec, r.Static.OpsPerSec)
	}
	// The watchdog and the balancer watch the same signal: the balanced
	// run must carry at least one hot-spot warn from the skewed warm-up.
	warned := false
	for _, ev := range r.Events {
		if strings.Contains(ev.String(), "hot-spot") {
			warned = true
		}
	}
	if !warned {
		t.Fatalf("no hot-spot watchdog event in the balanced run: %v", r.Events)
	}
}

// TestE12Deterministic: two same-seed runs must render byte-identical
// tables — balancer decisions, watchdog events, skew sparklines and all.
// One of the runs is the memoized evaluation shared with the shape test.
func TestE12Deterministic(t *testing.T) {
	skipIfShort(t)
	a := e12Table(e12Shared()).String()
	b := E12(1).String()
	if a != b {
		t.Fatalf("E12 not deterministic across runs with the same seed:\n--- run 1\n%s\n--- run 2\n%s", a, b)
	}
}

func TestE11LossyFabricDeterministic(t *testing.T) {
	skipIfShort(t)
	tab := E11(1)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	before := parseF(t, tab.Rows[0][1])
	after := parseF(t, tab.Rows[2][1])
	if after < before*0.5 {
		t.Fatalf("post-recovery throughput %v ≪ pre-failure %v\n%s", after, before, tab)
	}
	if tab.Rows[0][4] != "8" || tab.Rows[2][4] != "6" {
		t.Fatalf("live blade counts wrong\n%s", tab)
	}
	// Outside the failure window the retry layer must absorb the injected
	// faults completely: bounded degraded errors belong to the kill, not
	// to steady-state loss.
	if tab.Rows[0][3] != "0" || tab.Rows[2][3] != "0" {
		t.Fatalf("steady-state client errors under faults\n%s", tab)
	}
	var notes string
	for _, n := range tab.Notes {
		notes += n + "\n"
	}
	if !strings.Contains(notes, "lost after failures: 0") {
		t.Fatalf("acknowledged writes were lost\n%s", tab)
	}
	// Faults must actually have been injected, or the experiment is
	// vacuous.
	if strings.Contains(notes, "injected faults: 0 dropped") {
		t.Fatalf("no faults injected\n%s", tab)
	}

	// Determinism: the fault plan draws from the seeded kernel RNG, so a
	// second run with the same seed must be byte-identical — drops,
	// duplicates, retries, sparkline and all.
	if again := E11(1); again.String() != tab.String() {
		t.Fatalf("E11 not deterministic across runs with the same seed:\n--- run 1\n%s\n--- run 2\n%s", tab, again)
	}
}

// TestE13Isolation checks the experiment's acceptance claims at full
// scale: the contended-without-QoS ablation demonstrably violates the
// victim bound (the premise), QoS brings the victim's p99 back within
// e13VictimRatioMax of solo, the aggressor is actually shaped (delays and
// sheds both observed), aggregate client throughput is not sacrificed,
// and the rebuild still completes in both contended arms.
func TestE13Isolation(t *testing.T) {
	skipIfShort(t)
	r := runE13(1, e13Full())
	if r.VictimRatioOff <= r.RatioMax {
		t.Fatalf("QoS-off ablation shows no interference (victim p99 ratio %.2f vs bound %.2f); premise broken",
			r.VictimRatioOff, r.RatioMax)
	}
	if r.VictimRatioOn > r.RatioMax {
		t.Fatalf("QoS-on victim p99 ratio %.2f exceeds bound %.2f (solo %.3fms, contended %.3fms)",
			r.VictimRatioOn, r.RatioMax, r.Solo.VictimP99.Millis(), r.On.VictimP99.Millis())
	}
	if r.On.Throttled == 0 || r.On.Delayed == 0 {
		t.Fatalf("aggressor bucket never bound: delayed %d, throttled %d", r.On.Delayed, r.On.Throttled)
	}
	if r.AggregateFrac < r.AggregateMin {
		t.Fatalf("QoS-on aggregate ops/s is %.1f%% of QoS-off, want ≥ %.0f%%",
			100*r.AggregateFrac, 100*r.AggregateMin)
	}
	if r.On.RebuildMs <= 0 || r.Off.RebuildMs <= 0 {
		t.Fatalf("rebuild did not complete in a contended arm: on %.1fms off %.1fms",
			r.On.RebuildMs, r.Off.RebuildMs)
	}
	// The governor must have actually defended the SLO at least once, and
	// background work must have flowed through its lane.
	if r.On.Narrows == 0 {
		t.Fatalf("governor never narrowed the background lane: %+v", r.On)
	}
	if r.On.Lanes[qos.LaneBackground].Dispatched == 0 {
		t.Fatalf("no background-lane dispatches despite a concurrent rebuild: %+v", r.On.Lanes)
	}
}

// TestE13Deterministic: two same-seed runs must render byte-identical
// tables — governor decisions, throttle counters, lane stats and all.
// The reduced scale exercises the identical code path at a fraction of
// the full experiment's runtime.
func TestE13Deterministic(t *testing.T) {
	skipIfShort(t)
	a := E13Q(1).String()
	b := E13Q(1).String()
	if a != b {
		t.Fatalf("E13 not deterministic across runs with the same seed:\n--- run 1\n%s\n--- run 2\n%s", a, b)
	}
}

// TestE14Quick checks the governor A/B acceptance claims at the reduced
// scale (the same arms CI smokes via benchrunner -only E14Q). The step
// arm must actually exhibit the halve/double pathology — SLO breaches
// after onset — and the PI arm must settle strictly faster, breach in no
// more windows, reverse actuation direction no more often, and hold the
// victim's steady-state p99 within the SLO under both load shapes,
// without starving the scrub.
func TestE14Quick(t *testing.T) {
	skipIfShort(t)
	r := runE14(1, e14Quick())

	// Premise: the aggressor genuinely breaches the SLO under both
	// governors (otherwise there is nothing to regulate).
	if r.Step.ViolationWindows == 0 || r.PI.ViolationWindows == 0 {
		t.Fatalf("step aggressor never breached the SLO (step %d, pi %d violation windows); premise broken",
			r.Step.ViolationWindows, r.PI.ViolationWindows)
	}
	// Both arms start parked at the ceiling and must actually actuate.
	for _, a := range []E14Arm{r.Step, r.PI, r.BurstStep, r.BurstPI} {
		if a.Narrows == 0 {
			t.Fatalf("%s arm never narrowed the background lane", a.Mode)
		}
	}

	// Step aggressor: faster settling, no more breaches, no more
	// oscillation, steady state within the SLO.
	if r.PI.ConvergeWindows >= r.Step.ConvergeWindows {
		t.Fatalf("PI settled in %d windows, step in %d; want strictly faster",
			r.PI.ConvergeWindows, r.Step.ConvergeWindows)
	}
	if r.PI.ViolationWindows > r.Step.ViolationWindows {
		t.Fatalf("PI breached %d windows, step %d", r.PI.ViolationWindows, r.Step.ViolationWindows)
	}
	if r.PI.Reversals > r.Step.Reversals {
		t.Fatalf("PI reversed actuation %d times, step %d", r.PI.Reversals, r.Step.Reversals)
	}
	if r.PI.SteadyP99 > r.Target {
		t.Fatalf("PI steady-state p99 %.2fms exceeds SLO %.2fms",
			r.PI.SteadyP99.Millis(), r.Target.Millis())
	}

	// Burst aggressor: pulses must not make the PI loop oscillate or
	// breach more than the step governor.
	if r.BurstPI.ConvergeWindows > r.BurstStep.ConvergeWindows {
		t.Fatalf("burst PI settled in %d windows, step in %d",
			r.BurstPI.ConvergeWindows, r.BurstStep.ConvergeWindows)
	}
	if r.BurstPI.ViolationWindows > r.BurstStep.ViolationWindows {
		t.Fatalf("burst PI breached %d windows, step %d",
			r.BurstPI.ViolationWindows, r.BurstStep.ViolationWindows)
	}
	if r.BurstPI.Reversals > r.BurstStep.Reversals {
		t.Fatalf("burst PI reversed actuation %d times, step %d",
			r.BurstPI.Reversals, r.BurstStep.Reversals)
	}
	if r.BurstPI.SteadyP99 > r.Target {
		t.Fatalf("burst PI steady-state p99 %.2fms exceeds SLO %.2fms",
			r.BurstPI.SteadyP99.Millis(), r.Target.Millis())
	}

	// The scrub must keep flowing: converging onto the setpoint should
	// not cost more than a fifth of the step governor's harvest.
	if float64(r.PI.ScrubChunks) < 0.8*float64(r.Step.ScrubChunks) {
		t.Fatalf("PI scrub harvest %d chunks vs step %d; background starved",
			r.PI.ScrubChunks, r.Step.ScrubChunks)
	}
}

// TestE14Deterministic: two same-seed runs must render byte-identical
// tables — every PI decision, weight trace glyph, and scrub count.
func TestE14Deterministic(t *testing.T) {
	skipIfShort(t)
	a := E14Q(1).String()
	b := E14Q(1).String()
	if a != b {
		t.Fatalf("E14 not deterministic across runs with the same seed:\n--- run 1\n%s\n--- run 2\n%s", a, b)
	}
}
