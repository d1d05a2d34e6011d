package experiments

import (
	"math/rand"

	"repro/internal/balance"
	"repro/internal/controller"
	"repro/internal/hotcache"
	"repro/internal/lab"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// E15 — rebalancing schemes raced against the speed of the heat. E12
// established that home migration drains a *stationary* hot spot; E15 asks
// what happens when the hot set itself moves. Three workloads (uniform;
// static Zipf; shifting Zipf whose hot set rotates every few dozen ops
// per client) cross three rebalancing schemes (off; home migration; the
// DistCache-style hot-key cache tier) under one seed:
//
// The metric both regimes are judged on is the windowed load CV (one
// window per rotation period of ops — see the sampler below), because
// raw ops/s barely separates the schemes here: the pooled blade cache
// (E3) already absorbs the *read* hot spot once warm, so what a
// rebalancing scheme buys on this workload is sustained load headroom
// and the op tail, not throughput. Every arm warms identically — an
// earlier version warmed the migrate arm twice as long "so the loop
// could converge", and that alone tripled its measured ops/s (the
// measured window replays the warmed sequence), a confound this
// experiment exists to avoid.
//
//   - On STATIC skew, migration wins sustained balance: it converges to
//     a stable home assignment, so every window sees the same even
//     spread (windowed CV ≈ aggregate CV). The cache tier's
//     power-of-two-choices routing re-decides per op from instantaneous
//     load, and that oscillation shows up as window-to-window jitter —
//     its windowed CV sits well above its own aggregate CV.
//   - On FAST-SHIFTING skew, the cache tier wins where its mechanism
//     says it should — instantaneous load spread and the op tail. By the
//     time the balancer has observed (For scrape intervals), planned,
//     and migrated a hot home, that key has already gone cold, so every
//     move is churn that lands late (its op p99 degrades to or below the
//     do-nothing arm); a cache node fills in one miss and tracks the
//     heat at read speed.
//
// Acceptance (checked by the E15 tests): the crossover holds on windowed
// load CV (migrate < hotcache on static, hotcache < migrate on
// shifting), the cache tier also beats migration's aggregate CV on
// shifting with an op p99 no more than one histogram bucket above
// migration's, neither winner costs throughput (static migrate within
// 5% of its off arm and ≥90% of uniform; shifting hotcache within 5% of
// its off arm), and two same-seed runs render byte-identical tables.
//
// Two things the shifting arms are NOT held to, and why. (1) A strict
// p99 order: the three shifting arms' p99s are edges of adjacent
// 7%-wide histogram buckets (70.06 / 74.96 / 80.21 ms), and which arm
// lands on which edge has changed with every PR that moved destage
// timing (PR 18: hotcache tied migrate at 80.21; destage in runs:
// migrate 70.06, hotcache 74.96, off 80.21) — the claim is that the tier
// does not lengthen the tail, and one bucket is the resolution it can be
// read at. (2) Any fraction of the uniform arm's ops/s: uniform is a
// different workload, not a comparator for a scheme. Its dirty blocks
// destage as runs (19,716 → 27,825 ops/s when the flusher began to
// coalesce), while a hot set that rotates every 32 ops leaves the
// shifting arms' destages phase-concentrated and their throughput where
// it was (≈ 15 k ops/s, all three schemes); an earlier 75%-of-uniform
// floor measured that difference between workloads, not the tier.

// e15WriteFrac is the write fraction every E15 arm runs (including the
// uniform baseline, for comparability): enough write traffic that the
// cache tier's write-through invalidations are a real cost, not so much
// that read absorption stops mattering. The regime is read-mostly on
// purpose — it is DistCache's regime, and with heavier write mixes a
// hot key's cached copy dies (write-through) after only a handful of
// reads, so neither scheme has much to cache or absorb.
const e15WriteFrac = 0.05

// e15Rotate/e15Stride shape the shifting workload: each client's hot set
// rotates every e15Rotate of its own ops — roughly 100ms of closed-loop
// operation, well inside the balancer's observe-then-act loop (scrape
// ×For, then a plan interval, then the migration drain) —
// displacing the rank→block mapping by the prime e15Stride. The
// rotation clock is op-coupled on purpose: the better a scheme serves
// the hot set, the faster the heat moves, so no fixed-period controller
// can get ahead of it.
const (
	e15Rotate = 32
	e15Stride = 2999
)

// e15Scale sizes one E15 evaluation; E15 and E15Q share the code path,
// and E12 runs at the full scale.
type e15Scale struct {
	blades  int
	clients int
	ws      int64
	warm    sim.Duration // identical for every arm — see e15Arm
	dur     sim.Duration
}

func e15FullScale() e15Scale {
	return e15Scale{blades: 8, clients: 32, ws: 8 << 10, warm: 4 * sim.Second, dur: 2 * sim.Second}
}

func e15QuickScale() e15Scale {
	return e15Scale{blades: 4, clients: 12, ws: 2 << 10, warm: 2 * sim.Second, dur: 1 * sim.Second}
}

// E15Run is one arm's measured window.
type E15Run struct {
	OpsPerSec float64
	MBps      float64
	CV        float64
	Ratio     float64
	// WinCV is the mean of windowed load CVs, one window per rotation
	// period of ops (see the sampler in e15Arm for why windows are
	// op-counted, not wall-time). Under fast-moving heat it is the honest
	// balance metric: over the whole measured window every blade hosts
	// hot phases about equally often, so the aggregate CV washes out
	// exactly the instantaneous imbalance that queues ops — which the
	// windowed CV still sees.
	WinCV    float64
	P50, P99 sim.Duration

	// Scheme-specific activity, zero for arms without that scheme.
	Migrations int64 // migrate: homes moved during the whole run
	Skipped    int64 // migrate: moves the balancer declined
	Decisions  []balance.Decision
	CacheHits  int64 // hotcache: upper-layer hits in the whole run
	CacheFills int64
	Invals     int64 // hotcache: write-through key invalidations
}

// E15Result carries all seven arms.
type E15Result struct {
	Uniform E15Run // uniform × off: the baseline

	StaticOff, StaticMigrate, StaticHotCache E15Run
	ShiftOff, ShiftMigrate, ShiftHotCache    E15Run
}

// e15Workload names one of the three workload shapes.
type e15Workload int

const (
	e15Uniform e15Workload = iota
	e15StaticZipf
	e15ShiftZipf
)

// e15Arm runs one (workload, scheme) arm at write fraction writeFrac on a
// fresh lab and returns its measured window and its scraper, whose
// hot-spot watchdog warns on the skew thresholds the balancer acts on.
// E12 is this arm at write fraction 0.
func e15Arm(seed int64, sc e15Scale, wl e15Workload, scheme string, writeFrac float64) (E15Run, *telemetry.Scraper) {
	cfg := clusterConfig(sc.blades)
	// Two extra CPU slots per blade over the shared shape: the static-path
	// hot blade (~26% of the load) still saturates, but a converged
	// balanced run — the dominant key's fair-share-plus (~15%) on one
	// blade — fits with headroom, so throughput can actually recover.
	cfg.CPUSlots = 6
	l := lab.New(seed, cfg, "v", sc.ws)
	defer l.Close()
	c := l.C

	// Single-block ops: one op == one block == one directory key, so the
	// per-key heat the balancer plans with is exactly the per-blade load
	// the ops land (multi-block ops would smear one op's load across keys
	// homed on other blades), for both schemes.
	pat := func(cl int) workload.Pattern {
		// Each client's value stream is bound at construction to its own
		// deterministic source (see workload.NewZipf).
		src := rand.New(rand.NewSource(seed*1009 + int64(cl) + 1))
		switch wl {
		case e15StaticZipf:
			return workload.NewZipf(src, sc.ws, 1.1, 1, writeFrac)
		case e15ShiftZipf:
			return workload.NewShiftingZipf(src, sc.ws, 1.1, 1, writeFrac, e15Rotate, e15Stride)
		default:
			return workload.Uniform{Range: sc.ws, Blocks: 1, WriteFrac: writeFrac}
		}
	}

	scr := telemetry.NewScraper(l.K, c.Reg, 100*sim.Millisecond)
	scr.AddWatchdog(&telemetry.HotSpot{Pattern: "blade/*/ops", CVMax: e12CVMax, RatioMax: e12RatioMax})
	scr.Start()

	// SAN hosts with static paths: each op goes to the blade that homes it.
	l.Target.Pick = func(lba int64) *controller.Blade { return c.HomeBlade("v", lba) }
	var bal *balance.Controller
	var tier *hotcache.Tier
	switch scheme {
	case "migrate":
		bal = c.NewBalancer(scr, balance.Config{
			CVMax:    e12CVMax,
			RatioMax: e12RatioMax,
			MaxMoves: 16,
			// The Zipf skew is built from dozens of medium-heat keys
			// around one dominant one; reach deep into the movable tail.
			MinMoveFrac: 0.005,
		})
		bal.Start()
	case "hotcache":
		// Tuned for fast rotation: the half-life is below the default.
		// With ~200ms hot phases, a 250ms half-life keeps last phase's
		// keys "hot" (and their reads routed at a cache node that can
		// only miss) for most of the next phase. The tier's hot threshold
		// is 8, so at this half-life a key must sustain a read rate of
		// ~8×7 ≈ 55/s to stay eligible: the tier takes the Zipf head and
		// leaves the queue-burst tail to the homes.
		tier = c.NewHotCache(hotcache.Config{HeatHalfLife: 100 * sim.Millisecond})
		l.Target.ReadVia = tier
	}

	// Every arm warms for the same duration. The warm length is sized for
	// the slowest-converging scheme (migration's observe-plan-drain loop)
	// but giving only that arm extra warm would confound the comparison:
	// the measured window replays the same seeded sequence, so extra warm
	// alone inflates an arm's cache hit rate regardless of scheme.
	l.Run(sc.clients, sc.warm, pat)

	snapshot := func() []float64 {
		cur := make([]float64, sc.blades)
		for i, b := range c.Blades {
			cur[i] = float64(b.Ops)
		}
		return cur
	}
	before := snapshot()
	// Windowed load sampler. Windows are one rotation period of OPS
	// (e15Rotate per client), not a fixed wall-time slice: the rotation
	// clock is op-coupled, so a fixed-ms window would cover more phases
	// for a faster arm (averaging its imbalance away) and hold more ops
	// (lowering its multinomial sampling-noise floor, ~sqrt(blades/N)).
	// Equal-op windows compare every arm at the same workload position
	// with the same noise floor. The sampler polls on a fine tick and the
	// aggregation below closes a window whenever a period's worth of ops
	// has completed since the last boundary.
	const samplerTick = 5 * sim.Millisecond
	var snaps [][]float64
	l.K.Go("e15-sampler", func(p *sim.Proc) {
		for i := 0; i < int(sc.dur/samplerTick)-1; i++ {
			p.Sleep(samplerTick)
			snaps = append(snaps, snapshot())
		}
	})
	r := l.Run(sc.clients, sc.dur, pat)
	snaps = append(snaps, snapshot())

	deltas := make([]float64, sc.blades)
	for i, b := range c.Blades {
		deltas[i] = float64(b.Ops) - before[i]
	}
	st := metrics.Summarize(deltas)
	winOps := float64(e15Rotate * sc.clients)
	var winSum float64
	var wins int
	prev := before
	for _, s := range snaps {
		var total float64
		for i := range s {
			total += s[i] - prev[i]
		}
		if total < winOps {
			continue // window still filling
		}
		d := make([]float64, sc.blades)
		for i := range d {
			d[i] = s[i] - prev[i]
		}
		if w := metrics.Summarize(d); w.Mean > 0 {
			winSum += w.CV()
			wins++
		}
		prev = s
	}
	run := E15Run{
		OpsPerSec: float64(r.Ops) / sc.dur.Seconds(),
		MBps:      r.Bytes.MBps(),
		CV:        st.CV(),
		P50:       r.Latency.P50(),
		P99:       r.Latency.Quantile(0.99),
	}
	if wins > 0 {
		run.WinCV = winSum / float64(wins)
	}
	if st.Mean > 0 {
		run.Ratio = st.Max / st.Mean
	}
	if bal != nil {
		run.Migrations = bal.Stats().Migrations
		run.Skipped = bal.Stats().Skipped
		run.Decisions = bal.Decisions()
	}
	if tier != nil {
		for i := 0; i < sc.blades; i++ {
			s := tier.Node(i).Stats()
			run.CacheHits += s.Hits
			run.CacheFills += s.Fills
		}
		run.Invals = tier.Stats().InvalKeys
	}
	return run, scr
}

// runE15 executes the seven arms at the given scale under one seed.
func runE15(seed int64, sc e15Scale) E15Result {
	arm := func(wl e15Workload, scheme string) E15Run {
		run, _ := e15Arm(seed, sc, wl, scheme, e15WriteFrac)
		return run
	}
	return E15Result{
		Uniform:        arm(e15Uniform, "off"),
		StaticOff:      arm(e15StaticZipf, "off"),
		StaticMigrate:  arm(e15StaticZipf, "migrate"),
		StaticHotCache: arm(e15StaticZipf, "hotcache"),
		ShiftOff:       arm(e15ShiftZipf, "off"),
		ShiftMigrate:   arm(e15ShiftZipf, "migrate"),
		ShiftHotCache:  arm(e15ShiftZipf, "hotcache"),
	}
}

// E15 renders the experiment table.
func E15(seed int64) *metrics.Table { return e15Table(runE15(seed, e15FullScale()), "E15") }

// E15Q renders the reduced-scale table (CI smoke).
func E15Q(seed int64) *metrics.Table { return e15Table(runE15(seed, e15QuickScale()), "E15Q") }

func e15Table(r E15Result, name string) *metrics.Table {
	tab := metrics.NewTable(name+" — hot-key cache tier vs home migration under shifting Zipf skew",
		"workload", "scheme", "ops/s", "MB/s", "load CV", "win CV", "max/mean", "p50 ms", "p99 ms")
	row := func(wl, scheme string, run E15Run) {
		tab.AddRow(wl, scheme, int64(run.OpsPerSec), fmtF(run.MBps), fmtF(run.CV), fmtF(run.WinCV),
			fmtF(run.Ratio), fmtDur(run.P50), fmtDur(run.P99))
	}
	row("uniform", "off", r.Uniform)
	row("zipf s=1.1", "off", r.StaticOff)
	row("zipf s=1.1", "migrate", r.StaticMigrate)
	row("zipf s=1.1", "hotcache", r.StaticHotCache)
	row("shifting zipf", "off", r.ShiftOff)
	row("shifting zipf", "migrate", r.ShiftMigrate)
	row("shifting zipf", "hotcache", r.ShiftHotCache)
	tab.AddNote("shifting: hot set rotates every %d ops/client (stride %d); write fraction %s everywhere",
		e15Rotate, e15Stride, fmtF(e15WriteFrac))
	tab.AddNote("static regime: migrate moved %d homes, reaching %s%% of uniform ops/s (hotcache arm: %s%%)",
		r.StaticMigrate.Migrations,
		fmtF(100*r.StaticMigrate.OpsPerSec/r.Uniform.OpsPerSec),
		fmtF(100*r.StaticHotCache.OpsPerSec/r.Uniform.OpsPerSec))
	tab.AddNote("shifting regime: hotcache served %d upper-layer hits (%d fills, %d write-through invals), reaching %s%% of uniform ops/s (migrate arm: %s%%, %d homes moved)",
		r.ShiftHotCache.CacheHits, r.ShiftHotCache.CacheFills, r.ShiftHotCache.Invals,
		fmtF(100*r.ShiftHotCache.OpsPerSec/r.Uniform.OpsPerSec),
		fmtF(100*r.ShiftMigrate.OpsPerSec/r.Uniform.OpsPerSec),
		r.ShiftMigrate.Migrations)
	return tab
}
