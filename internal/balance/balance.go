// Package balance closes the loop the paper sketches in §2.2/§6.3: the
// blade caches pool into one coherent cache, and "load balancing removes
// the per-controller hot-spot". PR-3's telemetry watchdog only *detects*
// per-blade load skew; this package *acts* on it. A virtual-time
// controller watches the scraper's per-blade load series and, when
// telemetry's skew test (the hot-spot watchdog's) holds for
// telemetry.DefaultSkewFor consecutive intervals, migrates the directory
// homes of the hottest blocks from the hottest blade to underloaded blades
// via the coherence layer's migrate/adopt/sethome exchange. It acts on
// exactly the intervals the watchdog's streak arms on, except that an
// idle interval resets the balancer's streak where the watchdog holds
// its own.
//
// Everything the controller reads (scrape deltas, per-key heat) and every
// order it iterates in (sorted blade IDs, heat-ranked keys with
// deterministic tie-breaks) is a pure function of virtual time and the
// seed, so two same-seed runs make byte-identical decisions.
package balance

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/metrics"
	"repro/internal/qos"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// loadPattern selects the per-blade load series; its '*' segment is the
// blade ID.
const loadPattern = "blade/*/ops"

// cooldownIntervals is how many ticks a migrated key is exempt from
// further moves. A single dominant key can overload whichever blade homes
// it; without a cooldown the controller ping-pongs it between blades
// forever instead of spreading the movable warm keys around it.
const cooldownIntervals = 20

// Config tunes the rebalance controller. It ticks once per scrape
// interval; ticks with no fresh scrape are no-ops.
type Config struct {
	// CVMax / RatioMax are the skew thresholds (defaults: see
	// telemetry.SkewThresholds): the per-interval deltas must be
	// telemetry.Skewed for telemetry.DefaultSkewFor consecutive ticks
	// before the controller migrates anything.
	CVMax    float64
	RatioMax float64
	// MaxMoves bounds home migrations per burst (default 4).
	MaxMoves int
	// MinMoveFrac is the churn floor: candidates whose estimated load is
	// below this fraction of the per-blade mean are not worth a
	// migration RPC (default 0.02). Lower it to drain skew built from
	// many medium-heat keys.
	MinMoveFrac float64
}

// Deps wires the controller into a cluster.
type Deps struct {
	K       *sim.Kernel
	Scraper *telemetry.Scraper
	// Engines holds every blade's coherence engine, indexed by blade ID
	// (management-plane inspection: heat ranking and home validation).
	Engines []*coherence.Engine
	// Alive reports the live blade IDs (sorted).
	Alive func() []int
	// Conn is the controller's own fabric endpoint; Peers are the blade
	// addresses, indexed by blade ID. Migrations are real fabric RPCs.
	Conn  *simnet.Conn
	Peers []simnet.Addr
	// Tracer, when non-nil and enabled, records one Balance-phase root
	// span per migration with the coherence exchange nested under it.
	Tracer *trace.Tracer
	// Retry is the RPC retry policy for migrate calls.
	Retry simnet.RetryPolicy
}

// Decision is one committed home migration.
type Decision struct {
	T    sim.Time
	Key  cache.Key
	From int
	To   int
	Heat float64
}

func (d Decision) String() string {
	return fmt.Sprintf("t=%.0fms %s/%d: blade%d -> blade%d (heat %.1f)",
		sim.Duration(d.T).Millis(), d.Key.Vol, d.Key.LBA, d.From, d.To, d.Heat)
}

// Stats counts controller activity.
type Stats struct {
	Ticks      int64 // ticks with a fresh scrape evaluated
	Bursts     int64 // skew episodes that triggered migrations
	Migrations int64 // homes moved
	Skipped    int64 // candidates declined by the home or failed RPCs
}

// Controller is the rebalance feedback loop.
type Controller struct {
	k        *sim.Kernel
	cfg      Config
	deps     Deps
	interval sim.Duration // the scraper's

	enabled bool
	started bool
	stopped bool
	busy    bool // a migration burst is in flight; ticks skip until done

	streak      int
	lastScrapes int64
	stats       Stats
	decisions   []Decision
	lastMoved   map[cache.Key]sim.Time
}

// New builds a controller. It starts enabled; SetEnabled(false) parks it
// (ticks still fire but evaluate nothing).
func New(cfg Config, deps Deps) *Controller {
	cfg.CVMax, cfg.RatioMax = telemetry.SkewThresholds(cfg.CVMax, cfg.RatioMax)
	if cfg.MaxMoves <= 0 {
		cfg.MaxMoves = 4
	}
	if cfg.MinMoveFrac <= 0 {
		cfg.MinMoveFrac = 0.02
	}
	return &Controller{k: deps.K, cfg: cfg, deps: deps, interval: deps.Scraper.Interval(),
		enabled: true, lastMoved: make(map[cache.Key]sim.Time)}
}

// SetEnabled turns the feedback loop on or off; disabling also resets the
// skew streak so re-enabling requires fresh evidence.
func (c *Controller) SetEnabled(on bool) {
	c.enabled = on
	if !on {
		c.streak = 0
	}
}

// Stats returns a copy of the counters.
func (c *Controller) Stats() Stats { return c.stats }

// Decisions returns the committed migration log in decision order.
func (c *Controller) Decisions() []Decision {
	return append([]Decision(nil), c.decisions...)
}

// RegisterTelemetry publishes the controller's counters under s.
func (c *Controller) RegisterTelemetry(s telemetry.Scope) {
	s.Int("ticks", func() int64 { return c.stats.Ticks })
	s.Int("bursts", func() int64 { return c.stats.Bursts })
	s.Int("migrations", func() int64 { return c.stats.Migrations })
	s.Int("skipped", func() int64 { return c.stats.Skipped })
}

// Start schedules the periodic tick (first tick one interval from now) and
// returns a stop function.
func (c *Controller) Start() (stop func()) {
	if c.started {
		panic("balance: controller already started")
	}
	c.started = true
	c.stopped = false
	var tick func()
	tick = func() {
		if c.stopped {
			return
		}
		c.k.Go("balance", func(p *sim.Proc) {
			// Home migration is a storage service; its fabric and disk
			// work rides the background QoS lane.
			qos.TagBackground(p)
			c.tick(p)
		})
		c.k.After(c.interval, tick)
	}
	c.k.After(c.interval, tick)
	return func() {
		c.stopped = true
		c.started = false
	}
}

// bladeFromName extracts the blade ID occupying loadPattern's '*' segment
// ("blade/3/ops" → 3). Returns -1 when the name does not carry an ID
// there.
func bladeFromName(name string) int {
	ps := strings.Split(loadPattern, "/")
	ns := strings.Split(name, "/")
	if len(ps) != len(ns) {
		return -1
	}
	for i, seg := range ps {
		if seg == "*" {
			if id, err := strconv.Atoi(ns[i]); err == nil {
				return id
			}
			return -1
		}
	}
	return -1
}

// loads returns the last inter-scrape delta of the matched series per live
// blade, in sorted blade-ID order.
func (c *Controller) loads() (ids []int, deltas []float64) {
	scr := c.deps.Scraper
	aliveSet := make(map[int]bool)
	for _, b := range c.deps.Alive() {
		aliveSet[b] = true
	}
	byBlade := make(map[int]float64)
	for _, name := range scr.Registry().Match(loadPattern) {
		id := bladeFromName(name)
		if id < 0 || !aliveSet[id] {
			continue
		}
		s := scr.Series(name)
		if len(s) < 2 {
			continue
		}
		byBlade[id] += s[len(s)-1] - s[len(s)-2]
	}
	for id := range byBlade {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		deltas = append(deltas, byBlade[id])
	}
	return ids, deltas
}

// tick evaluates one control interval.
func (c *Controller) tick(p *sim.Proc) {
	if !c.enabled || c.busy {
		return
	}
	scr := c.deps.Scraper
	n := scr.Scrapes()
	if n < 2 || n == c.lastScrapes {
		return // no fresh delta to act on
	}
	c.lastScrapes = n
	c.stats.Ticks++

	ids, deltas := c.loads()
	if len(ids) < 2 {
		c.streak = 0
		return // one blade cannot be imbalanced
	}
	st := metrics.Summarize(deltas)
	if !c.skewStep(st) {
		return
	}
	// Sustained skew: pick the hottest blade as the source and spread its
	// hottest homes across the blades running below the mean.
	src, srcLoad := ids[0], deltas[0]
	for i, id := range ids {
		if deltas[i] > srcLoad {
			src, srcLoad = id, deltas[i]
		}
	}
	var targets []coldBlade
	for i, id := range ids {
		if id != src && deltas[i] < st.Mean {
			targets = append(targets, coldBlade{id, deltas[i]})
		}
	}
	sort.Slice(targets, func(i, j int) bool {
		if targets[i].load != targets[j].load {
			return targets[i].load < targets[j].load
		}
		return targets[i].id < targets[j].id
	})
	if len(targets) == 0 || src >= len(c.deps.Engines) {
		c.streak = 0
		return
	}
	now := c.k.Now()
	c.pruneCooldowns(now)
	cands := c.deps.Engines[src].HottestHomes(c.cfg.MaxMoves * 4)
	plan := planMoves(c.cfg, c.interval, now, c.lastMoved, cands, targets, st.Mean, srcLoad)
	if len(plan) == 0 {
		c.streak = 0
		return
	}
	c.stats.Bursts++
	c.busy = true
	c.k.Go("balance-migrate", func(q *sim.Proc) {
		defer func() { c.busy = false }()
		for _, m := range plan {
			c.migrate(q, m.cand, src, m.to)
		}
		// Re-arm only after DefaultSkewFor more skewed intervals: the
		// moves need a full interval to show up in the load series.
		c.streak = 0
	})
}

// skewStep feeds one judged interval's load summary to the balancer's
// streak and reports whether it arms a burst: telemetry.Skewed for
// telemetry.DefaultSkewFor consecutive intervals. Unlike the hot-spot
// watchdog, which holds its streak over an idle interval, the balancer
// resets it there: an idle cluster has nothing to move.
func (c *Controller) skewStep(st metrics.Stats) bool {
	if idle, skewed := telemetry.Skewed(st, c.cfg.CVMax, c.cfg.RatioMax); idle || !skewed {
		c.streak = 0
		return false
	}
	c.streak++
	return c.streak >= telemetry.DefaultSkewFor
}

// coldBlade is a migration target with its projected load.
type coldBlade struct {
	id   int
	load float64
}

// move is one planned home migration.
type move struct {
	cand coherence.KeyHeat
	to   int
}

// planMoves plans one migration burst: hand each candidate (heat-
// descending order expected) to the coldest projected target, stop once
// the source is projected at the mean, and drop tail keys whose move
// would not measurably shift load. It is a pure function of its inputs —
// no engine, clock, or fabric access — so regression tests can pin an
// exact schedule. targets' projected loads are updated in place.
func planMoves(cfg Config, interval sim.Duration, now sim.Time, lastMoved map[cache.Key]sim.Time,
	cands []coherence.KeyHeat, targets []coldBlade, mean, srcLoad float64) []move {
	// A key's decayed heat (coherence.HeatHalfLife), scaled to the scrape
	// interval, estimates the load its home carries per interval.
	scale := math.Ln2 * float64(interval) / float64(coherence.HeatHalfLife)
	cooldown := cooldownIntervals * interval
	srcProj := srcLoad
	var plan []move
	for _, cand := range cands {
		if len(plan) >= cfg.MaxMoves || srcProj <= mean {
			break
		}
		if t, ok := lastMoved[cand.Key]; ok && now.Sub(t) < cooldown {
			continue // recently moved: spread the movable keys around it
		}
		est := cand.Heat * scale
		if est <= cfg.MinMoveFrac*mean {
			// Heat-descending order: the rest is tail churn. The floor is
			// exclusive — a key whose heat has decayed to exactly the
			// churn floor is already indistinguishable from tail noise,
			// and re-planning it every tick just ping-pongs a cold home.
			break
		}
		best := -1
		for i := range targets {
			if best < 0 || targets[i].load < targets[best].load {
				best = i
			}
		}
		if targets[best].load+est > mean+0.5*est {
			// No target can absorb this key without becoming the next hot
			// spot. In particular a single dominant key whose load exceeds
			// the fair share stays pinned wherever it is — migrating it
			// would only relocate the bottleneck — and the controller
			// spreads the movable warm keys around it instead.
			continue
		}
		plan = append(plan, move{cand, targets[best].id})
		targets[best].load += est
		srcProj -= est
	}
	return plan
}

// pruneCooldowns drops lastMoved entries whose cooldown has fully
// elapsed: they can no longer affect planning, and without pruning the
// map grows with every key ever migrated.
func (c *Controller) pruneCooldowns(now sim.Time) {
	for k, t := range c.lastMoved {
		if now.Sub(t) >= cooldownIntervals*c.interval {
			delete(c.lastMoved, k)
		}
	}
}

// migrate commits one home move via the coherence protocol, under a
// Balance-phase trace span.
func (c *Controller) migrate(p *sim.Proc, cand coherence.KeyHeat, from, to int) {
	var sp *trace.Active
	if c.deps.Tracer.Enabled() {
		sp = c.deps.Tracer.StartTrace("migrate", trace.Balance, "balancer").
			Detail("%s/%d blade%d->blade%d heat=%.1f", cand.Key.Vol, cand.Key.LBA, from, to, cand.Heat)
		defer sp.End()
		defer sp.Push(p)()
	}
	moved, err := coherence.RequestMigrate(p, c.deps.Conn, c.deps.Peers[from], cand.Key, to, c.deps.Retry)
	if err != nil || !moved {
		c.stats.Skipped++
		return
	}
	c.stats.Migrations++
	c.lastMoved[cand.Key] = p.Now()
	c.decisions = append(c.decisions, Decision{T: p.Now(), Key: cand.Key, From: from, To: to, Heat: cand.Heat})
}

// Status is the one-line state summary yottactl prints: the switch, the
// thresholds it acts on, the counters.
func (c *Controller) Status() string {
	return fmt.Sprintf("balance: enabled=%v interval=%v thresholds CV>%.2f max/mean>%.2f for %d intervals, ticks=%d bursts=%d migrations=%d skipped=%d",
		c.enabled, c.interval, c.cfg.CVMax, c.cfg.RatioMax, telemetry.DefaultSkewFor, c.stats.Ticks, c.stats.Bursts, c.stats.Migrations, c.stats.Skipped)
}

// Report renders the decision log plus counters for CLI status output.
func (c *Controller) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", c.Status())
	for _, d := range c.decisions {
		fmt.Fprintf(&b, "  %s\n", d)
	}
	return strings.TrimRight(b.String(), "\n")
}
