package hotcache

import (
	"fmt"
	"sort"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/telemetry"
)

// Wire sizes, matching the coherence plane's conventions.
const ctrlSize = 64

func batchSize(n int) int { return ctrlSize + 16*n }

// Config tunes the cache tier.
type Config struct {
	// BlocksPerNode is each blade's cache-node capacity (default 512).
	BlocksPerNode int
	// HotMin is the decayed read rate above which a key is considered
	// hot and eligible for cache routing (default 8). Cold keys go
	// straight to their home: caching the long tail would just churn
	// the small stores and pay invalidation RPCs for nothing.
	HotMin float64
	// HeatHalfLife is the decay half-life of the per-key read counters
	// (default 250ms). Shorter tracks a shifting hot set faster.
	HeatHalfLife sim.Duration
	// OpDelay is the CPU charge for a cache-node hit (default 10µs).
	OpDelay sim.Duration
}

func (c Config) withDefaults() Config {
	if c.BlocksPerNode <= 0 {
		c.BlocksPerNode = 512
	}
	if c.HotMin <= 0 {
		c.HotMin = 8
	}
	if c.HeatHalfLife <= 0 {
		c.HeatHalfLife = 250 * sim.Millisecond
	}
	if c.OpDelay <= 0 {
		c.OpDelay = 10 * sim.Microsecond
	}
	return c
}

// Deps wires the tier into a cluster.
type Deps struct {
	K *sim.Kernel
	// Engines[i], Conns[i], Peers[i] describe blade i. The tier
	// registers its invalidation handler on every Conn and installs the
	// exclusive-grant hook on every Engine.
	Engines []*coherence.Engine
	Conns   []*simnet.Conn
	Peers   []simnet.Addr
	// Retry bounds the write-through invalidation RPCs.
	Retry simnet.RetryPolicy
	// Down, if set, reports whether a blade is out of service; routing
	// then falls back to the key's home.
	Down func(blade int) bool
}

// TierStats counts routing and invalidation activity.
type TierStats struct {
	RoutedCache int64 // hot reads sent to the key's cache node
	RoutedHome  int64 // hot reads sent home (po2c picked the home)
	RoutedCold  int64 // reads below the heat threshold
	Invals      int64 // exclusive grants that invalidated the tier
	InvalKeys   int64 // keys invalidated across those grants
}

// hcInvReq is the write-through invalidation RPC ("hc.invb").
type hcInvReq struct{ Keys []cache.Key }

type hcInvResp struct{}

// Tier is the upper cache layer: one Node per blade plus the routing and
// invalidation logic that ties them to the coherence plane.
type Tier struct {
	cfg   Config
	deps  Deps
	nodes []*Node

	enabled bool
	heat    *coherence.HeatTracker

	// inflight[b] counts ops currently dispatched to blade b by this
	// tier's clients — the load signal for the two-choice routing.
	inflight []int

	// mayCache marks keys that were ever routed toward a cache node
	// while the tier was enabled. The exclusive-grant hook skips the
	// invalidation fan-out for unmarked keys, so writes to never-cached
	// keys stay free. Marks are set BEFORE Route returns (so no fill can
	// start unmarked) and are only cleared wholesale on disable, after
	// the generation bump has aborted every in-flight fill — clearing a
	// single mark while enabled could race a concurrent re-mark.
	mayCache map[cache.Key]struct{}

	stats TierStats
}

// New builds the tier, registers the "hc.invb" handler on every blade's
// connection, and installs the exclusive-grant hook on every engine. The
// tier starts disabled; SetEnabled(true) arms the routing.
func New(cfg Config, deps Deps) *Tier {
	cfg = cfg.withDefaults()
	t := &Tier{
		cfg:      cfg,
		deps:     deps,
		nodes:    make([]*Node, len(deps.Engines)),
		heat:     coherence.NewHeatTracker(deps.K, cfg.HeatHalfLife),
		inflight: make([]int, len(deps.Engines)),
		mayCache: make(map[cache.Key]struct{}),
	}
	for i, e := range deps.Engines {
		i, e := i, e
		t.nodes[i] = newNode(i, e, cfg.BlocksPerNode, cfg.OpDelay)
		deps.Conns[i].Register("hc.invb", func(p *sim.Proc, from simnet.Addr, args any) (any, int) {
			req := args.(hcInvReq)
			t.nodes[i].Invalidate(req.Keys)
			return hcInvResp{}, ctrlSize
		})
		// The hook fires on the WRITER blade — e (blade i) — after its
		// Modified copy is installed and before the write acks, so the
		// invalidation fan-out uses that blade's connection.
		e.SetWriteThroughHook(func(p *sim.Proc, keys []cache.Key) {
			t.writeThrough(p, i, keys)
		})
	}
	return t
}

// Node returns blade i's cache node.
func (t *Tier) Node(i int) *Node { return t.nodes[i] }

// Stats returns a copy of the tier's routing counters.
func (t *Tier) Stats() TierStats { return t.stats }

// Route decides where a READ of key should go, given its directory home.
// It returns the blade to dispatch to and whether the dispatch is a
// cache-node read (Node.Read) rather than a plain home read. Only call
// Route for reads — it feeds the heat tracker, and writes must always go
// home anyway.
func (t *Tier) Route(key cache.Key, home int) (blade int, viaCache bool) {
	if !t.enabled {
		return home, false
	}
	if t.heat.Touch(key) < t.cfg.HotMin {
		t.stats.RoutedCold++
		return home, false
	}
	cb := CacheBlade(key, len(t.nodes))
	if t.deps.Down != nil && t.deps.Down(cb) {
		t.stats.RoutedHome++
		return home, false
	}
	blade, viaCache = routeChoice(cb, home, t.inflight[cb], t.inflight[home])
	if !viaCache {
		t.stats.RoutedHome++
		return home, false
	}
	// Mark before returning: once the caller may issue a cache-node
	// read (and thus a fill), every exclusive grant for the key must
	// fan out to the tier.
	t.mayCache[key] = struct{}{}
	t.stats.RoutedCache++
	return blade, true
}

// routeChoice is the pure power-of-two-choices decision between a key's
// two layers: its cache node (upper) and its directory home (lower),
// compared on outstanding-op counts. Ties go to the cache node — it
// serves from memory and spreads load off the home. When the two hashes
// collide on one blade there is no second choice and the read goes home
// plain (a cache copy there would spread nothing). viaCache is true iff
// the chosen blade is the key's cache node, never its home — the
// invariant FuzzHotcacheRouting pounds on.
func routeChoice(cb, home, inflightCB, inflightHome int) (blade int, viaCache bool) {
	if cb == home {
		return home, false
	}
	if inflightCB <= inflightHome {
		return cb, true
	}
	return home, false
}

// OpStart records an op dispatched to blade and returns its completion
// callback. Call it for every client op — reads and writes, routed or
// not — so the two-choice load signal sees the whole picture.
func (t *Tier) OpStart(blade int) (done func()) {
	if blade < 0 || blade >= len(t.inflight) {
		return func() {}
	}
	t.inflight[blade]++
	return func() { t.inflight[blade]-- }
}

// writeThrough is the write-through hook body: invalidate the cache
// copies of every marked key after the writer installed its Modified
// copy and before the write acks. It runs on the writer blade (self),
// outside any directory mutex; by the time the writer's client sees the
// ack, no tier node holds bytes the write superseded, and any in-flight
// fill that snapshotted its epoch earlier will abort its install.
func (t *Tier) writeThrough(p *sim.Proc, self int, keys []cache.Key) {
	var marked []cache.Key
	for _, k := range keys {
		if _, ok := t.mayCache[k]; ok {
			marked = append(marked, k)
		}
	}
	if len(marked) == 0 {
		return
	}
	t.stats.Invals++
	t.stats.InvalKeys += int64(len(marked))

	groups := make(map[int][]cache.Key)
	for _, k := range marked {
		cb := CacheBlade(k, len(t.nodes))
		groups[cb] = append(groups[cb], k)
	}
	// The writer's own shard is invalidated in place — no RPC.
	if g, ok := groups[self]; ok {
		t.nodes[self].Invalidate(g)
		delete(groups, self)
	}
	if len(groups) == 0 {
		return
	}
	blades := make([]int, 0, len(groups))
	for b := range groups {
		blades = append(blades, b)
	}
	sort.Ints(blades) // deterministic fan-out order
	conn := t.deps.Conns[self]
	if len(blades) == 1 {
		b := blades[0]
		conn.CallRetry(p, t.deps.Peers[b], "hc.invb", hcInvReq{Keys: groups[b]}, batchSize(len(groups[b])), t.deps.Retry)
		return
	}
	grp := sim.NewGroup(t.deps.K)
	for _, b := range blades {
		b := b
		grp.Add(1)
		t.deps.K.Go("hcinv", func(q *sim.Proc) {
			defer grp.Done()
			conn.CallRetry(q, t.deps.Peers[b], "hc.invb", hcInvReq{Keys: groups[b]}, batchSize(len(groups[b])), t.deps.Retry)
		})
	}
	grp.Wait(p)
}

// SetEnabled arms or disarms the tier. Disabling clears every node (the
// generation bump aborts in-flight fills), drops the heat state, and
// forgets the mark set — the cluster reverts to plain home routing with
// write-through fan-out reduced to zero.
func (t *Tier) SetEnabled(on bool) {
	if t.enabled == on {
		return
	}
	t.enabled = on
	if !on {
		for _, n := range t.nodes {
			n.clear()
		}
		t.heat.Reset()
		t.mayCache = make(map[cache.Key]struct{})
	}
}

// RegisterTelemetry publishes the tier's gauges under s: per-layer
// routing counters at the top and per-node hit/fill/occupancy below.
func (t *Tier) RegisterTelemetry(s telemetry.Scope) {
	s.Func("enabled", func() float64 {
		if t.enabled {
			return 1
		}
		return 0
	})
	s.Int("routed_cache", func() int64 { return t.stats.RoutedCache })
	s.Int("routed_home", func() int64 { return t.stats.RoutedHome })
	s.Int("routed_cold", func() int64 { return t.stats.RoutedCold })
	s.Int("invals", func() int64 { return t.stats.Invals })
	s.Int("inval_keys", func() int64 { return t.stats.InvalKeys })
	for i, n := range t.nodes {
		n := n
		ns := s.Sub(fmt.Sprintf("node%d", i))
		ns.Int("hits", func() int64 { return n.stats.Hits })
		ns.Int("misses", func() int64 { return n.stats.Misses })
		ns.Int("fills", func() int64 { return n.stats.Fills })
		ns.Int("fill_aborts", func() int64 { return n.stats.FillAborts })
		ns.Int("invalidations", func() int64 { return n.stats.Invalidations })
		ns.Func("occupancy", n.Occupancy)
	}
}
