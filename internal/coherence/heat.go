package coherence

import (
	"math"
	"sort"

	"repro/internal/cache"
	"repro/internal/sim"
)

// HeatHalfLife is the decay half-life of the engine's per-key demand
// counters: a key that stops being requested loses half its heat every
// half-life of virtual time, so the hottest-key ranking tracks *current*
// demand, not lifetime popularity. The home-migration balancer converts
// heat into per-interval load with it.
const HeatHalfLife = 250 * sim.Millisecond

// heatSweepEvery bounds the heat map's memory: every this many touches the
// tracker sweeps out keys whose decayed count has fallen below ~half a
// request, so a shifting working set cannot grow the map without bound.
const heatSweepEvery = 4096

// KeyHeat pairs a block key with its decayed demand, as returned by
// Hottest.
type KeyHeat struct {
	Key  cache.Key
	Heat float64
}

type heatCell struct {
	v float64  // decayed count as of t
	t sim.Time // last decay instant
}

// HeatTracker keeps exponentially decayed per-key request counters in
// virtual time, bit-identical across same-seed runs. The engine counts the
// requests reaching each home; the hot-key cache tier counts client reads.
type HeatTracker struct {
	k        *sim.Kernel
	halfLife sim.Duration
	m        map[cache.Key]*heatCell
	touches  int
}

// NewHeatTracker returns a tracker whose counts halve every halfLife.
func NewHeatTracker(k *sim.Kernel, halfLife sim.Duration) *HeatTracker {
	return &HeatTracker{k: k, halfLife: halfLife, m: make(map[cache.Key]*heatCell)}
}

// decayTo folds the elapsed virtual time into the cell's counter.
func (h *HeatTracker) decayTo(c *heatCell, now sim.Time) {
	if dt := now.Sub(c.t); dt > 0 {
		c.v *= math.Exp2(-float64(dt) / float64(h.halfLife))
		c.t = now
	}
}

// Touch records one request for key now and returns its decayed count.
func (h *HeatTracker) Touch(key cache.Key) float64 {
	now := h.k.Now()
	c, ok := h.m[key]
	if !ok {
		c = &heatCell{t: now}
		h.m[key] = c
	}
	h.decayTo(c, now)
	c.v++
	h.touches++
	if h.touches >= heatSweepEvery {
		h.touches = 0
		h.sweep(now)
	}
	return c.v
}

func (h *HeatTracker) sweep(now sim.Time) {
	for k, c := range h.m {
		h.decayTo(c, now)
		if c.v < 0.5 {
			delete(h.m, k)
		}
	}
}

// Take removes key's counter and returns its decayed value — used when a
// home migrates so the heat travels with the directory entry.
func (h *HeatTracker) Take(key cache.Key) float64 {
	c, ok := h.m[key]
	if !ok {
		return 0
	}
	h.decayTo(c, h.k.Now())
	delete(h.m, key)
	return c.v
}

// Seed installs (or restores) a counter for key at value v.
func (h *HeatTracker) Seed(key cache.Key, v float64) {
	if v <= 0 {
		return
	}
	h.m[key] = &heatCell{v: v, t: h.k.Now()}
}

// Hottest returns up to n keys ordered by decayed heat (hottest first; ties
// broken by Vol then LBA so the ranking is deterministic).
func (h *HeatTracker) Hottest(n int) []KeyHeat {
	now := h.k.Now()
	out := make([]KeyHeat, 0, len(h.m))
	for k, c := range h.m {
		h.decayTo(c, now)
		if c.v < 0.5 {
			continue
		}
		out = append(out, KeyHeat{Key: k, Heat: c.v})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Heat != b.Heat {
			return a.Heat > b.Heat
		}
		if a.Key.Vol != b.Key.Vol {
			return a.Key.Vol < b.Key.Vol
		}
		return a.Key.LBA < b.Key.LBA
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// Hot counts the keys whose decayed count is at least min.
func (h *HeatTracker) Hot(min float64) int {
	now := h.k.Now()
	n := 0
	for _, c := range h.m {
		h.decayTo(c, now)
		if c.v >= min {
			n++
		}
	}
	return n
}

// Reset drops every counter (membership change: homes were rehashed).
func (h *HeatTracker) Reset() { h.m = make(map[cache.Key]*heatCell); h.touches = 0 }
