package controller

import (
	"errors"
	"fmt"

	"repro/internal/qos"
	"repro/internal/sim"
)

// FailBlade kills blade id: its network port goes dark, its cache contents
// (including unreplicated dirty data) are lost, and the survivors run the
// recovery protocol — replicated dirty blocks are destaged by their
// surviving holders (§6.1), then every survivor flushes and cold-starts its
// cache and directory under the new membership.
func (c *Cluster) FailBlade(p *sim.Proc, id int) error {
	return c.FailBlades(p, id)
}

// FailBlades kills several blades at the same instant — the correlated
// failure case N-way replication is sized against (§6.1): no recovery runs
// between the losses, so dirty blocks whose entire copy set died are gone.
func (c *Cluster) FailBlades(p *sim.Proc, ids ...int) error {
	var dead []int
	for _, id := range ids {
		b := c.Blade(id)
		if b == nil {
			return fmt.Errorf("controller: no blade %d", id)
		}
		if b.Down {
			continue
		}
		b.Down = true
		b.Engine.SetDown(true)
		c.Net.SetDown(b.Addr, true)
		// The dead blade's cache is gone.
		b.Engine.Cache().Clear()
		dead = append(dead, id)
	}
	if len(dead) == 0 {
		return nil
	}
	return c.recoverMembership(p, dead)
}

// recoverMembership re-forms the cluster after the blades in dead were lost.
func (c *Cluster) recoverMembership(p *sim.Proc, dead []int) error {
	alive := c.Alive()
	if len(alive) == 0 {
		return errors.New("controller: all blades down")
	}
	backing := poolBacking{c: c}
	// Step 1: survivors destage every dead blade's replicated dirty blocks.
	for _, id := range alive {
		sb := c.Blades[id]
		for _, d := range dead {
			if _, err := sb.Repl.RecoverFor(p, d, backing.WriteBlocks); err != nil {
				return err
			}
		}
	}
	// Step 2: survivors flush their own dirty data and cold-start caches
	// and directory shards under the new membership.
	for _, id := range alive {
		sb := c.Blades[id]
		sb.Engine.Recover(p, alive)
		sb.Repl.SetAlive(alive)
	}
	return nil
}

// ReviveBlade brings a previously failed blade back (empty cache) and
// re-forms membership to include it.
func (c *Cluster) ReviveBlade(p *sim.Proc, id int) error {
	b := c.Blade(id)
	if b == nil {
		return fmt.Errorf("controller: no blade %d", id)
	}
	if !b.Down {
		return nil
	}
	b.Down = false
	b.Engine.SetDown(false)
	c.Net.SetDown(b.Addr, false)
	b.stopFlusher = b.Engine.StartFlusher(c.Cfg.FlushInterval, 64)
	alive := c.Alive()
	for _, id := range alive {
		sb := c.Blades[id]
		sb.Engine.Recover(p, alive)
		sb.Repl.SetAlive(alive)
		sb.Repl.DropOwner(b.ID)
	}
	return nil
}

// RebuildComputePerChunk is the XOR/RS reconstruction CPU time a blade
// spends per rebuild chunk. With one blade this compute serializes with
// the disk I/O; spread over many blades it overlaps, which is why
// distributed rebuilds finish sooner (§2.4) until the disks themselves
// become the limit.
var RebuildComputePerChunk = 12 * sim.Millisecond

// DistributedRebuild reconstructs a failed disk of group g across the live
// blades (§2.4): rebuild chunks are a shared work queue; each live blade
// contributes one worker, and a blade that dies mid-rebuild simply stops
// taking chunks — the rest finish the queue. Returns when the rebuild
// completes.
func (c *Cluster) DistributedRebuild(p *sim.Proc, g int, diskIdx int) error {
	if g < 0 || g >= len(c.Groups) {
		return fmt.Errorf("controller: no group %d", g)
	}
	group := c.Groups[g]
	chunks, err := group.StartRebuild(diskIdx)
	if err != nil {
		return err
	}
	next := int64(0)
	var firstErr error
	grp := sim.NewGroup(c.K)
	for _, b := range c.Blades {
		b := b
		if b.Down {
			continue
		}
		grp.Add(1)
		c.K.Go(fmt.Sprintf("rebuild/blade%d", b.ID), func(q *sim.Proc) {
			defer grp.Done()
			// Rebuild is the canonical §2.4 background service: its CPU
			// charges and disk I/O compete in the background lane.
			qos.TagBackground(q)
			for {
				if b.Down || next >= chunks {
					return
				}
				chunk := next
				next++
				b.Engine.Busy(q, RebuildComputePerChunk)
				if err := group.RebuildChunk(q, diskIdx, chunk); err != nil {
					if firstErr == nil {
						firstErr = err
					}
					return
				}
			}
		})
	}
	grp.Wait(p)
	if firstErr != nil {
		return firstErr
	}
	// Chunks abandoned by blades that died mid-queue: finish them inline
	// (completed chunks return immediately).
	for chunk := int64(0); chunk < chunks && group.Rebuilding(diskIdx); chunk++ {
		if err := group.RebuildChunk(p, diskIdx, chunk); err != nil {
			return err
		}
	}
	return nil
}

// LoadPerBlade returns each blade's served-operation count — the E3
// hot-spot metric (coefficient of variation near zero = balanced).
func (c *Cluster) LoadPerBlade() []float64 {
	out := make([]float64, len(c.Blades))
	for i, b := range c.Blades {
		out[i] = float64(b.Ops)
	}
	return out
}

// CacheStats aggregates hit/miss counters across blades.
func (c *Cluster) CacheStats() (hits, misses int64) {
	for _, b := range c.Blades {
		st := b.Engine.Cache().Stats()
		hits += st.Hits
		misses += st.Misses
	}
	return
}

// DistributedScrub verifies (and repairs) parity across every RAID group,
// sharding stripe ranges over the live blades — the background maintenance
// service of §2.4 that "goes faster and does not impede active I/O rates"
// as blades are added. Returns the number of inconsistent stripes repaired.
func (c *Cluster) DistributedScrub(p *sim.Proc) (int64, error) {
	var total int64
	var firstErr error
	grp := sim.NewGroup(c.K)
	type job struct {
		g      int
		lo, hi int64
	}
	var jobs []job
	const shard = 512
	for gi, g := range c.Groups {
		for lo := int64(0); lo < g.Stripes(); lo += shard {
			hi := lo + shard
			if hi > g.Stripes() {
				hi = g.Stripes()
			}
			jobs = append(jobs, job{g: gi, lo: lo, hi: hi})
		}
	}
	next := 0
	for _, b := range c.Blades {
		b := b
		if b.Down {
			continue
		}
		grp.Add(1)
		c.K.Go(fmt.Sprintf("scrub/blade%d", b.ID), func(q *sim.Proc) {
			defer grp.Done()
			qos.TagBackground(q)
			for {
				if b.Down || next >= len(jobs) || firstErr != nil {
					return
				}
				j := jobs[next]
				next++
				b.Engine.Busy(q, RebuildComputePerChunk)
				bad, err := c.Groups[j.g].ScrubRange(q, j.lo, j.hi)
				if err != nil {
					if firstErr == nil {
						firstErr = err
					}
					return
				}
				total += bad
			}
		})
	}
	grp.Wait(p)
	return total, firstErr
}
