package coherence

import (
	"sort"

	"repro/internal/cache"
	"repro/internal/qos"
	"repro/internal/sim"
)

// FlushOnce destages up to max dirty blocks (all if max ≤ 0), returning the
// number written back. Destages are issued concurrently (bounded) so the
// drain rate tracks the disk array, not a single operation's latency.
func (e *Engine) FlushOnce(p *sim.Proc, max int) int {
	dirty := e.cache.DirtyEntries()
	if len(dirty) == 0 {
		return 0
	}
	n := 0
	grp := sim.NewGroup(e.k)
	inFlight := sim.NewSemaphore(e.k, 16)
	for _, ent := range dirty {
		if max > 0 && n >= max {
			break
		}
		if ent.Pinned || !ent.Dirty {
			continue
		}
		ent := ent
		e.pin(ent)
		ver := ent.Version
		n++
		grp.Add(1)
		e.k.Go("destage", func(q *sim.Proc) {
			defer grp.Done()
			inFlight.Acquire(q, 1)
			defer inFlight.Release(1)
			e.writeback(q, ent, ver)
		})
	}
	grp.Wait(p)
	return n
}

// pin marks ent as mid-writeback: the cache will not evict it, and a handler
// that must not overlap the writeback parks in waitUnpinned. Every site that
// pins goes through pin/unpin so that no waiter can be left behind.
func (e *Engine) pin(ent *cache.Entry) { ent.Pinned = true }

// unpin ends ent's writeback and wakes the procs parked on it, in arrival
// order, at this instant.
func (e *Engine) unpin(ent *cache.Entry) {
	ent.Pinned = false
	if f, ok := e.unpinned[ent]; ok {
		delete(e.unpinned, ent)
		f.Set(struct{}{})
	}
}

// waitUnpinned parks p until no writeback of ent is in flight. The future
// exists only while somebody waits; a waiter that finds the entry pinned
// again when it runs (the flusher re-picked it) simply waits again.
func (e *Engine) waitUnpinned(p *sim.Proc, ent *cache.Entry) {
	for ent.Pinned {
		f, ok := e.unpinned[ent]
		if !ok {
			f = sim.NewFuture[struct{}](e.k)
			e.unpinned[ent] = f
		}
		f.Wait(p)
	}
}

// writeback destages ent, which the caller pinned when it sampled ver, and
// unpins it. clean reports that the store took the block and nobody rewrote
// it meanwhile: the entry is then marked clean and its replicas released.
func (e *Engine) writeback(p *sim.Proc, ent *cache.Entry, ver uint64) (clean bool, err error) {
	err = e.backing.WriteBlock(p, ent.Key, ent.Data)
	e.unpin(ent)
	if err != nil {
		e.stats.WritebackErrors++
		return false, err
	}
	if ent.Version != ver {
		return false, nil
	}
	e.cache.SetDirty(ent, false)
	e.stats.Writebacks++
	if e.onClean != nil {
		e.onClean(p, ent.Key, ver)
	}
	return true, nil
}

// StartFlusher launches the background write-back process: every interval
// it destages up to batch dirty blocks. §6.1: "replicated data would be
// locked in cache only long enough for the data to be asynchronously
// written to disk." The returned function stops the flusher (it exits at
// its next tick, so the simulation's event queue can drain).
func (e *Engine) StartFlusher(interval sim.Duration, batch int) (stop func()) {
	stopped := false
	e.k.Go("flusher", func(p *sim.Proc) {
		// Periodic destage is a storage service: its disk writes compete
		// in the background lane, not against client ops. (Evictions in
		// makeRoom stay on the evicting op's own lane — that writeback is
		// on the foreground op's critical path.)
		qos.TagBackground(p)
		for {
			p.Sleep(interval)
			if stopped || e.down {
				return
			}
			e.FlushOnce(p, batch)
		}
	})
	return func() { stopped = true }
}

// Recover transitions the engine to a new membership after blade failures
// or additions: it destages every dirty block, drops all cached state and
// the entire directory shard, and installs the new live set. The cluster
// layer must run Recover on every surviving blade before resuming I/O so
// that all blades agree on block homes.
func (e *Engine) Recover(p *sim.Proc, alive []int) {
	e.FlushOnce(p, 0)
	e.cache.Clear()
	e.dir = make(map[cache.Key]*dirEntry)
	e.invEpoch = make(map[cache.Key]uint64)
	// Migration state is membership-scoped: the new live set rehashes
	// every home, so overrides, forwarders and heat all restart from zero.
	e.homeOverride = make(map[cache.Key]int)
	e.forward = make(map[cache.Key]int)
	e.idx.invalidate()
	e.heat.Reset()
	e.alive = append([]int(nil), alive...)
	sort.Ints(e.alive)
}

// DirtyBlocks reports how many dirty blocks the cache currently holds.
func (e *Engine) DirtyBlocks() int { return e.cache.DirtyCount() }
