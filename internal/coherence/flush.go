package coherence

import (
	"cmp"
	"slices"
	"sort"

	"repro/internal/cache"
	"repro/internal/qos"
	"repro/internal/sim"
)

// destage is one pinned dirty entry of a writeback run and the version
// sampled when it was pinned.
type destage struct {
	ent *cache.Entry
	ver uint64
}

// FlushOnce destages up to max dirty blocks (all if max ≤ 0), returning the
// number written back. It chooses the batch oldest first per lane and pins
// it, then issues it by address: every maximal run of adjacent blocks of a
// volume is one backing write, so the store below sees a stripe row's blocks
// together. Runs are issued concurrently (bounded) so the drain rate tracks
// the disk array, not a single operation's latency.
func (e *Engine) FlushOnce(p *sim.Proc, max int) int {
	var batch []destage
	for _, ent := range e.cache.DirtyEntries() {
		if max > 0 && len(batch) >= max {
			break
		}
		if ent.Pinned || !ent.Dirty {
			continue
		}
		e.pin(ent)
		batch = append(batch, destage{ent, ent.Version})
	}
	if len(batch) == 0 {
		return 0
	}
	slices.SortFunc(batch, func(a, b destage) int {
		return cmp.Or(cmp.Compare(a.ent.Key.Vol, b.ent.Key.Vol), cmp.Compare(a.ent.Key.LBA, b.ent.Key.LBA))
	})
	grp := sim.NewGroup(e.k)
	inFlight := sim.NewSemaphore(e.k, 16)
	for a, b := 0, 0; a < len(batch); a = b {
		for b = a + 1; b < len(batch); b++ {
			if prev, k := batch[b-1].ent.Key, batch[b].ent.Key; k.Vol != prev.Vol || k.LBA != prev.LBA+1 {
				break
			}
		}
		run := batch[a:b]
		grp.Add(1)
		e.k.Go("destage", func(q *sim.Proc) {
			defer grp.Done()
			inFlight.Acquire(q, 1)
			defer inFlight.Release(1)
			e.writeback(q, run)
		})
	}
	grp.Wait(p)
	return len(batch)
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

// writeback destages run — adjacent blocks of one volume, each pinned by the
// caller when it sampled the entry's version — as one backing write, and
// unpins them. An entry the store took and nobody rewrote meanwhile is marked
// clean and its replicas released; clean reports that every entry was.
func (e *Engine) writeback(p *sim.Proc, run []destage) (clean bool, err error) {
	data := run[0].ent.Data
	if len(run) > 1 {
		data = make([]byte, 0, len(run)*e.blockSize)
		for _, d := range run {
			data = append(data, d.ent.Data...)
		}
	}
	err = e.backing.WriteBlocks(p, run[0].ent.Key, data)
	e.stats.WritebackRuns++
	clean = err == nil
	for _, d := range run {
		e.unpin(d.ent)
		switch {
		case err != nil:
			e.stats.WritebackErrors++
		case d.ent.Version != d.ver:
			clean = false
		default:
			e.cache.SetDirty(d.ent, false)
			e.stats.Writebacks++
			if e.onClean != nil {
				e.onClean(p, d.ent.Key, d.ver)
			}
		}
	}
	return clean, err
}

// writebackOne pins ent and destages it alone, on the caller's critical path.
func (e *Engine) writebackOne(p *sim.Proc, ent *cache.Entry) (clean bool, err error) {
	e.pin(ent)
	return e.writeback(p, []destage{{ent, ent.Version}})
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
