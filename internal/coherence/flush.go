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
	var runs [][]destage
	for a, b := 0, 0; a < len(batch); a = b {
		for b = a + 1; b < len(batch); b++ {
			if prev, k := batch[b-1].ent.Key, batch[b].ent.Key; k.Vol != prev.Vol || k.LBA != prev.LBA+1 {
				break
			}
		}
		runs = append(runs, batch[a:b])
	}
	// A run of several blocks is joined where it lies in the batch, in the
	// last flush's buffer if it is long enough and no longer than the
	// batches of the recent windows (sim.Peak) need.
	keep := e.stagingUse.Use(len(batch))
	buf, _ := e.staging.Get()
	if cap(buf) < len(batch)*e.blockSize || keep >= 0 && cap(buf) > keep*e.blockSize {
		buf = make([]byte, len(batch)*e.blockSize)
	}
	inFlight := sim.NewSemaphore(e.k, 16)
	sim.Fork(p, "destage", len(runs), func(q *sim.Proc, i int) error {
		inFlight.Acquire(q, 1)
		defer inFlight.Release(1)
		e.writeback(q, runs[i], buf[(cap(batch)-cap(runs[i]))*e.blockSize:])
		return nil
	})
	if held, ok := e.staging.Get(); ok && cap(held) >= cap(buf) {
		e.staging.Put(held) // a flush that overlapped this one left one as large
	} else {
		e.staging.Put(buf)
	}
	return len(batch)
}

// FlushBatch is the flusher's blocks per round and surrender's longest run.
const FlushBatch = 64

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
// unpins them; a run of several blocks is joined in buf. An entry the store
// took and nobody rewrote meanwhile is marked clean and its replicas
// released; clean reports that every entry was.
func (e *Engine) writeback(p *sim.Proc, run []destage, buf []byte) (clean bool, err error) {
	data := run[0].ent.Data
	if len(run) > 1 {
		data = buf[:len(run)*e.blockSize]
		for i, d := range run {
			copy(data[i*e.blockSize:], d.ent.Data)
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
	// The directory shard and every install epoch go, as if no key had been
	// used here, but for the epochs ops hold between lookup and install:
	// each stays, in a new record. (A handler may still hold the old one.)
	var held []uint64
	for id, ks := range e.keys {
		if ks.holds > 0 {
			held = append(held, id)
		}
	}
	slices.Sort(held)
	old := e.keys
	e.keys = make(map[uint64]*keyState, len(held))
	for _, id := range held {
		ks := &keyState{epoch: old[id].epoch, holds: old[id].holds, mu: *sim.NewMutex(e.k)}
		ks.sharers = ks.first[:0]
		e.keys[id] = ks
	}
	// Migration state is membership-scoped: the new live set rehashes
	// every home, so overrides, forwarders and heat all restart from zero.
	e.homeOverride = make(map[uint64]int)
	e.forward = make(map[uint64]int)
	e.heat.Reset()
	e.alive = append([]int(nil), alive...)
	sort.Ints(e.alive)
}
