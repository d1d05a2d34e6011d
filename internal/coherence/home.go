package coherence

import (
	"repro/internal/cache"
	"repro/internal/sim"
	"repro/internal/simnet"
)

func bladeID(peers []simnet.Addr, addr simnet.Addr) int {
	for i, a := range peers {
		if a == addr {
			return i
		}
	}
	return -1
}

// handleGetS serves a read-share request as the home blade.
func (e *Engine) handleGetS(p *sim.Proc, from simnet.Addr, args any) (any, int) {
	req := args.(dirReq)
	if to, ok := e.forward[req.Key]; ok {
		e.stats.RedirectsServed++
		return dirResp{Redirect: true, NewHome: to}, ctrlSize
	}
	requester := bladeID(e.peers, from)
	e.stats.DirRequests++
	e.busy(p, e.hdlDelay)
	ent := e.entry(req.Key)
	ent.mu.Lock(p)
	defer ent.mu.Unlock()
	// The home may have migrated away while this request queued on the CPU
	// or the entry mutex (the migration handler holds the same mutex).
	if to, ok := e.forward[req.Key]; ok {
		e.stats.RedirectsServed++
		return dirResp{Redirect: true, NewHome: to}, ctrlSize
	}
	e.heat.Touch(req.Key)

	if tracing(req.Key) {
		traceFn("t=%v home%d GETS from %d state=%d owner=%d sharers=%v", e.k.Now(), e.self, requester, ent.state, ent.owner, ent.sharers)
	}
	switch ent.state {
	case dirInvalid:
		ent.state = dirShared
		ent.sharers.only(requester, req.Epoch)
		return dirResp{}, ctrlSize // backing store is current

	case dirShared:
		// Peer-cache transfer: try to serve from an existing sharer's
		// memory instead of disk ("cache data migrated to where it is
		// most needed", §6.3).
		var data []byte
		if e.noPeerFetch {
			ent.sharers.add(requester, req.Epoch)
			return dirResp{}, ctrlSize
		}
		var buf [8]int
		for _, s := range ent.sharers.blades(buf[:0]) {
			if s == requester {
				continue
			}
			raw, err := e.conn.CallRetry(p, e.peers[s], "coh.fetch", fetchReq{Key: req.Key}, ctrlSize, e.retry)
			if err != nil {
				// Unreachable (dead) sharer: drop it so GetX invalidations
				// don't stall on it later.
				ent.sharers.remove(s)
				continue
			}
			if fr := raw.(fetchResp); !fr.Gone {
				data = fr.Data
			}
			// A Gone sharer stays registered: it may be mid-install from
			// its own grant (entry not placed yet) or have evicted (the
			// async notice will clean up). Keeping it costs at most a
			// redundant invalidation; removing it would strand a copy
			// installed after this fetch, out of reach of invalidations.
			break
		}
		ent.sharers.add(requester, req.Epoch)
		return dirResp{Data: data}, ctrlSize + len(data)

	default: // dirModified
		owner := ent.owner
		// Note: owner == requester is NOT short-circuited as "stale
		// directory, owner must have evicted". The owner blade can be
		// mid-write — GetX granted but the Modified copy not yet installed —
		// while a second proc on the same blade misses locally and sends
		// this GetS. Assuming eviction here would downgrade the directory
		// and declare the stale backing store current, and the reader's
		// backing fetch would then clobber the just-installed dirty block.
		// The downgrade probe below tells the cases apart: a truly evicted
		// owner answers Gone (invariant 3: backing is current), a mid-write
		// owner answers Gone too but its bumped invEpoch makes both the
		// reader skip its install and the writer re-acquire ownership.
		raw, err := e.conn.CallRetry(p, e.peers[owner], "coh.downgrade", downgradeReq{Key: req.Key}, ctrlSize, e.retry)
		if err == nil {
			dr := raw.(downgradeResp)
			if dr.StillDirty {
				// Owner-forwarding: the dirty owner serves the read
				// directly and keeps exclusive ownership; the reader
				// must not cache. Once the owner's flusher destages,
				// the next GetS downgrades cheaply to Shared.
				return dirResp{Data: dr.Data, NoCache: true}, ctrlSize + len(dr.Data)
			}
			if !dr.Gone {
				// Clean owner downgraded to Shared; backing store is
				// current (the copy was clean). The owner's copy keeps
				// living under the epoch recorded at its GetX.
				ent.state = dirShared
				ent.sharers.only(requester, req.Epoch)
				ent.sharers.add(owner, ent.ownerEpoch)
				return dirResp{Data: dr.Data}, ctrlSize + len(dr.Data)
			}
		}
		// Gone or dead owner: per invariant 3 the backing store is
		// current.
		ent.state = dirShared
		ent.sharers.only(requester, req.Epoch)
		return dirResp{}, ctrlSize
	}
}

// handleGetX serves an exclusive-ownership request as the home blade.
// The requester is about to overwrite the whole block, so no data flows.
func (e *Engine) handleGetX(p *sim.Proc, from simnet.Addr, args any) (any, int) {
	req := args.(dirReq)
	if to, ok := e.forward[req.Key]; ok {
		e.stats.RedirectsServed++
		return dirResp{Redirect: true, NewHome: to}, ctrlSize
	}
	requester := bladeID(e.peers, from)
	e.stats.DirRequests++
	e.busy(p, e.hdlDelay)
	ent := e.entry(req.Key)
	ent.mu.Lock(p)
	defer ent.mu.Unlock()
	if to, ok := e.forward[req.Key]; ok {
		e.stats.RedirectsServed++
		return dirResp{Redirect: true, NewHome: to}, ctrlSize
	}
	e.heat.Touch(req.Key)

	if tracing(req.Key) {
		traceFn("t=%v home%d GETX from %d state=%d owner=%d sharers=%v", e.k.Now(), e.self, requester, ent.state, ent.owner, ent.sharers)
	}
	switch ent.state {
	case dirShared:
		// Invalidate every other sharer in parallel. A dropped Inv would
		// leave a stale Shared copy serving old data, so each one retries
		// under the engine policy before the sharer is written off as dead.
		grp := sim.NewGroup(e.k)
		for _, sh := range ent.sharers {
			s := sh.blade
			if s == requester {
				continue
			}
			grp.Add(1)
			e.k.Go("inv", func(q *sim.Proc) {
				defer grp.Done()
				e.conn.CallRetry(q, e.peers[s], "coh.inv", invReq{Key: req.Key}, ctrlSize, e.retry)
			})
		}
		grp.Wait(p)

	case dirModified:
		if ent.owner != requester {
			e.conn.CallRetry(p, e.peers[ent.owner], "coh.invm", invMReq{Key: req.Key}, ctrlSize, e.retry)
		}
	}
	ent.state = dirModified
	ent.owner = requester
	ent.ownerEpoch = req.Epoch
	ent.sharers.reset()
	return dirResp{}, ctrlSize
}

// handleGetV serves a hot-key cache tier value fetch as the home blade:
// the key's current bytes, with no sharer registration and no directory
// state transition — the tier's freshness comes from the write-through hook
// (see onWriteThrough), not from MSI bookkeeping, and a registered fill copy
// would make every later write pay an invalidation round trip inside the
// grant. The home's own coherent copy — any
// non-Invalid state, dirty or clean — satisfies it without touching the
// directory entry or its mutex, so tier fills of a write-hot key do not
// convoy behind the GetS downgrade path. Only when the home holds no
// copy does the fetch consult the directory: a dirty remote owner is
// probed with a plain fetch (no downgrade — it keeps exclusive
// ownership), a sharer serves a peer transfer, and an Invalid entry
// means the backing store is current (invariant 3).
func (e *Engine) handleGetV(p *sim.Proc, from simnet.Addr, args any) (any, int) {
	req := args.(dirReq)
	if to, ok := e.forward[req.Key]; ok {
		e.stats.RedirectsServed++
		return dirResp{Redirect: true, NewHome: to}, ctrlSize
	}
	e.stats.ValueFetches++
	e.busy(p, e.hdlDelay)
	e.heat.Touch(req.Key)
	if ent, ok := e.cache.Get(req.Key); ok && ent.State != cache.Invalid {
		if tracing(req.Key) {
			traceFn("t=%v home%d GETV local state=%v dirty=%v d0=%d", e.k.Now(), e.self, ent.State, ent.Dirty, d0(ent.Data))
		}
		return dirResp{Data: append([]byte(nil), ent.Data...)}, ctrlSize + len(ent.Data)
	}
	ent := e.entry(req.Key)
	ent.mu.Lock(p)
	defer ent.mu.Unlock()
	if to, ok := e.forward[req.Key]; ok {
		e.stats.RedirectsServed++
		return dirResp{Redirect: true, NewHome: to}, ctrlSize
	}
	if tracing(req.Key) {
		traceFn("t=%v home%d GETV state=%d owner=%d sharers=%v", e.k.Now(), e.self, ent.state, ent.owner, ent.sharers)
	}
	switch ent.state {
	case dirModified:
		// A plain fetch, not a downgrade: the owner keeps its Modified
		// copy and the directory does not transition, so the next write
		// at the owner stays a local in-place update. A Gone owner is
		// mid-install or has evicted; either way every acknowledged write
		// has been destaged (makeRoom and InvM write dirty data back
		// before dropping it), so the backing store is current.
		raw, err := e.conn.CallRetry(p, e.peers[ent.owner], "coh.fetch", fetchReq{Key: req.Key}, ctrlSize, e.retry)
		if err == nil {
			if fr := raw.(fetchResp); !fr.Gone {
				return dirResp{Data: fr.Data}, ctrlSize + len(fr.Data)
			}
		}
		return dirResp{}, ctrlSize
	case dirShared:
		if e.noPeerFetch {
			return dirResp{}, ctrlSize
		}
		var buf [8]int
		for _, s := range ent.sharers.blades(buf[:0]) {
			raw, err := e.conn.CallRetry(p, e.peers[s], "coh.fetch", fetchReq{Key: req.Key}, ctrlSize, e.retry)
			if err != nil {
				ent.sharers.remove(s)
				if len(ent.sharers) == 0 {
					ent.state = dirInvalid
				}
				continue
			}
			if fr := raw.(fetchResp); !fr.Gone {
				return dirResp{Data: fr.Data}, ctrlSize + len(fr.Data)
			}
			break
		}
		return dirResp{}, ctrlSize
	default: // dirInvalid: no copies anywhere, backing store current
		return dirResp{}, ctrlSize
	}
}

// handleInv drops a Shared copy.
func (e *Engine) handleInv(p *sim.Proc, from simnet.Addr, args any) (any, int) {
	req := args.(invReq)
	e.stats.Invalidations++
	if tracing(req.Key) {
		traceFn("t=%v blade%d INV", e.k.Now(), e.self)
	}
	e.invEpoch[req.Key]++
	if ent, ok := e.cache.Peek(req.Key); ok {
		e.cache.Remove(ent.Key)
	}
	return invResp{}, ctrlSize
}

// handleInvM surrenders Modified ownership to a blade about to overwrite
// the block. A dirty payload is destaged before the copy is dropped: this
// blade holds the ONLY copy of the last acknowledged write, and the new
// owner's superseding block does not exist anywhere yet — its install can
// trail the grant by a long makeRoom stall, and during that window a
// reader's downgrade probe finds the new owner empty and falls back to
// the backing store under invariant 3 ("no copies ⇒ backing current").
// Dropping acked dirty data here without a writeback is what used to
// break that invariant and serve pre-ack data to concurrent readers.
func (e *Engine) handleInvM(p *sim.Proc, from simnet.Addr, args any) (any, int) {
	req := args.(invMReq)
	if tracing(req.Key) {
		traceFn("t=%v blade%d INVM", e.k.Now(), e.self)
	}
	return invMResp{Gone: e.surrender(p, req.Key)}, ctrlSize
}

// surrender gives up this blade's Modified copy of key (both InvM planes).
// A destage that succeeds releases the block's replicas exactly as the
// flusher and makeRoom do: a replica left at the buddy would outlive the
// copy it protects, and when this blade later died recovery would replay it
// over whatever the new owner had destaged since. gone reports that there
// was no copy to give up.
func (e *Engine) surrender(p *sim.Proc, key cache.Key) (gone bool) {
	e.stats.Invalidations++
	e.invEpoch[key]++
	ent, ok := e.cache.Peek(key)
	if !ok {
		return true
	}
	// A writeback may be mid-flight for this entry; wait it out so the
	// backing-store writes of old and new owner cannot interleave.
	e.waitUnpinned(p, ent)
	if ent, ok := e.cache.Peek(key); ok && ent.Dirty {
		// A store that refuses the destage (counted by writeback) leaves the
		// pre-drop behavior and its staleness window; the write path stays
		// available either way.
		e.writebackOne(p, ent)
	}
	e.cache.Remove(key)
	return false
}

// handleDowngrade resolves a read of this blade's Modified copy. A clean
// copy downgrades to Shared (the backing store already matches, so
// invariant 1 holds). A dirty copy is NOT written back: its data is
// forwarded to the reader while this blade keeps exclusive ownership —
// owner-forwarding, which spares the read path the synchronous RAID
// writeback; the background flusher destages and a later read completes
// the downgrade cheaply.
//
// If the entry is absent — either evicted (notice in flight) or not yet
// installed by an in-flight grant — the epoch bump aborts any pending
// install here, so replying Gone is safe: this blade holds and will hold
// nothing for the key until it re-requests.
func (e *Engine) handleDowngrade(p *sim.Proc, from simnet.Addr, args any) (any, int) {
	req := args.(downgradeReq)
	e.stats.Downgrades++
	if tracing(req.Key) {
		traceFn("t=%v blade%d DOWNGRADE", e.k.Now(), e.self)
	}
	ent, ok := e.cache.Peek(req.Key)
	if !ok {
		e.invEpoch[req.Key]++
		return downgradeResp{Gone: true}, ctrlSize
	}
	e.waitUnpinned(p, ent)
	if _, still := e.cache.Peek(req.Key); !still {
		e.invEpoch[req.Key]++
		return downgradeResp{Gone: true}, ctrlSize
	}
	if ent.Dirty {
		return downgradeResp{Data: append([]byte(nil), ent.Data...), StillDirty: true}, ctrlSize + len(ent.Data)
	}
	ent.State = cache.Shared
	return downgradeResp{Data: append([]byte(nil), ent.Data...)}, ctrlSize + len(ent.Data)
}

// handleFetch serves a peer-cache read of a Shared block. A Gone reply is
// informational only: the home keeps this blade in the sharer set (we may
// be mid-install from our own grant), so future invalidations still reach
// us and no epoch bump is needed here.
func (e *Engine) handleFetch(p *sim.Proc, from simnet.Addr, args any) (any, int) {
	req := args.(fetchReq)
	ent, ok := e.cache.Peek(req.Key)
	if !ok || ent.State == cache.Invalid {
		if tracing(req.Key) {
			traceFn("t=%v blade%d FETCH gone", e.k.Now(), e.self)
		}
		return fetchResp{Gone: true}, ctrlSize
	}
	e.busy(p, e.hdlDelay)
	return fetchResp{Data: append([]byte(nil), ent.Data...)}, ctrlSize + len(ent.Data)
}

// handleEvictNote processes an asynchronous eviction notice.
func (e *Engine) handleEvictNote(p *sim.Proc, from simnet.Addr, args any) (any, int) {
	note := args.(evictNote)
	if to, ok := e.forward[note.Key]; ok {
		// The key's home migrated away; relay the notice so the new home's
		// sharer set does not go stale.
		e.conn.Cast(p, e.peers[to], "coh.evict", note, ctrlSize)
		return nil, 0
	}
	ent, ok := e.dir[note.Key]
	if !ok {
		return nil, 0
	}
	// Only deregister if the notice matches the recorded registration
	// epoch. A stale notice — the blade evicted, then re-requested and
	// re-registered under a newer epoch before the notice arrived (the
	// ex-home relay above adds a whole extra hop for it to lose) — must
	// be dropped: removing the re-registered sharer would strand its
	// live copy outside the sharer set, where GetX invalidations cannot
	// reach it and local hits would serve stale data indefinitely.
	switch ent.state {
	case dirShared:
		if epoch, ok := ent.sharers.epoch(note.From); ok && note.Epoch >= epoch {
			ent.sharers.remove(note.From)
			if len(ent.sharers) == 0 {
				ent.state = dirInvalid
			}
		}
	case dirModified:
		if note.WasOwner && ent.owner == note.From && note.Epoch >= ent.ownerEpoch {
			ent.state = dirInvalid // backing store current, invariant 3
		}
	}
	return nil, 0
}
