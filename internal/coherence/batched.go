package coherence

import (
	"fmt"
	"sort"

	"repro/internal/cache"
	"repro/internal/sim"
	"repro/internal/simnet"
	tr "repro/internal/trace"
)

// Batched coherence plane. With batching enabled the cluster resolves a
// whole client op's blocks through vectorized protocol messages: one
// coh.getsb/coh.getxb per home blade instead of one coh.gets/coh.getx per
// block, and on the home side one coh.invb/coh.invmb/coh.downgradeb/
// coh.fetchb per peer instead of one message per (peer, key). The
// handler-side CPU charge (hdlDelay) and the client-side op charge
// (opDelay) are paid once per batch — that amortization, plus the collapse
// of per-key round trips, is what empties the fabric queues.
//
// Two deliberate semantic differences from the per-key plane, both safe:
//
//   - coh.downgradeb forwards a dirty owner's data immediately instead of
//     waiting out a pinned (mid-destage) entry. The forwarded bytes
//     are the latest acknowledged write, the reader does not install them
//     (NoCache), and the owner keeps exclusive ownership, so no invariant
//     moves; the per-key path's wait was purely conservative. coh.invmb
//     KEEPS the pinned wait: there a new owner is about to write and
//     destage, and overlapping backing-store writes from old and new owner
//     genuinely can interleave.
//
//   - the shared-state fetch probe tries one sharer (the first in sorted
//     order) instead of walking sharers sequentially; if it fails or the
//     copy is gone the reader falls back to the backing store, which is
//     current for Shared entries (invariant 1).
//
// Determinism: batch fan-out walks peers in sorted order, multi-entry
// locking is in sorted key order (so batched handlers cannot deadlock with
// each other or with the single-key plane), and all concurrency uses the
// kernel's deterministic primitives.

// Batched protocol payloads. Req/resp item slices are parallel arrays.
// dirBatchReq is coh.getsb's and coh.getxb's request; Epochs mirror the
// per-key plane's dirReq.Epoch: one requester install epoch per key,
// recorded with each registration so stale evict notices cannot deregister
// a re-installed copy.
type dirBatchReq struct {
	Keys   []cache.Key
	Epochs []uint64
}
type dirBatchResp struct{ Items []dirResp }
type invBatchReq struct{ Keys []cache.Key }
type invBatchResp struct{}
type invMBatchReq struct{ Keys []cache.Key }
type invMBatchResp struct{}
type downgradeBatchReq struct{ Keys []cache.Key }
type downgradeBatchResp struct{ Items []downgradeResp }
type fetchBatchReq struct{ Keys []cache.Key }
type fetchBatchResp struct{ Items []fetchResp }

// perKeySize is the wire cost of one key (or one dataless reply item)
// inside a batched message, on top of the shared ctrlSize header.
const perKeySize = 16

func batchSize(n int) int { return ctrlSize + perKeySize*n }

// SetBatched switches this engine's client paths between the per-key and
// batched protocol planes. Handlers for both planes are always registered,
// so mixed clusters stay interoperable during a toggle.
func (e *Engine) SetBatched(on bool) { e.batched = on }

// Batched reports whether the batched plane is active.
func (e *Engine) Batched() bool { return e.batched }

func (e *Engine) registerBatched() {
	e.conn.Register("coh.getsb", e.handleGetSBatch)
	e.conn.Register("coh.getxb", e.handleGetXBatch)
	e.conn.Register("coh.invb", e.handleInvBatch)
	e.conn.Register("coh.invmb", e.handleInvMBatch)
	e.conn.Register("coh.downgradeb", e.handleDowngradeBatch)
	e.conn.Register("coh.fetchb", e.handleFetchBatch)
}

func sortedPeerIDs[T any](m map[int]T) []int {
	out := make([]int, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// batchWork is one key's slot in a batched home handler.
type batchWork struct {
	idx   int // position in the request (and response) arrays
	key   cache.Key
	epoch uint64 // requester's install epoch for this key
	ent   *dirEntry
}

// lockSorted locks each work entry's mutex in sorted key order and returns
// the same slice sorted. Every multi-entry locker in the package uses this
// order, so overlapping batches queue instead of deadlocking.
func (e *Engine) lockSorted(p *sim.Proc, work []batchWork) []batchWork {
	sort.Slice(work, func(i, j int) bool {
		if work[i].key.Vol != work[j].key.Vol {
			return work[i].key.Vol < work[j].key.Vol
		}
		return work[i].key.LBA < work[j].key.LBA
	})
	for i := range work {
		work[i].ent = e.entry(work[i].key)
		work[i].ent.mu.Lock(p)
	}
	return work
}

func unlockAll(work []batchWork) {
	for i := range work {
		work[i].ent.mu.Unlock()
	}
}

// handleGetSBatch serves a vector of read-share requests as the home blade.
func (e *Engine) handleGetSBatch(p *sim.Proc, from simnet.Addr, args any) (any, int) {
	req := args.(dirBatchReq)
	requester := bladeID(e.peers, from)
	items := make([]dirResp, len(req.Keys))
	e.stats.DirRequests += int64(len(req.Keys))

	var work []batchWork
	for i, key := range req.Keys {
		if to, ok := e.forward[key]; ok {
			e.stats.RedirectsServed++
			items[i] = dirResp{Redirect: true, NewHome: to}
			continue
		}
		work = append(work, batchWork{idx: i, key: key, epoch: req.Epochs[i]})
	}
	if len(work) == 0 {
		return dirBatchResp{Items: items}, batchSize(len(items))
	}
	e.busy(p, e.hdlDelay) // one CPU charge for the whole batch
	work = e.lockSorted(p, work)
	defer unlockAll(work)

	// Classify under the locks; the home may have migrated while we queued.
	fetchGroups := make(map[int][]batchWork) // sharer blade → keys to fetch
	dgGroups := make(map[int][]batchWork)    // owner blade → keys to downgrade
	for _, w := range work {
		if to, ok := e.forward[w.key]; ok {
			e.stats.RedirectsServed++
			items[w.idx] = dirResp{Redirect: true, NewHome: to}
			continue
		}
		e.heat.Touch(w.key)
		if tracing(w.key) {
			traceFn("t=%v home%d GETSB from %d state=%d owner=%d sharers=%v",
				e.k.Now(), e.self, requester, w.ent.state, w.ent.owner, w.ent.sharers)
		}
		switch w.ent.state {
		case dirInvalid:
			w.ent.state = dirShared
			w.ent.sharers.only(requester, w.epoch)
		case dirShared:
			if e.noPeerFetch {
				w.ent.sharers.add(requester, w.epoch)
				continue
			}
			src := -1
			for _, sh := range w.ent.sharers {
				if sh.blade != requester {
					src = sh.blade
					break
				}
			}
			if src < 0 {
				w.ent.sharers.add(requester, w.epoch)
				continue
			}
			fetchGroups[src] = append(fetchGroups[src], w)
		default: // dirModified
			dgGroups[w.ent.owner] = append(dgGroups[w.ent.owner], w)
		}
	}
	// One batched call per peer, all peers in parallel, sorted spawn order.
	grp := sim.NewGroup(e.k)
	for _, src := range sortedPeerIDs(fetchGroups) {
		src, ws := src, fetchGroups[src]
		grp.Add(1)
		e.k.Go("fetchb", func(q *sim.Proc) {
			defer grp.Done()
			keys := make([]cache.Key, len(ws))
			for i, w := range ws {
				keys[i] = w.key
			}
			raw, err := e.conn.CallRetry(q, e.peers[src], "coh.fetchb", fetchBatchReq{Keys: keys}, batchSize(len(keys)), e.retry)
			if err != nil {
				// Dead sharer: unregister it so invalidations don't stall
				// on it later; readers fall back to the backing store.
				for _, w := range ws {
					w.ent.sharers.remove(src)
					w.ent.sharers.add(requester, w.epoch)
				}
				return
			}
			fr := raw.(fetchBatchResp)
			for i, w := range ws {
				if !fr.Items[i].Gone {
					items[w.idx].Data = fr.Items[i].Data
				}
				// A Gone sharer stays registered (it may be mid-install);
				// the reader falls back to backing, current for Shared.
				w.ent.sharers.add(requester, w.epoch)
			}
		})
	}
	for _, owner := range sortedPeerIDs(dgGroups) {
		owner, ws := owner, dgGroups[owner]
		grp.Add(1)
		e.k.Go("downgradeb", func(q *sim.Proc) {
			defer grp.Done()
			keys := make([]cache.Key, len(ws))
			for i, w := range ws {
				keys[i] = w.key
			}
			raw, err := e.conn.CallRetry(q, e.peers[owner], "coh.downgradeb", downgradeBatchReq{Keys: keys}, batchSize(len(keys)), e.retry)
			if err != nil {
				// Dead owner: per invariant 3 the backing store is current.
				for _, w := range ws {
					w.ent.state = dirShared
					w.ent.sharers.only(requester, w.epoch)
				}
				return
			}
			dr := raw.(downgradeBatchResp)
			for i, w := range ws {
				it := dr.Items[i]
				switch {
				case it.StillDirty:
					// Owner-forwarding: home stays Modified; reader must
					// not cache.
					items[w.idx] = dirResp{Data: it.Data, NoCache: true}
				case !it.Gone:
					w.ent.state = dirShared
					w.ent.sharers.only(requester, w.epoch)
					w.ent.sharers.add(owner, w.ent.ownerEpoch)
					items[w.idx].Data = it.Data
				default:
					w.ent.state = dirShared
					w.ent.sharers.only(requester, w.epoch)
				}
			}
		})
	}
	grp.Wait(p)

	size := batchSize(len(items))
	for i := range items {
		size += len(items[i].Data)
	}
	return dirBatchResp{Items: items}, size
}

// handleGetXBatch serves a vector of exclusive-ownership requests as the
// home blade, with the sharer-invalidation fan-out vectorized per peer.
func (e *Engine) handleGetXBatch(p *sim.Proc, from simnet.Addr, args any) (any, int) {
	req := args.(dirBatchReq)
	requester := bladeID(e.peers, from)
	items := make([]dirResp, len(req.Keys))
	e.stats.DirRequests += int64(len(req.Keys))

	var work []batchWork
	for i, key := range req.Keys {
		if to, ok := e.forward[key]; ok {
			e.stats.RedirectsServed++
			items[i] = dirResp{Redirect: true, NewHome: to}
			continue
		}
		work = append(work, batchWork{idx: i, key: key, epoch: req.Epochs[i]})
	}
	if len(work) == 0 {
		return dirBatchResp{Items: items}, batchSize(len(items))
	}
	e.busy(p, e.hdlDelay)
	work = e.lockSorted(p, work)
	defer unlockAll(work)

	invGroups := make(map[int][]cache.Key)  // sharer blade → keys to invalidate
	invMGroups := make(map[int][]cache.Key) // owner blade → ownership to revoke
	var granted []batchWork
	for _, w := range work {
		if to, ok := e.forward[w.key]; ok {
			e.stats.RedirectsServed++
			items[w.idx] = dirResp{Redirect: true, NewHome: to}
			continue
		}
		e.heat.Touch(w.key)
		if tracing(w.key) {
			traceFn("t=%v home%d GETXB from %d state=%d owner=%d sharers=%v",
				e.k.Now(), e.self, requester, w.ent.state, w.ent.owner, w.ent.sharers)
		}
		switch w.ent.state {
		case dirShared:
			for _, sh := range w.ent.sharers {
				if sh.blade != requester {
					invGroups[sh.blade] = append(invGroups[sh.blade], w.key)
				}
			}
		case dirModified:
			if w.ent.owner != requester {
				invMGroups[w.ent.owner] = append(invMGroups[w.ent.owner], w.key)
			}
		}
		granted = append(granted, w)
	}

	grp := sim.NewGroup(e.k)
	for _, s := range sortedPeerIDs(invGroups) {
		s, keys := s, invGroups[s]
		grp.Add(1)
		e.k.Go("invb", func(q *sim.Proc) {
			defer grp.Done()
			e.conn.CallRetry(q, e.peers[s], "coh.invb", invBatchReq{Keys: keys}, batchSize(len(keys)), e.retry)
		})
	}
	for _, o := range sortedPeerIDs(invMGroups) {
		o, keys := o, invMGroups[o]
		grp.Add(1)
		e.k.Go("invmb", func(q *sim.Proc) {
			defer grp.Done()
			e.conn.CallRetry(q, e.peers[o], "coh.invmb", invMBatchReq{Keys: keys}, batchSize(len(keys)), e.retry)
		})
	}
	grp.Wait(p)

	for _, w := range granted {
		w.ent.state = dirModified
		w.ent.owner = requester
		w.ent.ownerEpoch = w.epoch
		w.ent.sharers.reset()
	}
	return dirBatchResp{Items: items}, batchSize(len(items))
}

// handleInvBatch drops a vector of Shared copies.
func (e *Engine) handleInvBatch(p *sim.Proc, from simnet.Addr, args any) (any, int) {
	req := args.(invBatchReq)
	for _, key := range req.Keys {
		e.stats.Invalidations++
		if tracing(key) {
			traceFn("t=%v blade%d INVB", e.k.Now(), e.self)
		}
		e.invEpoch[key]++
		if ent, ok := e.cache.Peek(key); ok {
			e.cache.Remove(ent.Key)
		}
	}
	return invBatchResp{}, ctrlSize
}

// handleInvMBatch surrenders Modified ownership for a vector of keys, each
// exactly as the per-key handler does (see surrender): the pinned wait and
// the destage-before-drop are per key.
func (e *Engine) handleInvMBatch(p *sim.Proc, from simnet.Addr, args any) (any, int) {
	req := args.(invMBatchReq)
	for _, key := range req.Keys {
		if tracing(key) {
			traceFn("t=%v blade%d INVMB", e.k.Now(), e.self)
		}
		e.surrender(p, key)
	}
	return invMBatchResp{}, ctrlSize
}

// handleDowngradeBatch resolves reads of this blade's Modified copies.
// Unlike the per-key handler it never waits out a pinned entry: a dirty
// copy (pinned or not) is forwarded immediately with StillDirty set. The
// bytes are the latest acknowledged write, the reader does not install
// them, and ownership does not move, so skipping the destage wait changes
// no state the protocol can observe — it only keeps convoys of readers
// from queueing behind disk destages, which is where the unbatched
// fabric's p99 tail lived.
func (e *Engine) handleDowngradeBatch(p *sim.Proc, from simnet.Addr, args any) (any, int) {
	req := args.(downgradeBatchReq)
	items := make([]downgradeResp, len(req.Keys))
	size := batchSize(len(req.Keys))
	for i, key := range req.Keys {
		e.stats.Downgrades++
		if tracing(key) {
			traceFn("t=%v blade%d DOWNGRADEB", e.k.Now(), e.self)
		}
		ent, ok := e.cache.Peek(key)
		if !ok {
			e.invEpoch[key]++
			items[i] = downgradeResp{Gone: true}
			continue
		}
		if ent.Dirty {
			items[i] = downgradeResp{Data: append([]byte(nil), ent.Data...), StillDirty: true}
		} else {
			// A clean copy here means the Modified grant this downgrade is
			// revoking has NOT been installed yet — this entry is a stale
			// Shared copy and a local writer is between grant and install.
			// The per-key plane closes that window by installing without a
			// park point; the batched plane's window spans the whole vector
			// grant, so bump the epoch to send that writer back through the
			// retry path before it installs dirty data under a directory
			// that now says Shared.
			e.invEpoch[key]++
			ent.State = cache.Shared
			items[i] = downgradeResp{Data: append([]byte(nil), ent.Data...)}
		}
		size += len(items[i].Data)
	}
	return downgradeBatchResp{Items: items}, size
}

// handleFetchBatch serves a vector of peer-cache reads, charging the
// handler CPU once.
func (e *Engine) handleFetchBatch(p *sim.Proc, from simnet.Addr, args any) (any, int) {
	req := args.(fetchBatchReq)
	items := make([]fetchResp, len(req.Keys))
	size := batchSize(len(req.Keys))
	e.busy(p, e.hdlDelay)
	for i, key := range req.Keys {
		ent, ok := e.cache.Peek(key)
		if !ok || ent.State == cache.Invalid {
			if tracing(key) {
				traceFn("t=%v blade%d FETCHB gone", e.k.Now(), e.self)
			}
			items[i] = fetchResp{Gone: true}
			continue
		}
		items[i] = fetchResp{Data: append([]byte(nil), ent.Data...)}
		size += len(items[i].Data)
	}
	return fetchBatchResp{Items: items}, size
}

// pendingMiss is one key of a vector op on its way through the directory:
// its position in the op, the install epoch its request carries and, once
// askVector has it, the home's answer.
type pendingMiss struct {
	idx   int
	key   cache.Key
	epoch uint64
	resp  dirResp
}

// askVector is ask for a vector of keys: one method call (coh.getsb or
// coh.getxb) per home blade, all homes at once in ascending order, and the
// keys a home redirected go round again under the address they learned. It
// returns the keys with their answers in the order the answers arrived —
// by round, then home, then position in the request.
func (e *Engine) askVector(p *sim.Proc, method string, pending []pendingMiss) ([]pendingMiss, error) {
	var granted []pendingMiss
	for hops := 0; len(pending) > 0; hops++ {
		if hops > len(e.peers)+8 {
			return nil, fmt.Errorf("coherence: %s: redirect loop", method)
		}
		groups := make(map[int][]pendingMiss)
		for _, m := range pending {
			h, err := e.home(m.key)
			if err != nil {
				return nil, err
			}
			groups[h] = append(groups[h], m)
		}
		homes := sortedPeerIDs(groups)
		resps := make([]dirBatchResp, len(homes))
		errs := make([]error, len(homes))
		grp := sim.NewGroup(e.k)
		for gi, h := range homes {
			grp.Add(1)
			e.k.Go(method[len("coh."):], func(q *sim.Proc) {
				defer grp.Done()
				ks := make([]cache.Key, len(groups[h]))
				eps := make([]uint64, len(groups[h]))
				for i, m := range groups[h] {
					ks[i] = m.key
					eps[i] = m.epoch
				}
				raw, err := e.call(q, h, method, dirBatchReq{Keys: ks, Epochs: eps}, batchSize(len(ks)))
				if err != nil {
					errs[gi] = err
					return
				}
				resps[gi] = raw.(dirBatchResp)
			})
		}
		grp.Wait(p)
		pending = nil
		for gi, h := range homes {
			if errs[gi] != nil {
				return nil, fmt.Errorf("coherence: %s to blade %d: %w", method, h, errs[gi])
			}
			for j, m := range groups[h] {
				m.resp = resps[gi].Items[j]
				if m.resp.Redirect {
					e.stats.RedirectsFollowed++
					e.setHomeOverride(m.key, m.resp.NewHome)
					pending = append(pending, m)
					continue
				}
				granted = append(granted, m)
			}
		}
	}
	return granted, nil
}

// resolveBatched is a run's phase 1 on the batched plane: one CPU charge for
// the whole vector, local hits served inline, every miss resolved through
// one coh.getsb per home blade. The answers are then settled concurrently
// (installing a peer's copy may wait on a writeback), exactly as on the
// per-key plane: the blocks the backing store must supply join op's gather.
func (e *Engine) resolveBatched(p *sim.Proc, op *runRead, vol string, lba int64, priority int, dst []byte) error {
	if e.down {
		return fmt.Errorf("coherence: blade %d down", e.self)
	}
	bs := e.blockSize
	count := len(dst) / bs
	block := func(i int) []byte { return dst[i*bs : (i+1)*bs] }
	e.stats.Reads += int64(count)
	e.busy(p, e.opDelay) // one op charge for the whole vector
	var pending []pendingMiss
	for i := 0; i < count; i++ {
		key := cache.Key{Vol: vol, LBA: lba + int64(i)}
		if ent, ok := e.cache.Get(key); ok && ent.State != cache.Invalid {
			e.stats.LocalHits++
			if h, err := e.home(key); err == nil && h == e.self {
				e.heat.Touch(key)
			}
			if ctx := tr.FromProc(p); ctx.Valid() {
				ctx.Child("hit", tr.CacheHit, e.label).End()
			}
			copy(block(i), ent.Data)
			continue
		}
		pending = append(pending, pendingMiss{idx: i, key: key, epoch: e.invEpoch[key]})
	}
	grants, err := e.askVector(p, "coh.getsb", pending)
	if err != nil {
		return err
	}
	grp := sim.NewGroup(e.k)
	for _, g := range grants {
		grp.Add(1)
		e.k.Go("readb", func(q *sim.Proc) {
			defer grp.Done()
			if e.settle(q, g.key, g.epoch, g.resp, priority, block(g.idx)) {
				op.gather(g.idx, count, g.epoch)
			}
		})
	}
	grp.Wait(p)
	return nil
}

// writeVector stores a vector of full blocks, acquiring exclusive
// ownership through per-home coh.getxb calls; installs and replication
// pushes fan out in parallel. Keys must be distinct and blocks positional.
func (e *Engine) writeVector(p *sim.Proc, keys []cache.Key, blocks [][]byte, priority, replFactor int) error {
	if e.down {
		return fmt.Errorf("coherence: blade %d down", e.self)
	}
	if len(keys) != len(blocks) {
		return fmt.Errorf("coherence: %d keys, %d blocks", len(keys), len(blocks))
	}
	for _, b := range blocks {
		if len(b) != e.blockSize {
			return fmt.Errorf("coherence: write of %d bytes, block size %d", len(b), e.blockSize)
		}
	}
	e.stats.Writes += int64(len(keys))
	e.busy(p, e.opDelay)
	pending := make([]pendingMiss, len(keys))
	for i, key := range keys {
		pending[i] = pendingMiss{idx: i, key: key, epoch: e.invEpoch[key]}
	}
	granted, err := e.askVector(p, "coh.getxb", pending)
	if err != nil {
		return err
	}
	grp := sim.NewGroup(e.k)
	var firstErr error
	for _, g := range granted {
		grp.Add(1)
		e.k.Go("writeb", func(q *sim.Proc) {
			defer grp.Done()
			// Ownership stolen between the vector grant and this install, or
			// while it made room: the per-key retry loop takes the block over
			// and counts the op again, so undo the vector's count first.
			stolen := e.invEpoch[g.key] != g.epoch
			var err error
			if stolen {
				e.stats.WriteRetries++
			} else {
				stolen, err = e.installModified(q, g.key, g.epoch, blocks[g.idx], priority, replFactor)
			}
			if stolen {
				e.stats.Writes--
				err = e.WriteBlockR(q, g.key, blocks[g.idx], priority, replFactor)
			}
			if err != nil && firstErr == nil {
				firstErr = err
			}
		})
	}
	grp.Wait(p)
	return firstErr
}
