package coherence

import (
	"errors"
	"fmt"

	"repro/internal/cache"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// Home migration (hot-spot rebalancing). The balance controller sends
// "coh.migrate" to the blade currently homing a hot key; that blade
// quiesces the directory entry (its mutex serializes against in-flight
// GetS/GetX), hands the entry to the new home via "coh.adopt", broadcasts
// the new address via "coh.sethome" in sorted blade order, then installs a
// forwarder for itself. The sethome broadcast is best-effort: a blade that
// misses it keeps sending requests to the old home, which answers with a
// Redirect carrying the new address, so routing converges without a
// membership change. Every step is a synchronous RPC issued from one
// handler proc, so the whole exchange is deterministic for a given seed
// and trace-instrumented exactly like the GetS/GetX paths (the fabric
// propagates the balancer's trace context into this handler).

// RequestMigrate asks the blade at peer — key's current home — to migrate
// its directory entry to blade to. The balance controller calls this from
// its own fabric endpoint; Moved=false with a nil error means the home
// declined (stale candidate), which callers treat as a skipped decision.
func RequestMigrate(p *sim.Proc, conn *simnet.Conn, peer simnet.Addr, key cache.Key, to int, retry simnet.RetryPolicy) (bool, error) {
	raw, err := conn.CallRetry(p, peer, "coh.migrate", migrateReq{Key: key, To: to}, ctrlSize, retry)
	if err != nil {
		return false, err
	}
	resp := raw.(migrateResp)
	if resp.Err != "" {
		return false, errors.New(resp.Err)
	}
	return resp.Moved, nil
}

// handleMigrate hands this blade's directory entry for a key to another
// blade. Replies with Moved=false (and a reason) when this blade no longer
// homes the key or the target is unusable; the balancer treats that as a
// skipped decision, not an error.
func (e *Engine) handleMigrate(p *sim.Proc, from simnet.Addr, args any) (any, int) {
	req := args.(migrateReq)
	e.busy(p, HandlerDelay)
	if req.To == e.self {
		return migrateResp{Err: "target is the current home"}, ctrlSize
	}
	target := false
	for _, b := range e.alive {
		if b == req.To {
			target = true
			break
		}
	}
	if !target {
		return migrateResp{Err: fmt.Sprintf("target blade %d not in membership", req.To)}, ctrlSize
	}
	if h, err := e.home(req.Key); err != nil || h != e.self {
		return migrateResp{Err: fmt.Sprintf("blade %d does not home %v", e.self, req.Key)}, ctrlSize
	}
	ent := e.record(req.Key)
	ent.mu.Lock(p)
	defer e.unlock(req.Key, ent)
	// Quiesce point: holding the entry mutex means no GetS/GetX for this
	// key is mid-protocol on this blade.
	id := e.ids.ID(req.Key)
	if _, ok := e.forward[id]; ok {
		return migrateResp{Err: "already migrated"}, ctrlSize
	}
	heat := e.heat.Take(req.Key)
	sharers := ent.sharers.blades(nil)
	epochs := make([]uint64, len(ent.sharers))
	for i, sh := range ent.sharers {
		epochs[i] = sh.epoch
	}
	areq := adoptReq{
		Key:          req.Key,
		State:        uint8(ent.state),
		Owner:        int(ent.owner),
		Sharers:      sharers,
		SharerEpochs: epochs,
		OwnerEpoch:   ent.ownerEpoch,
		Heat:         heat,
	}
	if _, err := e.call(p, req.To, "coh.adopt", areq, ctrlSize); err != nil {
		// Adoption never happened: the home is unchanged, restore the heat.
		e.heat.Seed(req.Key, heat)
		return migrateResp{Err: fmt.Sprintf("adopt: %v", err)}, ctrlSize
	}
	for _, b := range e.alive {
		if b == e.self || b == req.To {
			continue
		}
		// Best-effort: a blade that misses this learns via Redirect.
		e.call(p, b, "coh.sethome", setHomeReq{Key: req.Key, Home: req.To}, ctrlSize)
	}
	e.forward[id] = req.To
	e.setHome(req.Key, req.To)
	ent.state, ent.owner, ent.ownerEpoch = dirInvalid, 0, 0 // the entry is the new home's now
	ent.sharers.reset()
	e.stats.HomeMigrations++
	return migrateResp{Moved: true}, ctrlSize
}

// handleAdopt installs a migrated directory entry as the new home.
func (e *Engine) handleAdopt(p *sim.Proc, from simnet.Addr, args any) (any, int) {
	req := args.(adoptReq)
	e.busy(p, HandlerDelay)
	id := e.ids.ID(req.Key)
	delete(e.forward, id)
	e.setHome(req.Key, e.self)
	ent := e.record(req.Key)
	ent.state = dirState(req.State)
	ent.owner = int16(req.Owner)
	ent.ownerEpoch = req.OwnerEpoch
	ent.sharers.reset()
	for i, s := range req.Sharers {
		ent.sharers.add(s, req.SharerEpochs[i])
	}
	e.heat.Seed(req.Key, req.Heat)
	e.prune(req.Key) // an Invalid entry needs no record
	e.stats.HomeAdoptions++
	return adoptResp{}, ctrlSize
}

// handleSetHome records a migrated key's new home address.
func (e *Engine) handleSetHome(p *sim.Proc, from simnet.Addr, args any) (any, int) {
	req := args.(setHomeReq)
	id := e.ids.ID(req.Key)
	if _, ok := e.forward[id]; ok {
		// This blade is an even older ex-home: keep its forwarder pointing
		// at the latest address so redirect chains stay one hop.
		e.forward[id] = req.Home
	}
	e.setHome(req.Key, req.Home)
	return setHomeResp{}, ctrlSize
}
