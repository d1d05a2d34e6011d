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
	e.busy(p, e.hdlDelay)
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
	ent := e.entry(req.Key)
	ent.mu.Lock(p)
	defer ent.mu.Unlock()
	// Quiesce point: holding the entry mutex means no GetS/GetX for this
	// key is mid-protocol on this blade.
	if _, ok := e.forward[req.Key]; ok {
		return migrateResp{Err: "already migrated"}, ctrlSize
	}
	if tracing(req.Key) {
		traceFn("t=%v home%d MIGRATE -> %d state=%d owner=%d sharers=%v",
			e.k.Now(), e.self, req.To, ent.state, ent.owner, ent.sharers)
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
		Owner:        ent.owner,
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
	e.forward[req.Key] = req.To
	e.setHomeOverride(req.Key, req.To)
	delete(e.dir, req.Key)
	e.stats.HomeMigrations++
	return migrateResp{Moved: true}, ctrlSize
}

// handleAdopt installs a migrated directory entry as the new home.
func (e *Engine) handleAdopt(p *sim.Proc, from simnet.Addr, args any) (any, int) {
	req := args.(adoptReq)
	e.busy(p, e.hdlDelay)
	delete(e.forward, req.Key)
	e.setHomeOverride(req.Key, e.self)
	ent := e.entry(req.Key)
	ent.state = dirState(req.State)
	ent.owner = req.Owner
	ent.ownerEpoch = req.OwnerEpoch
	ent.sharers.reset()
	for i, s := range req.Sharers {
		ent.sharers.add(s, req.SharerEpochs[i])
	}
	e.heat.Seed(req.Key, req.Heat)
	e.stats.HomeAdoptions++
	if tracing(req.Key) {
		traceFn("t=%v blade%d ADOPT state=%d owner=%d sharers=%v",
			e.k.Now(), e.self, ent.state, ent.owner, ent.sharers)
	}
	return adoptResp{}, ctrlSize
}

// handleSetHome records a migrated key's new home address.
func (e *Engine) handleSetHome(p *sim.Proc, from simnet.Addr, args any) (any, int) {
	req := args.(setHomeReq)
	if _, ok := e.forward[req.Key]; ok {
		// This blade is an even older ex-home: keep its forwarder pointing
		// at the latest address so redirect chains stay one hop.
		e.forward[req.Key] = req.Home
	}
	e.setHomeOverride(req.Key, req.Home)
	return setHomeResp{}, ctrlSize
}
