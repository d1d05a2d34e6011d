package controller

import (
	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/hotcache"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// NewHotCache wires the DistCache-style upper cache tier to this cluster:
// one cache node per blade over the blades' own RPC connections (the
// write-through invalidations ride the same fabric and retry policy as
// coherence traffic), with the exclusive-grant hook installed on every
// engine. Counters register under hotcache/*. The tier starts disabled;
// SetEnabled (or yottactl `rebalance on` with the hotcache scheme) arms
// it.
func (c *Cluster) NewHotCache(cfg hotcache.Config) *hotcache.Tier {
	if cfg.OpDelay <= 0 {
		cfg.OpDelay = c.Cfg.OpDelay
	}
	engines := make([]*coherence.Engine, len(c.Blades))
	conns := make([]*simnet.Conn, len(c.Blades))
	peers := make([]simnet.Addr, len(c.Blades))
	for i, b := range c.Blades {
		engines[i] = b.Engine
		conns[i] = b.Conn
		peers[i] = b.Addr
	}
	t := hotcache.New(cfg, hotcache.Deps{
		K:       c.K,
		Engines: engines,
		Conns:   conns,
		Peers:   peers,
		Retry:   coherence.NormalizeRetry(c.Cfg.FabricRetry),
		Down:    func(blade int) bool { return c.Blades[blade].Down },
	})
	t.RegisterTelemetry(c.Reg.Sub("hotcache"))
	return t
}

// ReadCached reads count blocks through blade b's cache node in tier —
// the upper-layer counterpart of Read. Hits are served from the node's
// store; misses read through the blade's coherence engine and fill the
// node. It runs under the same op skeleton as Read, so the load-balance
// metrics compare the two paths fairly.
func (c *Cluster) ReadCached(p *sim.Proc, tier *hotcache.Tier, b *Blade, vol string, lba int64, count int, priority int) ([]byte, error) {
	bs := c.BlockSize()
	var buf []byte
	err := c.op(p, b, "read-cached", vol, lba, count*bs, priority, func() error {
		node := tier.Node(b.ID)
		buf = make([]byte, count*bs)
		if count == 1 {
			// The hot path: single-block hot-key reads. No fan-out process.
			d, err := node.Read(p, cache.Key{Vol: vol, LBA: lba}, priority)
			copy(buf, d)
			return err
		}
		grp := sim.NewGroup(c.K)
		var firstErr error
		for i := 0; i < count; i++ {
			grp.Add(1)
			c.K.Go("read-cached", func(q *sim.Proc) {
				defer grp.Done()
				d, err := node.Read(q, cache.Key{Vol: vol, LBA: lba + int64(i)}, priority)
				if err != nil && firstErr == nil {
					firstErr = err
				}
				copy(buf[i*bs:], d)
			})
		}
		grp.Wait(p)
		return firstErr
	})
	if err != nil {
		return nil, err
	}
	return buf, nil
}
