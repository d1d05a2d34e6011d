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
// engine. Counters register under hotcache/*. The tier routes hot reads
// from the moment it is built; a caller sends them through it with
// ReadCached (E15 does, through its workload target's ReadVia).
func (c *Cluster) NewHotCache(cfg hotcache.Config) *hotcache.Tier {
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
		Retry:   c.Cfg.Retry,
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
		return sim.Fork(p, "read-cached", count, func(q *sim.Proc, i int) error {
			d, err := node.Read(q, cache.Key{Vol: vol, LBA: lba + int64(i)}, priority)
			copy(buf[i*bs:], d)
			return err
		})
	})
	if err != nil {
		return nil, err
	}
	return buf, nil
}
