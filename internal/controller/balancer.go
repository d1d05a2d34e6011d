package controller

import (
	"repro/internal/balance"
	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/simnet"
	"repro/internal/telemetry"
)

// HomeBlade returns the live blade currently homing block lba of vol — the
// routing a SAN host with a static path to "its" controller would use
// (§2.2) — and a round-robin blade when there is none. Migration overrides
// are visible through any live engine's view, so migrated homes pull their
// traffic with them.
func (c *Cluster) HomeBlade(vol string, lba int64) *Blade {
	key := cache.Key{Vol: vol, LBA: lba}
	for _, b := range c.Blades {
		if b.Down {
			continue
		}
		if h, err := b.Engine.Home(key); err == nil {
			if hb := c.Blades[h]; !hb.Down {
				return hb
			}
			break
		}
	}
	return c.PickBlade()
}

// NewBalancer wires a hot-spot rebalance controller to this cluster: it
// gets its own fabric endpoint (migrations are real protocol RPCs, subject
// to the same link model and retry policy as blade traffic), the blades'
// engines for heat inspection, and scr's per-blade load series as the
// feedback signal. Counters register under balance/*. The caller starts
// and stops the returned controller.
func (c *Cluster) NewBalancer(scr *telemetry.Scraper, cfg balance.Config) *balance.Controller {
	const addr = simnet.Addr("balancer")
	c.Net.Connect(addr, "fabric", simnet.FC2G)
	conn := simnet.NewConn(c.Net, addr)
	engines := make([]*coherence.Engine, len(c.Blades))
	peers := make([]simnet.Addr, len(c.Blades))
	for i, b := range c.Blades {
		engines[i] = b.Engine
		peers[i] = b.Addr
	}
	ctl := balance.New(cfg, balance.Deps{
		K:       c.K,
		Scraper: scr,
		Engines: engines,
		Alive:   c.Alive,
		Conn:    conn,
		Peers:   peers,
		Tracer:  c.Cfg.Tracer,
		Retry:   c.Cfg.Retry,
	})
	ctl.RegisterTelemetry(c.Reg.Sub("balance"))
	return ctl
}
