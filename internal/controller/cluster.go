// Package controller assembles the paper's architecture: an array of
// controller blades working "cooperatively as a single parallel computer to
// manage storage" (§2.1). Each blade couples a coherent block cache
// (internal/coherence), an N-way replication manager (internal/replication)
// and shared access to the virtualized disk pool (internal/virt over
// internal/raid over internal/disk), joined by a Fibre Channel fabric
// (internal/simnet). Any blade can serve any block of any volume.
package controller

import (
	"errors"
	"fmt"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/disk"
	"repro/internal/metrics"
	"repro/internal/qos"
	"repro/internal/raid"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/virt"
)

// Config sizes a cluster.
type Config struct {
	// Blades is the number of controller blades.
	Blades int
	// CacheBlocksPerBlade sizes each blade's cache (§2.2: "field
	// extendable cache memory ... pooled across controller blades").
	CacheBlocksPerBlade int
	// ReplicationN is the number of cache copies per dirty block
	// (1 = no replication, the traditional write-back exposure).
	ReplicationN int

	// Disks is the total number of drives in the farm.
	Disks int
	// DisksPerGroup is the RAID group width.
	DisksPerGroup int
	// RAIDLevel selects the group layout.
	RAIDLevel raid.Level
	// DiskSpec describes each drive; zero value = disk.DefaultSpec().
	DiskSpec disk.Spec
	// ExtentBlocks is the virtualization extent size in blocks.
	ExtentBlocks int64

	// OpDelay is CPU time per block operation on a blade.
	OpDelay sim.Duration
	// HandlerDelay is CPU time per coherence message handled.
	HandlerDelay sim.Duration
	// CPUSlots bounds a blade's concurrent operations.
	CPUSlots int
	// FlushInterval drives the background destager (0 = 20 ms).
	FlushInterval sim.Duration
	// NoPeerFetch disables cache-to-cache transfers (ablation).
	NoPeerFetch bool
	// ReadAhead prefetches this many blocks after sequential read runs.
	ReadAhead int
	// FabricRetry tunes the timeout/retry/backoff loop every blade wraps
	// around its protocol and replication RPCs. Zero fields select the
	// coherence defaults (2 s deadline, 3 attempts, 500 µs backoff).
	FabricRetry simnet.RetryPolicy
	// FabricFaults, when non-nil, injects seeded drop/duplicate/delay
	// faults on every fabric link at construction (see Cluster.SetFaultPlan
	// for enabling at runtime).
	FabricFaults *simnet.FaultPlan
	// Tracer, when non-nil, opens a root span per client Read/Write; the
	// context propagates through coherence, replication, fabric and disk.
	Tracer *trace.Tracer
	// QoS, when non-nil, builds the admission/fair-queueing subsystem:
	// per-tenant token buckets at the front door, weighted-fair lanes at
	// every disk and every blade's CPU. The subsystem starts disabled;
	// flip it with Cluster.QoS.SetEnabled (yottactl `qos on`).
	QoS *qos.Config
}

// DefaultConfig returns a mid-size lab configuration: 4 blades, RAID-5
// groups of 5 over 20 disks.
func DefaultConfig() Config {
	return Config{
		Blades:              4,
		CacheBlocksPerBlade: 4096,
		ReplicationN:        2,
		Disks:               20,
		DisksPerGroup:       5,
		RAIDLevel:           raid.RAID5,
		ExtentBlocks:        256,
		OpDelay:             10 * sim.Microsecond,
		HandlerDelay:        5 * sim.Microsecond,
		CPUSlots:            4,
	}
}

// Blade is one controller blade.
type Blade struct {
	ID     int
	Addr   simnet.Addr
	Conn   *simnet.Conn
	Engine *coherence.Engine
	Repl   *replication.Manager
	Down   bool
	// Ops counts client block operations served by this blade (the E3
	// load-balance metric).
	Ops int64

	stopFlusher func()
}

// Cluster is a single-site blade cluster over a shared disk pool.
type Cluster struct {
	K      *sim.Kernel
	Net    *simnet.Network
	Cfg    Config
	Blades []*Blade
	Farm   *disk.Farm
	Groups []*raid.Group
	Pool   *virt.Pool
	// classPools holds additional storage classes (see AddClass).
	classPools map[string]*virt.Pool

	// Errors counts client operations that failed (E10 availability).
	Errors int64
	rr     int // round-robin cursor for load balancing

	// QoS is the admission/fair-queueing subsystem (nil when Config.QoS
	// was nil). Throttled ops return qos.ErrThrottled without counting
	// against Errors: a shed is the contract working, not a failure.
	QoS *qos.Manager

	// Reg is the cluster's telemetry registry: every blade, disk and link
	// registers its counters here at construction under hierarchical names
	// (blade/3/cache/hits, disk/12/queue_depth, net/link/.../bytes).
	// Registration is closures only — nothing is sampled until a scraper
	// or an exporter reads it.
	Reg *telemetry.Registry
	// opLatency records every client Read/Write's virtual-time latency
	// (registered as cluster/op_latency — the SLO watchdog's p99 source).
	opLatency *metrics.Histogram
	// fabricBuf is FabricStats's reused result slice.
	fabricBuf []BladeFabricStats
}

// poolBacking adapts the cluster's pools to the coherence Backing
// interface, resolving volume names across every storage class.
type poolBacking struct{ c *Cluster }

func (b poolBacking) volume(name string) (*virt.Volume, error) {
	if v := b.c.findVolume(name); v != nil {
		return v, nil
	}
	return nil, fmt.Errorf("controller: no volume %q", name)
}

func (b poolBacking) ReadBlockInto(p *sim.Proc, key cache.Key, dst []byte) error {
	v, err := b.volume(key.Vol)
	if err != nil {
		return err
	}
	return v.ReadInto(p, key.LBA, dst)
}

func (b poolBacking) WriteBlocks(p *sim.Proc, key cache.Key, data []byte) error {
	v, err := b.volume(key.Vol)
	if err != nil {
		return err
	}
	return v.Write(p, key.LBA, data)
}

// New builds a cluster on k per cfg.
func New(k *sim.Kernel, cfg Config) (*Cluster, error) {
	if cfg.Blades <= 0 {
		return nil, errors.New("controller: need at least one blade")
	}
	if cfg.DiskSpec.BlockSize == 0 {
		cfg.DiskSpec = disk.DefaultSpec()
	}
	if cfg.FlushInterval == 0 {
		cfg.FlushInterval = 20 * sim.Millisecond
	}
	if cfg.ExtentBlocks == 0 {
		cfg.ExtentBlocks = 256
	}
	if cfg.DisksPerGroup <= 0 || cfg.Disks%cfg.DisksPerGroup != 0 {
		return nil, fmt.Errorf("controller: %d disks not divisible into groups of %d", cfg.Disks, cfg.DisksPerGroup)
	}

	net := simnet.New(k)
	c := &Cluster{K: k, Net: net, Cfg: cfg, classPools: make(map[string]*virt.Pool)}
	if cfg.QoS != nil {
		c.QoS = qos.NewManager(k, *cfg.QoS)
	}

	// Disk farm and RAID groups.
	c.Farm = disk.NewFarm(k, "disk", cfg.Disks, cfg.DiskSpec)
	if c.QoS != nil {
		// Each drive serves one I/O at a time; the fair queue arbitrates
		// which lane's head goes next.
		for _, d := range c.Farm.Disks {
			d.SetScheduler(c.QoS.NewFairQueue(1))
		}
	}
	var devices []virt.BlockDevice
	for g := 0; g < cfg.Disks/cfg.DisksPerGroup; g++ {
		grp, err := raid.NewGroup(k, cfg.RAIDLevel, c.Farm.Disks[g*cfg.DisksPerGroup:(g+1)*cfg.DisksPerGroup])
		if err != nil {
			return nil, err
		}
		c.Groups = append(c.Groups, grp)
		devices = append(devices, grp)
	}
	pool, err := virt.NewPool(k, cfg.ExtentBlocks, devices...)
	if err != nil {
		return nil, err
	}
	c.Pool = pool

	// Blades on the fabric.
	peers := make([]simnet.Addr, cfg.Blades)
	for i := range peers {
		peers[i] = simnet.Addr(fmt.Sprintf("blade%d", i))
		net.Connect(peers[i], "fabric", simnet.FC2G)
	}
	backing := poolBacking{c: c}
	for i := 0; i < cfg.Blades; i++ {
		conn := simnet.NewConn(net, peers[i])
		repl := replication.New(k, conn, peers, i, cfg.ReplicationN)
		repl.Retry = cfg.FabricRetry
		engCfg := coherence.Config{
			Conn:         conn,
			Peers:        peers,
			Self:         i,
			Cache:        cache.New(cfg.CacheBlocksPerBlade),
			Backing:      backing,
			BlockSize:    cfg.DiskSpec.BlockSize,
			OpDelay:      cfg.OpDelay,
			HandlerDelay: cfg.HandlerDelay,
			CPUSlots:     cfg.CPUSlots,
			NoPeerFetch:  cfg.NoPeerFetch,
			ReadAhead:    cfg.ReadAhead,
			Retry:        cfg.FabricRetry,
		}
		if cfg.ReplicationN > 1 {
			engCfg.ReplicateDirty = repl.ReplicateDirty
			engCfg.OnClean = repl.OnClean
		}
		if c.QoS != nil {
			slots := cfg.CPUSlots
			if slots <= 0 {
				slots = 4
			}
			engCfg.CPUQueue = c.QoS.NewFairQueue(slots)
		}
		eng := coherence.New(k, engCfg)
		b := &Blade{ID: i, Addr: peers[i], Conn: conn, Engine: eng, Repl: repl}
		b.stopFlusher = eng.StartFlusher(cfg.FlushInterval, 64)
		c.Blades = append(c.Blades, b)
	}
	if cfg.FabricFaults != nil {
		c.SetFaultPlan(*cfg.FabricFaults)
	}
	c.registerTelemetry()
	return c, nil
}

// registerTelemetry builds the cluster's named registry: cluster-level
// aggregates plus every blade's engine/cache/rpc/replication counters,
// every disk, and the fabric's per-link byte counts.
func (c *Cluster) registerTelemetry() {
	c.Reg = telemetry.NewRegistry()
	c.opLatency = metrics.NewHistogram()
	r := c.Reg
	r.Histogram("cluster/op_latency", c.opLatency)
	r.Int("cluster/errors", func() int64 { return c.Errors })
	r.Int("cluster/ops", func() int64 {
		var tot int64
		for _, b := range c.Blades {
			tot += b.Ops
		}
		return tot
	})
	r.Int("cluster/alive_blades", func() int64 { return int64(len(c.Alive())) })
	r.Int("cluster/degraded_ops", func() int64 { return c.FabricTotals().DegradedOps })
	for _, b := range c.Blades {
		b := b
		s := r.Sub(fmt.Sprintf("blade/%d", b.ID))
		s.Int("ops", func() int64 { return b.Ops })
		s.Int("down", func() int64 {
			if b.Down {
				return 1
			}
			return 0
		})
		b.Engine.RegisterTelemetry(s)
		b.Repl.RegisterTelemetry(s.Sub("repl"))
	}
	for i, d := range c.Farm.Disks {
		d.RegisterTelemetry(r.Sub(fmt.Sprintf("disk/%d", i)))
	}
	for i, g := range c.Groups {
		g.RegisterTelemetry(r.Sub(fmt.Sprintf("raid/%d", i)))
	}
	c.Net.RegisterTelemetry(r.Sub("net"))
	if c.QoS != nil {
		c.QoS.RegisterTelemetry(r.Sub("qos"))
	}
}

// SetFaultPlan injects plan on every fabric link (a zero plan disables
// injection) — the administrative knob behind availability drills: the
// cluster keeps serving, absorbing the faults in its retry layer.
func (c *Cluster) SetFaultPlan(plan simnet.FaultPlan) {
	c.Net.SetFaultsAll(plan)
}

// BladeFabricStats is one blade's fault-handling counters.
type BladeFabricStats struct {
	Blade int
	// RPC counts this blade's client-side calls, timeouts, retries and
	// gave-up calls (coherence protocol + replication pushes combined).
	RPC simnet.RPCStats
	// DegradedOps counts operations the blade abandoned in degraded mode.
	DegradedOps int64
	// WritebackErrors counts failed destages of dirty blocks.
	WritebackErrors int64
}

func (b *Blade) fabricStats() BladeFabricStats {
	st := b.Engine.Stats()
	return BladeFabricStats{
		Blade:           b.ID,
		RPC:             b.Engine.RPCStats(),
		DegradedOps:     st.DegradedOps,
		WritebackErrors: st.WritebackErrors,
	}
}

// FabricStats reports each blade's fault-handling counters (dead blades
// included — their counters simply stop moving), ordered by blade ID. The
// returned slice is reused across calls to avoid re-allocating it on every
// status poll; copy it if you need to retain a snapshot.
func (c *Cluster) FabricStats() []BladeFabricStats {
	if c.fabricBuf == nil {
		c.fabricBuf = make([]BladeFabricStats, len(c.Blades))
	}
	for i, b := range c.Blades {
		c.fabricBuf[i] = b.fabricStats()
	}
	return c.fabricBuf
}

// FabricTotals sums the per-blade fabric counters. It reads the blades
// directly rather than materializing the FabricStats slice first.
func (c *Cluster) FabricTotals() BladeFabricStats {
	var tot BladeFabricStats
	tot.Blade = -1
	for _, b := range c.Blades {
		s := b.fabricStats()
		tot.RPC.Calls += s.RPC.Calls
		tot.RPC.Timeouts += s.RPC.Timeouts
		tot.RPC.Retries += s.RPC.Retries
		tot.RPC.GaveUp += s.RPC.GaveUp
		tot.DegradedOps += s.DegradedOps
		tot.WritebackErrors += s.WritebackErrors
	}
	return tot
}

// Stop halts background processes so the simulation's event queue drains.
func (c *Cluster) Stop() {
	for _, b := range c.Blades {
		if b.stopFlusher != nil {
			b.stopFlusher()
		}
	}
}

// BlockSize returns the cluster's block size in bytes.
func (c *Cluster) BlockSize() int { return c.Pool.BlockSize() }

// Alive returns the IDs of blades not marked down.
func (c *Cluster) Alive() []int {
	var out []int
	for _, b := range c.Blades {
		if !b.Down {
			out = append(out, b.ID)
		}
	}
	return out
}

// PickBlade returns a live blade round-robin — the host-side load
// balancing of §2.2. Returns nil if every blade is down.
func (c *Cluster) PickBlade() *Blade {
	for i := 0; i < len(c.Blades); i++ {
		b := c.Blades[c.rr%len(c.Blades)]
		c.rr++
		if !b.Down {
			return b
		}
	}
	return nil
}

// Blade returns blade id, or nil when out of range.
func (c *Cluster) Blade(id int) *Blade {
	if id < 0 || id >= len(c.Blades) {
		return nil
	}
	return c.Blades[id]
}

// admit is the QoS front door, run before an op's trace root opens or its
// latency clock starts: it stamps the caller's lane from the op's cache
// priority (preserving an explicit background tag and any tenant name the
// client set via qos.SetCtx), then charges the tenant's token bucket —
// possibly sleeping for tokens, possibly shedding with qos.ErrThrottled.
// Sheds are the contract working, so they bypass the Errors counter and
// the latency histogram. Without a QoS config the stamp still happens
// (the lane gauges are always live) and admission is free.
func (c *Cluster) admit(p *sim.Proc, priority, count int) error {
	qctx := qos.FromProc(p)
	if qctx.Lane != qos.LaneBackground {
		qctx.Lane = qos.ClampLane(priority)
	}
	qos.SetCtx(p, qctx)
	if c.QoS == nil {
		return nil
	}
	return c.QoS.Admit(p, qctx.Tenant, count)
}

// observeOp records one completed client op's latency: into the
// cluster-wide histogram always (tagged with the op's trace ID so
// histogram buckets carry exemplars back to a concrete traced op), and
// into the calling tenant's SLO histogram when QoS is configured — the
// signal the governor's per-tenant PI loops regulate against.
func (c *Cluster) observeOp(p *sim.Proc, d sim.Duration, traceID uint64) {
	c.opLatency.ObserveTraced(d, traceID)
	if c.QoS != nil {
		c.QoS.ObserveOp(qos.FromProc(p).Tenant, d)
	}
}

// op is the skeleton of every client op: bytes of volume vol at lba through
// blade b, the op itself being body. It rejects an op on an unavailable
// blade or of a length that is not whole blocks (counted in Errors), admits
// it through the QoS front door, opens the op's trace root — named name —
// over body, and accounts the outcome: latency, the blade's Ops, Errors.
func (c *Cluster) op(p *sim.Proc, b *Blade, name, vol string, lba int64, bytes, priority int, body func() error) error {
	var err error
	bs := c.BlockSize()
	if b == nil || b.Down {
		err = errors.New("controller: blade unavailable")
	} else if bytes%bs != 0 {
		err = fmt.Errorf("controller: %s of %d bytes not block-aligned", name, bytes)
	}
	if err != nil {
		c.Errors++
		return err
	}
	count := bytes / bs
	if err := c.admit(p, priority, count); err != nil {
		return err
	}
	var root *trace.Active
	if c.Cfg.Tracer.Enabled() {
		root = c.Cfg.Tracer.StartTrace(name, trace.Op, fmt.Sprintf("blade%d", b.ID))
		root.Detail("%s@%d+%d", vol, lba, count)
	}
	t0 := p.Now()
	pop := root.Push(p)
	err = body()
	pop()
	root.End()
	c.observeOp(p, p.Now().Sub(t0), root.TraceID())
	b.Ops += int64(count)
	if err != nil {
		c.Errors++
	}
	return err
}

// Read reads count blocks of volume vol at lba through blade b as one
// run-granular coherence op (see coherence.Engine.ReadRun).
func (c *Cluster) Read(p *sim.Proc, b *Blade, vol string, lba int64, count int, priority int) ([]byte, error) {
	var buf []byte
	bytes := count * c.BlockSize()
	err := c.op(p, b, "read", vol, lba, bytes, priority, func() error {
		buf = make([]byte, bytes)
		return b.Engine.ReadRun(p, vol, lba, priority, buf)
	})
	if err != nil {
		return nil, err
	}
	return buf, nil
}

// Write stores block-aligned data to volume vol at lba through blade b.
func (c *Cluster) Write(p *sim.Proc, b *Blade, vol string, lba int64, data []byte, priority int) error {
	return c.WriteR(p, b, vol, lba, data, priority, 0)
}

// WriteR is Write with an explicit per-write replication factor
// (0 = cluster default), used by the PFS per-file policies (§4).
func (c *Cluster) WriteR(p *sim.Proc, b *Blade, vol string, lba int64, data []byte, priority, replFactor int) error {
	return c.op(p, b, "write", vol, lba, len(data), priority, func() error {
		return b.Engine.WriteRun(p, vol, lba, data, priority, replFactor)
	})
}

// FlushAll synchronously destages every blade's dirty blocks.
func (c *Cluster) FlushAll(p *sim.Proc) {
	for _, b := range c.Blades {
		if !b.Down {
			b.Engine.FlushOnce(p, 0)
		}
	}
}
