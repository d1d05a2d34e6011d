// Package core assembles the complete system the paper envisions: a blade
// cluster with coherent pooled caches (internal/controller), demand-mapped
// virtualization over RAID groups (internal/virt, internal/raid), the
// parallel file system with per-file policies (internal/pfs), the security
// ring (internal/security), and optional multi-site federation
// (internal/georepl) — behind one constructor.
//
// This is the public face of the repository: every example and benchmark
// builds a System (or a Federation of Systems) and drives it.
package core

import (
	"fmt"

	"repro/internal/balance"
	"repro/internal/controller"
	"repro/internal/disk"
	"repro/internal/gateway"
	"repro/internal/georepl"
	"repro/internal/hotcache"
	"repro/internal/pfs"
	"repro/internal/qos"
	"repro/internal/raid"
	"repro/internal/security"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Class describes one storage class beyond the default (§4: per-file RAID
// type selection maps files onto classes).
type Class struct {
	Name          string
	Level         raid.Level
	Disks         int
	DisksPerGroup int
}

// Options sizes a System. Zero values select the defaults noted per field.
type Options struct {
	// Seed drives all randomness (default 1).
	Seed int64
	// Blades is the controller blade count (default 4).
	Blades int
	// CacheBlocksPerBlade sizes each blade cache (default 4096).
	CacheBlocksPerBlade int
	// ReplicationN is the default write-cache copies (default 2).
	ReplicationN int
	// Disks/DisksPerGroup/RAIDLevel shape the default class
	// (defaults 20/5/RAID5).
	Disks         int
	DisksPerGroup int
	RAIDLevel     raid.Level
	// DiskSpec overrides the drive model (default disk.DefaultSpec()).
	DiskSpec disk.Spec
	// ExtraClasses adds storage classes with their own drives and level.
	ExtraClasses []Class
	// EncryptAtRest enables §5.1 storage-level encryption at the gateway.
	EncryptAtRest bool
	// EncThroughputBps models each encryption engine (0 = free).
	EncThroughputBps int64
	// FSVirtExtents sizes each class's backing DMSD (default 1<<20
	// extents — far larger than physical, per §3).
	FSVirtExtents int64
	// FabricRetry tunes the blade fabric's timeout/retry/backoff loop
	// (zero fields = coherence defaults).
	FabricRetry simnet.RetryPolicy
	// FabricFaults, when non-nil, injects seeded drop/duplicate/delay
	// faults on every fabric link from construction.
	FabricFaults *simnet.FaultPlan
	// Trace attaches a per-operation tracer (System.Tracer), enabled from
	// construction. Spans are stamped from virtual time, so traced runs
	// are deterministic per seed and timing is unaffected.
	Trace bool
	// Telemetry, when positive, starts the virtual-time metrics scraper
	// (System.Scraper) at this interval with the default watchdogs armed
	// (hot-spot over per-blade ops, stall over disk queues). The cluster's
	// named registry (System.Registry) exists either way; like tracing,
	// scraping is deterministic per seed and moves no simulated events.
	Telemetry sim.Duration
	// SLOReadP99, with Telemetry, arms the SLO watchdog: a scrape window
	// whose p99 op latency exceeds this emits an slo event, as do client
	// errors and degraded-mode entry/exit. Zero leaves latency unwatched.
	SLOReadP99 sim.Duration
	// Rebalance selects the load-spreading scheme behind the uniform
	// Rebalancer interface (System.Rebalancer):
	//
	//	"migrate"  — the adaptive hot-spot balancer (System.Balancer):
	//	             watches the scraper's per-blade load series and
	//	             migrates directory homes of the hottest blocks off
	//	             sustained hot blades. Requires Telemetry (the
	//	             scraper is its feedback signal). Starts enabled.
	//	"hotcache" — the DistCache-style hot-key cache tier
	//	             (System.HotCache): one small cache node per blade,
	//	             keys partitioned by a hash independent of the
	//	             directory-home hash, two-choice routing between the
	//	             layers, write-through invalidation. Starts DISABLED
	//	             (arm with System.HotCache.SetEnabled or yottactl
	//	             `rebalance on`).
	//	"off" / "" — no scheme.
	Rebalance string
	// BalanceConfig overrides the migration balancer's thresholds and
	// pacing (zero fields mirror the hot-spot watchdog defaults).
	BalanceConfig balance.Config
	// HotCacheConfig sizes the cache tier (zero fields = hotcache
	// defaults: 512 blocks/node, heat threshold 8, half-life 250ms).
	HotCacheConfig hotcache.Config
	// QoS, when non-nil, builds the multi-tenant admission-control and
	// weighted-fair scheduling subsystem (System.QoS): per-tenant token
	// buckets at the controller front door and priority lanes at every
	// disk and blade CPU, with a feedback governor attached when Telemetry
	// is also on. The governor defaults to a PI controller driving the
	// background lane's weight continuously from one loop per latency
	// objective: the cluster-wide target (Governor.P99Target, defaulting
	// to SLOReadP99) plus one loop per tenant whose TenantSpec sets
	// SLOP99; qos.GovStep selects the legacy halve/double law. The
	// subsystem starts disabled; System.QoS.SetEnabled (yottactl `qos on`)
	// flips it.
	QoS *qos.Config
	// FabricBatch enables the batched fabric plane from construction:
	// frame coalescing on every blade's RPC connection plus vectorized
	// coherence ops. Off by default — the unbatched plane is bit-exact
	// with prior builds; toggle at runtime with Cluster.SetFabricBatch
	// (yottactl `batch on|off`).
	FabricBatch bool
	// FabricBatchPolicy tunes coalescing (zero fields = simnet defaults).
	FabricBatchPolicy simnet.BatchPolicy
	// Gateway, when non-nil, builds the S3-style object plane
	// (System.Gateway): an object API over the file system with yig's
	// three-tier split — in-memory IAM over System.Auth, a shardable
	// bucket-metadata index, and the existing data path billed to each
	// bucket owner's QoS identity. FS and Auth fields are filled in by
	// the constructor; set MetaShards/Layout/latencies to size the tiers.
	Gateway *gateway.Config
}

func (o *Options) fillDefaults() {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Blades == 0 {
		o.Blades = 4
	}
	if o.CacheBlocksPerBlade == 0 {
		o.CacheBlocksPerBlade = 4096
	}
	if o.ReplicationN == 0 {
		o.ReplicationN = 2
	}
	if o.Disks == 0 {
		o.Disks = 20
	}
	if o.DisksPerGroup == 0 {
		o.DisksPerGroup = 5
	}
	if o.RAIDLevel == 0 {
		// The zero Level is RAID0; the system default is RAID5. Use an
		// extra class for a RAID0 tier.
		o.RAIDLevel = raid.RAID5
	}
	if o.FSVirtExtents == 0 {
		o.FSVirtExtents = 1 << 20
	}
}

// System is one data center: cluster + file system + security ring.
type System struct {
	K       *sim.Kernel
	Cluster *controller.Cluster
	FS      *pfs.FS
	Auth    *security.Authority
	Mask    *security.LUNMask
	// BlockGateway is the §5 block-export front door (token checks, LUN
	// masking, at-rest encryption) — the SAN face of the pool.
	BlockGateway *security.Gateway
	// Gateway is the S3-style object plane; non-nil when Options.Gateway
	// was set.
	Gateway *gateway.Gateway
	// Tracer is non-nil when Options.Trace was set.
	Tracer *trace.Tracer
	// Registry is the cluster's named-metric registry (always available).
	Registry *telemetry.Registry
	// Scraper is non-nil when Options.Telemetry was set; it is already
	// started and is stopped by System.Stop.
	Scraper *telemetry.Scraper
	// Balancer is non-nil when the "migrate" scheme was selected; it is
	// already started and is stopped by System.Stop.
	Balancer *balance.Controller
	// HotCache is non-nil when the "hotcache" scheme was selected; it
	// starts disabled.
	HotCache *hotcache.Tier
	// Rebalancer is the scheme-independent handle over whichever of
	// Balancer/HotCache was built (nil with Rebalance off).
	Rebalancer Rebalancer
	// QoS is non-nil when Options.QoS was set; it starts disabled.
	QoS *qos.Manager

	stopScrape  func()
	stopBalance func()
}

// NewSystem builds a system on its own kernel.
func NewSystem(opts Options) (*System, error) {
	opts.fillDefaults()
	k := sim.NewKernel(opts.Seed)
	return NewSystemOn(k, opts)
}

// NewSystemOn builds a system on an existing kernel (multi-site setups
// share one kernel).
func NewSystemOn(k *sim.Kernel, opts Options) (*System, error) {
	opts.fillDefaults()
	cfg := controller.DefaultConfig()
	cfg.Blades = opts.Blades
	cfg.CacheBlocksPerBlade = opts.CacheBlocksPerBlade
	cfg.ReplicationN = opts.ReplicationN
	cfg.Disks = opts.Disks
	cfg.DisksPerGroup = opts.DisksPerGroup
	cfg.RAIDLevel = opts.RAIDLevel
	cfg.DiskSpec = opts.DiskSpec
	cfg.FabricRetry = opts.FabricRetry
	cfg.FabricFaults = opts.FabricFaults
	cfg.QoS = opts.QoS
	cfg.FabricBatch = opts.FabricBatch
	cfg.FabricBatchPolicy = opts.FabricBatchPolicy
	var tracer *trace.Tracer
	if opts.Trace {
		tracer = trace.NewTracer(k)
		tracer.SetEnabled(true)
		cfg.Tracer = tracer
	}
	cluster, err := controller.New(k, cfg)
	if err != nil {
		return nil, err
	}
	classes := map[string]string{"default": "fs.default"}
	if _, err := cluster.CreateDMSD("default", "fs.default", opts.FSVirtExtents); err != nil {
		return nil, err
	}
	for _, cl := range opts.ExtraClasses {
		if err := cluster.AddClass(controller.StorageClass{
			Name: cl.Name, Level: cl.Level, Disks: cl.Disks, DisksPerGroup: cl.DisksPerGroup,
		}); err != nil {
			return nil, err
		}
		vol := "fs." + cl.Name
		if _, err := cluster.CreateDMSD(cl.Name, vol, opts.FSVirtExtents); err != nil {
			return nil, err
		}
		classes[cl.Name] = vol
	}
	fs, err := pfs.New(k, pfs.Config{
		IO:           cluster,
		Classes:      classes,
		DefaultClass: "default",
	})
	if err != nil {
		return nil, err
	}
	auth := security.NewAuthority(k)
	mask := security.NewLUNMask()
	gw := security.NewGateway(security.GatewayConfig{
		Authority:        auth,
		Mask:             mask,
		Store:            cluster,
		EncryptAtRest:    opts.EncryptAtRest,
		EncThroughputBps: opts.EncThroughputBps,
	})
	sys := &System{K: k, Cluster: cluster, FS: fs, Auth: auth, Mask: mask, BlockGateway: gw,
		Tracer: tracer, Registry: cluster.Reg, QoS: cluster.QoS}
	if opts.Gateway != nil {
		gcfg := *opts.Gateway
		gcfg.FS = fs
		gcfg.Auth = auth
		sys.Gateway, err = gateway.New(k, gcfg)
		if err != nil {
			return nil, err
		}
		sys.Gateway.RegisterTelemetry(cluster.Reg.Sub("gateway"))
	}
	if opts.Telemetry > 0 {
		sys.Scraper = telemetry.NewScraper(k, cluster.Reg, opts.Telemetry)
		sys.Scraper.Tracer = tracer
		sys.Scraper.AddWatchdog(&telemetry.HotSpot{Pattern: "blade/*/ops"})
		sys.Scraper.AddWatchdog(&telemetry.Stall{Queue: "disk/*/queue_depth", Throughput: "cluster/ops"})
		sys.Scraper.AddWatchdog(&telemetry.SLO{
			Hist:     "cluster/op_latency",
			P99Max:   opts.SLOReadP99,
			Errors:   "cluster/errors",
			Degraded: "cluster/degraded_ops",
		})
		if sys.QoS != nil {
			// The governor defends the same objective the SLO watchdog
			// enforces, regulating to NearFrac of the threshold so the
			// watchdog stays quiet; per-tenant SLOP99 loops ride along.
			gcfg := opts.QoS.Governor
			if gcfg.P99Target == 0 {
				gcfg.P99Target = opts.SLOReadP99
			}
			sys.Scraper.AddWatchdog(sys.QoS.AttachGovernor(gcfg))
		}
		sys.stopScrape = sys.Scraper.Start()
	}
	switch opts.Rebalance {
	case "", RebalanceOff:
	case RebalanceMigrate:
		if sys.Scraper == nil {
			return nil, fmt.Errorf("core: Rebalance=%q requires Telemetry (the scraper is the rebalancer's feedback signal)", RebalanceMigrate)
		}
		sys.Balancer = cluster.NewBalancer(sys.Scraper, opts.BalanceConfig)
		sys.Rebalancer = sys.Balancer
		sys.stopBalance = sys.Balancer.Start()
	case RebalanceHotCache:
		sys.HotCache = cluster.NewHotCache(opts.HotCacheConfig)
		sys.Rebalancer = sys.HotCache
	default:
		return nil, fmt.Errorf("core: unknown Rebalance scheme %q (want migrate, hotcache, or off)", opts.Rebalance)
	}
	return sys, nil
}

// Stop halts the system's background processes so the simulation drains.
func (s *System) Stop() {
	if s.stopBalance != nil {
		s.stopBalance()
		s.stopBalance = nil
	}
	if s.stopScrape != nil {
		s.stopScrape()
		s.stopScrape = nil
	}
	s.Cluster.Stop()
}

// Run executes the body as a simulation process and advances virtual time
// until it completes (bounded by horizon; 0 = 1 hour of virtual time).
func (s *System) Run(horizon sim.Duration, body func(p *sim.Proc) error) error {
	if horizon <= 0 {
		horizon = 3600 * sim.Second
	}
	var err error
	done := false
	s.K.Go("main", func(p *sim.Proc) {
		err = body(p)
		done = true
	})
	deadline := s.K.Now().Add(horizon)
	for !done && s.K.Now() < deadline {
		s.K.RunFor(100 * sim.Millisecond)
	}
	if !done {
		return fmt.Errorf("core: body did not complete within %v of virtual time", horizon)
	}
	return err
}

// VolumeTarget adapts one cluster volume to the workload Target shape.
type VolumeTarget struct {
	Cluster *controller.Cluster
	Vol     string
	// Priority is the cache/QoS priority every op carries (0..3); the QoS
	// front door maps it onto the foreground scheduling lane.
	Priority int
	// data reused for writes (content is irrelevant to the workload).
	scratch []byte
}

// BlockSize implements workload.Target.
func (t *VolumeTarget) BlockSize() int { return t.Cluster.BlockSize() }

// Read implements workload.Target.
func (t *VolumeTarget) Read(p *sim.Proc, lba int64, blocks int) error {
	_, err := t.Cluster.ReadBlocks(p, t.Vol, lba, blocks, t.Priority)
	return err
}

// Write implements workload.Target.
func (t *VolumeTarget) Write(p *sim.Proc, lba int64, blocks int) error {
	need := blocks * t.Cluster.BlockSize()
	if len(t.scratch) < need {
		t.scratch = make([]byte, need)
		for i := range t.scratch {
			t.scratch[i] = byte(i)
		}
	}
	return t.Cluster.WriteBlocks(p, t.Vol, lba, t.scratch[:need], t.Priority, 0)
}

// GeoOptions describes a multi-site federation of Systems.
type GeoOptions struct {
	// Sites lists the site names.
	Sites []string
	// SiteOptions builds each site's System options.
	SiteOptions func(name string) Options
	// WANOneWay is the inter-site propagation delay.
	WANOneWay sim.Duration
	// WANBps is the inter-site bandwidth.
	WANBps int64
	// Geo tunes prefetch/promotion/shipping.
	Geo georepl.Config
}

// GeoSystem is a federation of full Systems on one kernel.
type GeoSystem struct {
	K       *sim.Kernel
	Fed     *georepl.Federation
	Systems map[string]*System
}

// NewGeoSystem builds len(opts.Sites) Systems on one kernel, connects them
// in a full WAN mesh, and federates their file systems.
func NewGeoSystem(seed int64, g GeoOptions) (*GeoSystem, error) {
	if len(g.Sites) < 2 {
		return nil, fmt.Errorf("core: federation needs ≥2 sites")
	}
	if g.WANBps == 0 {
		g.WANBps = 1_000_000_000
	}
	k := sim.NewKernel(seed)
	fed := georepl.NewFederation(k, g.Geo)
	gs := &GeoSystem{K: k, Fed: fed, Systems: make(map[string]*System)}
	for _, name := range g.Sites {
		opts := Options{}
		if g.SiteOptions != nil {
			opts = g.SiteOptions(name)
		}
		sys, err := NewSystemOn(k, opts)
		if err != nil {
			return nil, err
		}
		gs.Systems[name] = sys
		fed.AddSite(name, sys.FS)
	}
	for i, a := range g.Sites {
		for _, b := range g.Sites[i+1:] {
			fed.Connect(a, b, simnet.WAN(g.WANOneWay, g.WANBps))
		}
	}
	return gs, nil
}

// Site returns the georepl site handle for name.
func (g *GeoSystem) Site(name string) *georepl.Site {
	s, _ := g.Fed.Site(name)
	return s
}

// Stop halts all background processes (flushers, shippers).
func (g *GeoSystem) Stop() {
	for _, sys := range g.Systems {
		sys.Stop()
	}
	for _, name := range g.Fed.Sites() {
		if s, err := g.Fed.Site(name); err == nil {
			s.StopShipper()
		}
	}
}

// Run is System.Run for a federation.
func (g *GeoSystem) Run(horizon sim.Duration, body func(p *sim.Proc) error) error {
	if horizon <= 0 {
		horizon = 3600 * sim.Second
	}
	var err error
	done := false
	g.K.Go("main", func(p *sim.Proc) {
		err = body(p)
		done = true
	})
	deadline := g.K.Now().Add(horizon)
	for !done && g.K.Now() < deadline {
		g.K.RunFor(100 * sim.Millisecond)
	}
	if !done {
		return fmt.Errorf("core: body did not complete within %v of virtual time", horizon)
	}
	return err
}
