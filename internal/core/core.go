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
	"cmp"
	"fmt"

	"repro/internal/balance"
	"repro/internal/cache"
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
type Class = controller.StorageClass

// Options sizes a System. Zero values select the defaults noted per field
// (the cluster's are controller.DefaultConfig's).
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
	// (defaults 20/5/RAID5; the zero Level is RAID0, so a RAID0 tier is an
	// extra class).
	Disks         int
	DisksPerGroup int
	RAIDLevel     raid.Level
	// DiskSpec overrides the drive model (default disk.DefaultSpec()).
	DiskSpec disk.Spec
	// ExtraClasses adds storage classes with their own drives and level.
	ExtraClasses []Class
	// EncryptAtRest enables §5.1 storage-level encryption at the gateway.
	EncryptAtRest bool
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
	//	             sustained hot blades, at the balance package's
	//	             defaults (the hot-spot watchdog's thresholds).
	//	             Requires Telemetry (the scraper is its feedback
	//	             signal). Starts enabled.
	//	"hotcache" — the DistCache-style hot-key cache tier
	//	             (System.HotCache): one small cache node per blade,
	//	             keys partitioned by a hash independent of the
	//	             directory-home hash, two-choice routing between the
	//	             layers, write-through invalidation, at the hotcache
	//	             package's defaults (512 blocks/node, heat threshold
	//	             8, half-life 250ms). Starts DISABLED
	//	             (arm with System.HotCache.SetEnabled or yottactl
	//	             `rebalance on`).
	//	"off" / "" — no scheme.
	Rebalance string
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
	// Gateway, when non-nil, builds the S3-style object plane
	// (System.Gateway): an object API over the file system with yig's
	// three-tier split — in-memory IAM over System.Auth, a shardable
	// bucket-metadata index, and the existing data path billed to each
	// bucket owner's QoS identity. FS and Auth fields are filled in by
	// the constructor; set MetaShards/Layout/latencies to size the tiers.
	Gateway *gateway.Config
}

// fsVirtExtents sizes each class's backing DMSD — far larger than physical,
// per §3.
const fsVirtExtents = 1 << 20

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
	return NewSystemOn(sim.NewKernel(cmp.Or(opts.Seed, 1)), opts)
}

// NewSystemOn builds a system on an existing kernel (multi-site setups
// share one kernel).
func NewSystemOn(k *sim.Kernel, opts Options) (*System, error) {
	cfg := controller.DefaultConfig()
	cfg.Blades = cmp.Or(opts.Blades, cfg.Blades)
	cfg.CacheBlocksPerBlade = cmp.Or(opts.CacheBlocksPerBlade, cfg.CacheBlocksPerBlade)
	cfg.ReplicationN = cmp.Or(opts.ReplicationN, cfg.ReplicationN)
	cfg.Disks = cmp.Or(opts.Disks, cfg.Disks)
	cfg.DisksPerGroup = cmp.Or(opts.DisksPerGroup, cfg.DisksPerGroup)
	cfg.RAIDLevel = cmp.Or(opts.RAIDLevel, cfg.RAIDLevel)
	cfg.DiskSpec = opts.DiskSpec
	cfg.FabricRetry = opts.FabricRetry
	cfg.FabricFaults = opts.FabricFaults
	cfg.QoS = opts.QoS
	cfg.FabricBatch = opts.FabricBatch
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
	if _, err := cluster.CreateDMSD("default", "fs.default", fsVirtExtents); err != nil {
		return nil, err
	}
	for _, cl := range opts.ExtraClasses {
		if err := cluster.AddClass(cl); err != nil {
			return nil, err
		}
		vol := "fs." + cl.Name
		if _, err := cluster.CreateDMSD(cl.Name, vol, fsVirtExtents); err != nil {
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
		Authority:     auth,
		Mask:          mask,
		Store:         cluster,
		EncryptAtRest: opts.EncryptAtRest,
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
		sys.Balancer = cluster.NewBalancer(sys.Scraper, balance.Config{})
		sys.Rebalancer = sys.Balancer
		sys.stopBalance = sys.Balancer.Start()
	case RebalanceHotCache:
		sys.HotCache = cluster.NewHotCache(hotcache.Config{})
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
	return RunBody(s.K, horizon, body)
}

// RunBody executes body as a simulation process on k and advances virtual
// time in 100 ms steps until it completes or horizon (0 = 1 hour) has
// passed. The clock rests on the step boundary after the body's last event.
func RunBody(k *sim.Kernel, horizon sim.Duration, body func(p *sim.Proc) error) error {
	if horizon <= 0 {
		horizon = 3600 * sim.Second
	}
	var err error
	done := false
	k.Go("main", func(p *sim.Proc) {
		err = body(p)
		done = true
	})
	deadline := k.Now().Add(horizon)
	for !done && k.Now() < deadline {
		k.RunFor(100 * sim.Millisecond)
	}
	if !done {
		return fmt.Errorf("core: body did not complete within %v of virtual time", horizon)
	}
	return err
}

// VolumeTarget adapts one cluster volume to the workload Target shape: the
// one way a closed-loop client population drives a cluster.
type VolumeTarget struct {
	Cluster *controller.Cluster
	Vol     string
	// Pick chooses the blade the op at lba goes through; nil is the
	// host-side round-robin of Cluster.PickBlade (Cluster.HomeBlade is the
	// static-path host's choice).
	Pick func(lba int64) *controller.Blade
	// Tenant, when set, tags every op's process so the QoS admission bucket
	// and the scheduling lanes bill it.
	Tenant string
	// Priority is the cache/QoS priority every op carries (0..3); the QoS
	// front door maps it onto the foreground scheduling lane.
	Priority int
	// Offset shifts every op's LBA: a tenant's own region of a shared volume.
	Offset int64
	// ReadVia, when set, is the hot-key cache tier (E15) reads go through:
	// its power-of-two-choices routing sends each to the key's cache node
	// or to the picked blade — writes always go to the picked blade, where
	// write-through invalidation rides the exclusive grant — and every op
	// reports its blade to the tier so the load signal sees the full picture.
	ReadVia *hotcache.Tier
	// buf is reused for writes (content is irrelevant to the workload).
	buf []byte
}

// blade tags p with the tenant and returns the op's shifted LBA and blade.
func (t *VolumeTarget) blade(p *sim.Proc, lba int64) (int64, *controller.Blade) {
	if t.Tenant != "" {
		qos.SetCtx(p, qos.Ctx{Tenant: t.Tenant})
	}
	lba += t.Offset
	if t.Pick != nil {
		return lba, t.Pick(lba)
	}
	return lba, t.Cluster.PickBlade()
}

// BlockSize implements workload.Target.
func (t *VolumeTarget) BlockSize() int { return t.Cluster.BlockSize() }

// Read implements workload.Target.
func (t *VolumeTarget) Read(p *sim.Proc, lba int64, blocks int) error {
	lba, b := t.blade(p, lba)
	if tier := t.ReadVia; tier != nil && b != nil {
		id, viaCache := tier.Route(cache.Key{Vol: t.Vol, LBA: lba}, b.ID)
		defer tier.OpStart(id)()
		b = t.Cluster.Blade(id)
		if viaCache {
			_, err := t.Cluster.ReadCached(p, tier, b, t.Vol, lba, blocks, t.Priority)
			return err
		}
	}
	_, err := t.Cluster.Read(p, b, t.Vol, lba, blocks, t.Priority)
	return err
}

// Write implements workload.Target.
func (t *VolumeTarget) Write(p *sim.Proc, lba int64, blocks int) error {
	lba, b := t.blade(p, lba)
	if t.ReadVia != nil && b != nil {
		defer t.ReadVia.OpStart(b.ID)()
	}
	need := blocks * t.Cluster.BlockSize()
	if len(t.buf) < need {
		t.buf = make([]byte, need)
	}
	return t.Cluster.Write(p, b, t.Vol, lba, t.buf[:need], t.Priority)
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
	return RunBody(g.K, horizon, body)
}
