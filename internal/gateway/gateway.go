// Package gateway is the S3-style object plane over the shared pool —
// the paper's §8 "network integration" claim grown to production shape.
// It follows yig's three-tier split (SNIPPETS.md §1):
//
//   - IAM tier: token auth through security.Authority plus an in-memory
//     mirror of every bucket's owner/ACL, so authorization never touches
//     pfs or the block path (asserted by test).
//   - Metadata index tier: bucket records, sorted key indexes and
//     object-version → layout maps, sharded by bucket across serial
//     index servers. This tier saturates first; adding shards moves the
//     gateway's throughput ceiling (experiment E16).
//   - Data tier: the existing controller → coherence → disk path via
//     pfs, with each op tagged with the bucket owner's qos.Ctx so
//     admission control and the PI governors bill the right tenant.
//
// Large objects split into fixed-size parts (classes can stripe them
// across volumes); small objects aggregate into shared segment files so
// per-blade IOPS stay balanced under millions of tiny objects.
package gateway

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/pfs"
	"repro/internal/qos"
	"repro/internal/security"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Config assembles a Gateway.
type Config struct {
	// FS is the parallel file system holding object data (required).
	FS *pfs.FS
	// Auth is the security authority every token resolves through
	// (required — there is no gateway-local token path).
	Auth *security.Authority
	// MetaShards is the index-server count (default 1).
	MetaShards int
	// MetaOpTime is the modeled service time per index op
	// (default DefaultMetaOpTime).
	MetaOpTime sim.Duration

	// layout shapes part splitting and segment aggregation; the zero value
	// is the gateway's layout, and the package's tests shrink it.
	layout LayoutConfig
}

// defaultPriority is the cache/QoS priority of bucket data when a bucket
// does not choose its own.
const defaultPriority = 0

// BucketOptions configures CreateBucket.
type BucketOptions struct {
	ACL ACL
	// Priority sets this bucket's data priority, 0..3 (-1 = inherit
	// defaultPriority, 0).
	Priority int
}

// Gateway is the object API front end.
type Gateway struct {
	fs   *pfs.FS
	iam  *IAM
	meta *Meta
	cfg  Config

	// reading tracks the object versions GETs are reading right now, so that
	// a replaced version's part files outlive its last reader (see free).
	reading map[verKey]*verReaders
	fronts  map[string]*front // per bucket, made beside its IAM entry
	tenants map[qos.Ctx]any   // one boxed QoS context per tenant and lane

	puts, gets, lists int64
	bytesIn, bytesOut int64
}

// front is one bucket's front-end record, from which a PUT names and places
// its version without an index op (DESIGN §14); a PUT that fails leaves its
// number and segment slice unused.
type front struct {
	priority int // cache/QoS priority of the bucket's data (0..3)
	nextSeq  uint64
	seg      SegCursor
}

// verKey names one stored version: sequence numbers are unique per bucket.
type verKey struct {
	bucket string
	seq    uint64
}

// verReaders is one version's in-flight GET count, plus the part files an
// index op unlinked while they were reading.
type verReaders struct {
	n      int
	doomed []Part
}

// New builds a gateway over fs and auth.
func New(k *sim.Kernel, cfg Config) (*Gateway, error) {
	if cfg.FS == nil || cfg.Auth == nil {
		return nil, fmt.Errorf("gateway: Config.FS and Config.Auth required")
	}
	if cfg.MetaShards < 1 {
		cfg.MetaShards = 1
	}
	cfg.layout = cfg.layout.withDefaults()
	return &Gateway{
		fs:   cfg.FS,
		iam:  newIAM(cfg.Auth),
		meta: newMeta(k, cfg.MetaShards, cfg.MetaOpTime),
		cfg:  cfg,

		fronts:  make(map[string]*front),
		reading: make(map[verKey]*verReaders),
		tenants: make(map[qos.Ctx]any),
	}, nil
}

// withTenant tags p with the bucket owner's QoS identity for the
// duration of a data-path operation and returns the previous context, for
// the caller to restore after — admission tokens and governor SLO
// accounting land on the tenant who owns the data, whoever issued the
// request. Each tenant and lane's context is boxed once.
func (g *Gateway) withTenant(p *sim.Proc, owner string, lane int) (prev any) {
	c := qos.Ctx{Tenant: owner, Lane: qos.ClampLane(lane)}
	boxed, ok := g.tenants[c]
	if !ok {
		boxed = c
		g.tenants[c] = boxed
	}
	prev = p.QoSCtx()
	p.SetQoSCtx(boxed)
	return prev
}

// Authorize authenticates token and checks its access to bucket without
// touching any object — the health-check probe, and the surface the
// zero-pfs-I/O auth-path test drives.
func (g *Gateway) Authorize(p *sim.Proc, token, bucket string, write bool) (tenant string, err error) {
	tenant, _, err = g.iam.authorize(p, token, bucket, write, "probe")
	return tenant, err
}

// CreateBucket registers a new bucket owned by the token's tenant.
func (g *Gateway) CreateBucket(p *sim.Proc, token, bucket string, opts BucketOptions) error {
	tenant, err := g.iam.authenticate(p, token)
	if err != nil {
		return err
	}
	if !validName(bucket) || !validName(tenant) {
		return fmt.Errorf("%w: bucket %q", ErrBadName, bucket)
	}
	prio := opts.Priority
	if prio < 0 || prio > 3 {
		prio = defaultPriority
	}
	err = g.meta.do(p, bucket, 1, func(s *metaShard) error {
		if _, exists := s.buckets[bucket]; exists {
			return fmt.Errorf("%w: %q", ErrBucketExists, bucket)
		}
		s.buckets[bucket] = &bucketMeta{
			name: bucket, owner: tenant,
			objects: make(map[string]Version),
		}
		return nil
	})
	if err != nil {
		return err
	}
	root := bucketRoot(tenant, bucket)
	if err := g.fs.MkdirAll(root + "/p"); err != nil {
		return err
	}
	if err := g.fs.MkdirAll(root + "/seg"); err != nil {
		return err
	}
	g.fronts[bucket] = &front{priority: prio, nextSeq: 1}
	g.iam.put(bucket, tenant, opts.ACL)
	g.cfg.Auth.Record(tenant, "gateway.mkbucket", bucket, true, "")
	return nil
}

func validKey(key string) error {
	if key == "" || len(key) > 1024 {
		return fmt.Errorf("%w: key length %d", ErrBadName, len(key))
	}
	return nil
}

// PutObject stores data as a new version of bucket/key: the front end
// names and places the version, the data writes run on the owner's QoS
// identity, then one index op commits the version, which replaces (and
// frees) the previous version's part files.
func (g *Gateway) PutObject(p *sim.Proc, token, bucket, key string, data []byte) (Version, error) {
	_, owner, err := g.iam.authorize(p, token, bucket, true, "put")
	if err != nil {
		return Version{}, err
	}
	if err := validKey(key); err != nil {
		return Version{}, err
	}
	size := int64(len(data))
	f := g.fronts[bucket]
	lay, cur, err := PlanLayout(g.cfg.layout, owner, bucket, f.nextSeq, size, f.seg)
	if err != nil {
		return Version{}, err
	}
	ver := Version{Seq: f.nextSeq, Size: size, Layout: lay, Mtime: p.Now()}
	f.nextSeq++
	f.seg = cur
	if err := g.writeParts(p, owner, f.priority, ver.Layout, data); err != nil {
		return Version{}, err
	}
	var replaced Version
	err = g.meta.do(p, bucket, 1, func(s *metaShard) error {
		b, err := s.bucket(bucket)
		if err != nil {
			return err
		}
		if prev, ok := b.objects[key]; ok {
			b.bytes -= prev.Size
			replaced = prev
		} else {
			b.insertKey(key)
			b.objN++
		}
		b.objects[key] = ver
		b.bytes += size
		return nil
	})
	if err != nil {
		return Version{}, err
	}
	g.free(bucket, replaced)
	g.puts++
	g.bytesIn += size
	return ver, nil
}

// writeParts lands an object version's bytes, parts in parallel like the
// pfs extent groups beneath them. Segment files are created on first
// touch; part files are version-unique and must not pre-exist. Every file
// is created before any part is written, so a failed create leaves no
// writer running and removes the files it made.
func (g *Gateway) writeParts(p *sim.Proc, owner string, prio int, lay Layout, data []byte) error {
	defer p.SetQoSCtx(g.withTenant(p, owner, prio))
	var created []Part
	for _, part := range lay.Parts {
		if _, err := g.fs.Stat(part.Path); err == nil {
			continue
		}
		if _, err := g.fs.Create(part.Path, pfs.Policy{CachePriority: prio, Class: part.Class}); err != nil {
			g.removeParts(created)
			return err
		}
		created = append(created, part)
	}
	return sim.Fork(p, "gw.write", len(lay.Parts), func(q *sim.Proc, i int) error {
		defer q.SetQoSCtx(g.withTenant(q, owner, prio))
		part, off := lay.Parts[i], lay.start(i)
		_, err := g.fs.WriteAt(q, part.Path, part.Off, data[off:off+part.Len])
		return err
	})
}

// readVersion fetches one version's bytes, parts in parallel.
func (g *Gateway) readVersion(p *sim.Proc, owner string, prio int, ver Version) ([]byte, error) {
	defer p.SetQoSCtx(g.withTenant(p, owner, prio))
	buf := make([]byte, ver.Size)
	err := sim.Fork(p, "gw.read", len(ver.Layout.Parts), func(q *sim.Proc, i int) error {
		defer q.SetQoSCtx(g.withTenant(q, owner, prio))
		part, off := ver.Layout.Parts[i], ver.Layout.start(i)
		_, err := g.fs.ReadAt(q, part.Path, part.Off, buf[off:off+part.Len])
		return err
	})
	if err != nil {
		return nil, err
	}
	return buf, nil
}

// free returns the part files of a version an index op just unlinked to
// the allocator; segment slices stay until segment compaction (future work)
// reclaims them. A version some GET resolved before the unlink and is still
// reading keeps its files until that GET finishes: freed at once, their
// extents would be handed to the next PUT and the GET would return a mix of
// both objects.
func (g *Gateway) free(bucket string, v Version) {
	if v.Layout.Segment {
		return
	}
	if r := g.reading[verKey{bucket, v.Seq}]; r != nil {
		r.doomed = v.Layout.Parts
		return
	}
	g.removeParts(v.Layout.Parts)
}

func (g *Gateway) removeParts(parts []Part) {
	for _, part := range parts {
		_ = g.fs.Remove(part.Path)
	}
}

// startReading registers one GET of vk; it must run inside the index op
// that resolved the version, so that no unlink can slip in between.
func (g *Gateway) startReading(vk verKey) {
	r := g.reading[vk]
	if r == nil {
		r = &verReaders{}
		g.reading[vk] = r
	}
	r.n++
}

// doneReading ends one GET of vk, begun by lookup; the last reader out
// reclaims a version unlinked meanwhile.
func (g *Gateway) doneReading(vk verKey) {
	r := g.reading[vk]
	if r.n--; r.n > 0 {
		return
	}
	delete(g.reading, vk)
	g.removeParts(r.doomed)
}

// lookup runs one index op resolving bucket/key to its version. It
// registers the caller as a reader of that version; the caller owes a
// doneReading.
func (g *Gateway) lookup(p *sim.Proc, bucket, key string) (ver Version, prio int, err error) {
	err = g.meta.do(p, bucket, 1, func(s *metaShard) error {
		b, err := s.bucket(bucket)
		if err != nil {
			return err
		}
		v, ok := b.objects[key]
		if !ok {
			return fmt.Errorf("%w: %s/%s", ErrNoObject, bucket, key)
		}
		ver, prio = v, g.fronts[bucket].priority
		g.startReading(verKey{bucket, ver.Seq})
		return nil
	})
	return ver, prio, err
}

// GetObject returns the stored version of bucket/key.
func (g *Gateway) GetObject(p *sim.Proc, token, bucket, key string) ([]byte, Version, error) {
	_, owner, err := g.iam.authorize(p, token, bucket, false, "get")
	if err != nil {
		return nil, Version{}, err
	}
	if err := validKey(key); err != nil {
		return nil, Version{}, err
	}
	ver, prio, err := g.lookup(p, bucket, key)
	if err != nil {
		return nil, Version{}, err
	}
	defer g.doneReading(verKey{bucket, ver.Seq})
	data, err := g.readVersion(p, owner, prio, ver)
	if err != nil {
		return nil, Version{}, err
	}
	g.gets++
	g.bytesOut += ver.Size
	return data, ver, nil
}

// ListObjects pages through a bucket's live keys with prefix, strictly
// after startAfter, at most max rows (default 1000). truncated reports
// whether another page exists; resume by passing the last row's key.
func (g *Gateway) ListObjects(p *sim.Proc, token, bucket, prefix, startAfter string, max int) (rows []ObjectInfo, truncated bool, err error) {
	if _, _, err = g.iam.authorize(p, token, bucket, false, "list"); err != nil {
		return nil, false, err
	}
	err = g.meta.do(p, bucket, 1, func(s *metaShard) error {
		b, err := s.bucket(bucket)
		if err != nil {
			return err
		}
		rows, truncated = b.list(prefix, startAfter, max)
		return nil
	})
	if err != nil {
		return nil, false, err
	}
	g.lists++
	return rows, truncated, nil
}

// Buckets lists every bucket across all shards, sorted by name — admin
// introspection for yottactl and the experiments, off the service path.
func (g *Gateway) Buckets() []BucketInfo {
	var out []BucketInfo
	for i, s := range g.meta.shards {
		for _, b := range s.buckets {
			out = append(out, BucketInfo{
				Name: b.name, Owner: b.owner,
				Shard: i, Objects: b.objN, Bytes: b.bytes,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Stats is a point-in-time counter snapshot for experiments and reports.
type Stats struct {
	Auths, Denials       int64
	Puts, Gets, Lists    int64
	BytesIn, BytesOut    int64
	ShardOps             []int64
	IAMHitP50, IAMHitP99 sim.Duration
}

// Ops sums the object-API operation counters.
func (s Stats) Ops() int64 { return s.Puts + s.Gets + s.Lists }

// Stats snapshots the gateway's counters.
func (g *Gateway) Stats() Stats {
	return Stats{
		Auths: g.iam.auths, Denials: g.iam.denials,
		Puts: g.puts, Gets: g.gets, Lists: g.lists,
		BytesIn: g.bytesIn, BytesOut: g.bytesOut,
		ShardOps:  g.meta.ShardLoads(),
		IAMHitP50: g.iam.hitLat.P50(), IAMHitP99: g.iam.hitLat.P99(),
	}
}

// RegisterTelemetry publishes the per-tier rates under s: object-API op
// counters, IAM auth counters and hit-latency histogram, and per-shard
// index-op loads (the saturation/skew signal E16 watches).
func (g *Gateway) RegisterTelemetry(s telemetry.Scope) {
	s.Int("ops/put", func() int64 { return g.puts })
	s.Int("ops/get", func() int64 { return g.gets })
	s.Int("ops/list", func() int64 { return g.lists })
	s.Int("bytes/in", func() int64 { return g.bytesIn })
	s.Int("bytes/out", func() int64 { return g.bytesOut })
	s.Int("iam/auths", func() int64 { return g.iam.auths })
	s.Int("iam/denials", func() int64 { return g.iam.denials })
	s.Histogram("iam/latency", g.iam.hitLat)
	meta := s.Sub("meta")
	for i := range g.meta.shards {
		shard := g.meta.shards[i]
		meta.Int(fmt.Sprintf("shard/%d/ops", i), func() int64 { return shard.ops })
		meta.Int(fmt.Sprintf("shard/%d/busy_ms", i), func() int64 { return int64(shard.busy.Millis()) })
	}
}

// Status is the one-line summary for yottactl `gateway status`.
func (g *Gateway) Status() string {
	st, buckets := g.Stats(), g.Buckets()
	var objs, bytes int64
	for _, b := range buckets {
		objs += b.Objects
		bytes += b.Bytes
	}
	return fmt.Sprintf("gateway: %d buckets, %d objects, %d bytes | shards %d | ops put=%d get=%d list=%d | iam auths=%d denials=%d p99=%v",
		len(buckets), objs, bytes, len(g.meta.shards), st.Puts, st.Gets, st.Lists, st.Auths, st.Denials, st.IAMHitP99)
}

// Report renders the full three-tier picture for yottactl `gateway
// report`: IAM counters and latency, per-shard index loads, and the
// bucket table.
func (g *Gateway) Report() string {
	var sb strings.Builder
	st := g.Stats()
	fmt.Fprintf(&sb, "object gateway (three-tier)\n")
	fmt.Fprintf(&sb, "  iam:  auths=%d denials=%d hit p50=%v p99=%v\n", st.Auths, st.Denials, st.IAMHitP50, st.IAMHitP99)
	fmt.Fprintf(&sb, "  meta: %d shard(s), op time %v\n", len(g.meta.shards), g.meta.OpTime)
	for i, s := range g.meta.shards {
		fmt.Fprintf(&sb, "    shard %d: %d index ops, busy %v, %d bucket(s)\n", i, s.ops, s.busy, len(s.buckets))
	}
	fmt.Fprintf(&sb, "  data: put=%d get=%d list=%d in=%d out=%d bytes\n",
		st.Puts, st.Gets, st.Lists, st.BytesIn, st.BytesOut)
	buckets := g.Buckets()
	if len(buckets) > 0 {
		fmt.Fprintf(&sb, "  buckets:\n")
		for _, b := range buckets {
			fmt.Fprintf(&sb, "    %-20s owner=%-12s shard=%d objects=%d bytes=%d\n",
				b.Name, b.Owner, b.Shard, b.Objects, b.Bytes)
		}
	}
	return sb.String()
}
