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
	// (default 250µs).
	MetaOpTime sim.Duration
	// IAMLatency is the in-memory auth lookup cost (default 100µs).
	IAMLatency sim.Duration
	// Layout shapes part splitting and segment aggregation.
	Layout LayoutConfig
}

// defaultPriority is the cache/QoS priority of bucket data when a bucket
// does not choose its own.
const defaultPriority = 0

// BucketOptions configures CreateBucket.
type BucketOptions struct {
	ACL        ACL
	Versioning bool
	// Priority sets this bucket's data priority, 0..3 (-1 = inherit
	// defaultPriority, 0).
	Priority int
}

// Gateway is the object API front end.
type Gateway struct {
	k    *sim.Kernel
	fs   *pfs.FS
	iam  *IAM
	meta *Meta
	cfg  Config

	// reading tracks the object versions GETs are reading right now, so that
	// a replaced version's part files outlive its last reader (see free).
	reading map[verKey]*verReaders

	puts, gets, lists, deletes, multiparts int64
	bytesIn, bytesOut                      int64
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
	cfg.Layout = cfg.Layout.withDefaults()
	return &Gateway{
		k:    k,
		fs:   cfg.FS,
		iam:  newIAM(cfg.Auth, cfg.IAMLatency),
		meta: newMeta(k, cfg.MetaShards, cfg.MetaOpTime),
		cfg:  cfg,

		reading: make(map[verKey]*verReaders),
	}, nil
}

// MetaShards returns the index-shard count.
func (g *Gateway) MetaShards() int { return len(g.meta.shards) }

// withTenant tags p with the bucket owner's QoS identity for the
// duration of a data-path operation, restoring the previous context
// after — admission tokens and governor SLO accounting land on the
// tenant who owns the data, whoever issued the request.
func withTenant(p *sim.Proc, owner string, lane int) func() {
	prev := qos.FromProc(p)
	qos.SetCtx(p, qos.Ctx{Tenant: owner, Lane: lane})
	return func() { qos.SetCtx(p, prev) }
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
			name: bucket, owner: tenant, versioning: opts.Versioning, priority: prio,
			objects: make(map[string]*objectMeta),
			uploads: make(map[string]*upload),
			// Sequences start at 1: seq 0 is the "latest version" sentinel
			// in lookups.
			nextSeq: 1,
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
	g.iam.put(bucket, tenant, opts.ACL)
	g.cfg.Auth.Record(tenant, "gateway.mkbucket", bucket, true, "")
	return nil
}

// SetBucketACL replaces a bucket's ACL (owner only). The authoritative
// record and the IAM mirror update together, synchronously — the cache
// is never stale.
func (g *Gateway) SetBucketACL(p *sim.Proc, token, bucket string, acl ACL) error {
	tenant, err := g.iam.authenticate(p, token)
	if err != nil {
		return err
	}
	err = g.meta.do(p, bucket, 1, func(s *metaShard) error {
		b, err := s.bucket(bucket)
		if err != nil {
			return err
		}
		if b.owner != tenant {
			g.cfg.Auth.Record(tenant, "gateway.setacl", bucket, false, "not owner")
			g.iam.denials++
			return fmt.Errorf("%w: tenant %q on bucket %q", security.ErrDenied, tenant, bucket)
		}
		return nil
	})
	if err != nil {
		return err
	}
	g.iam.put(bucket, tenant, acl)
	return nil
}

// SetVersioning flips a bucket's versioning mode (owner only).
func (g *Gateway) SetVersioning(p *sim.Proc, token, bucket string, on bool) error {
	tenant, err := g.iam.authenticate(p, token)
	if err != nil {
		return err
	}
	return g.meta.do(p, bucket, 1, func(s *metaShard) error {
		b, err := s.bucket(bucket)
		if err != nil {
			return err
		}
		if b.owner != tenant {
			g.cfg.Auth.Record(tenant, "gateway.versioning", bucket, false, "not owner")
			g.iam.denials++
			return fmt.Errorf("%w: tenant %q on bucket %q", security.ErrDenied, tenant, bucket)
		}
		b.versioning = on
		return nil
	})
}

func validKey(key string) error {
	if key == "" || len(key) > 1024 {
		return fmt.Errorf("%w: key length %d", ErrBadName, len(key))
	}
	return nil
}

// PutObject stores data as a new version of bucket/key: one index op to
// assign the version and plan the layout, the data writes on the owner's
// QoS identity, then one index op to commit the version. Unversioned
// buckets replace (and free) the previous version's part files.
func (g *Gateway) PutObject(p *sim.Proc, token, bucket, key string, data []byte) (Version, error) {
	_, owner, err := g.iam.authorize(p, token, bucket, true, "put")
	if err != nil {
		return Version{}, err
	}
	if err := validKey(key); err != nil {
		return Version{}, err
	}
	size := int64(len(data))
	var ver Version
	var prio int
	err = g.meta.do(p, bucket, 1, func(s *metaShard) error {
		b, err := s.bucket(bucket)
		if err != nil {
			return err
		}
		seq := b.nextSeq
		lay, cur, err := PlanLayout(g.cfg.Layout, b.owner, bucket, seq, size, b.seg)
		if err != nil {
			return err
		}
		b.nextSeq++
		b.seg = cur
		prio = b.priority
		ver = Version{Seq: seq, Size: size, Layout: lay, Mtime: p.Now()}
		return nil
	})
	if err != nil {
		return Version{}, err
	}
	if err := g.writeParts(p, owner, prio, ver.Layout, data); err != nil {
		return Version{}, err
	}
	var replaced []Version
	err = g.meta.do(p, bucket, 1, func(s *metaShard) error {
		b, err := s.bucket(bucket)
		if err != nil {
			return err
		}
		o := b.objects[key]
		if o == nil {
			o = &objectMeta{}
			b.objects[key] = o
			b.insertKey(key)
		}
		if prev := o.latest(); prev != nil && !prev.Deleted {
			b.bytes -= prev.Size
		} else {
			b.objN++
		}
		if !b.versioning {
			replaced = append(replaced, o.versions...)
			o.versions = o.versions[:0]
		}
		o.versions = append(o.versions, ver)
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
// touch; part files are version-unique and must not pre-exist.
func (g *Gateway) writeParts(p *sim.Proc, owner string, prio int, lay Layout, data []byte) error {
	restore := withTenant(p, owner, prio)
	defer restore()
	var off int64
	var firstErr error
	grp := sim.NewGroup(g.k)
	for _, part := range lay.Parts {
		part := part
		slice := data[off : off+part.Len]
		off += part.Len
		policy := pfs.Policy{CachePriority: prio, Class: part.Class}
		if _, err := g.fs.Stat(part.Path); err != nil {
			if _, err := g.fs.Create(part.Path, policy); err != nil {
				return err
			}
		}
		grp.Add(1)
		g.k.Go("gw.write", func(q *sim.Proc) {
			defer grp.Done()
			restoreQ := withTenant(q, owner, prio)
			defer restoreQ()
			if _, err := g.fs.WriteAt(q, part.Path, part.Off, slice); err != nil && firstErr == nil {
				firstErr = err
			}
		})
	}
	grp.Wait(p)
	return firstErr
}

// readVersion fetches one version's bytes, parts in parallel.
func (g *Gateway) readVersion(p *sim.Proc, owner string, prio int, ver Version) ([]byte, error) {
	restore := withTenant(p, owner, prio)
	defer restore()
	buf := make([]byte, ver.Size)
	var off int64
	var firstErr error
	grp := sim.NewGroup(g.k)
	for _, part := range ver.Layout.Parts {
		part := part
		slice := buf[off : off+part.Len]
		off += part.Len
		grp.Add(1)
		g.k.Go("gw.read", func(q *sim.Proc) {
			defer grp.Done()
			restoreQ := withTenant(q, owner, prio)
			defer restoreQ()
			if _, err := g.fs.ReadAt(q, part.Path, part.Off, slice); err != nil && firstErr == nil {
				firstErr = err
			}
		})
	}
	grp.Wait(p)
	if firstErr != nil {
		return nil, firstErr
	}
	return buf, nil
}

// free returns the part files of versions an index op just unlinked to the
// allocator; segment slices stay until segment compaction (future work)
// reclaims them. A version some GET resolved before the unlink and is still
// reading keeps its files until that GET finishes: freed at once, their
// extents would be handed to the next PUT and the GET would return a mix of
// both objects.
func (g *Gateway) free(bucket string, versions []Version) {
	for _, v := range versions {
		if v.Layout.Segment {
			continue
		}
		if r := g.reading[verKey{bucket, v.Seq}]; r != nil {
			r.doomed = v.Layout.Parts
			continue
		}
		g.removeParts(v.Layout.Parts)
	}
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

// lookup runs one index op resolving bucket/key to a version: the latest
// live one (seq == 0) or an exact version. It registers the caller as a
// reader of that version; the caller owes a doneReading.
func (g *Gateway) lookup(p *sim.Proc, bucket, key string, seq uint64) (ver Version, prio int, err error) {
	err = g.meta.do(p, bucket, 1, func(s *metaShard) error {
		var err error
		if ver, prio, err = s.resolve(bucket, key, seq); err != nil {
			return err
		}
		g.startReading(verKey{bucket, ver.Seq})
		return nil
	})
	return ver, prio, err
}

// resolve is lookup's index search.
func (s *metaShard) resolve(bucket, key string, seq uint64) (Version, int, error) {
	b, err := s.bucket(bucket)
	if err != nil {
		return Version{}, 0, err
	}
	o := b.objects[key]
	if o == nil {
		return Version{}, 0, fmt.Errorf("%w: %s/%s", ErrNoObject, bucket, key)
	}
	if seq == 0 {
		v := o.latest()
		if v == nil || v.Deleted {
			return Version{}, 0, fmt.Errorf("%w: %s/%s", ErrNoObject, bucket, key)
		}
		return *v, b.priority, nil
	}
	for i := range o.versions {
		if o.versions[i].Seq == seq {
			if o.versions[i].Deleted {
				return Version{}, 0, fmt.Errorf("%w: %s/%s@%d (delete marker)", ErrNoObject, bucket, key, seq)
			}
			return o.versions[i], b.priority, nil
		}
	}
	return Version{}, 0, fmt.Errorf("%w: %s/%s@%d", ErrNoObject, bucket, key, seq)
}

// GetObject returns the latest live version of bucket/key.
func (g *Gateway) GetObject(p *sim.Proc, token, bucket, key string) ([]byte, Version, error) {
	return g.get(p, token, bucket, key, 0)
}

// GetObjectVersion returns one specific version of bucket/key.
func (g *Gateway) GetObjectVersion(p *sim.Proc, token, bucket, key string, seq uint64) ([]byte, Version, error) {
	return g.get(p, token, bucket, key, seq)
}

func (g *Gateway) get(p *sim.Proc, token, bucket, key string, seq uint64) ([]byte, Version, error) {
	_, owner, err := g.iam.authorize(p, token, bucket, false, "get")
	if err != nil {
		return nil, Version{}, err
	}
	if err := validKey(key); err != nil {
		return nil, Version{}, err
	}
	ver, prio, err := g.lookup(p, bucket, key, seq)
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

// Versions lists every stored version of bucket/key, oldest first
// (delete markers included).
func (g *Gateway) Versions(p *sim.Proc, token, bucket, key string) ([]Version, error) {
	if _, _, err := g.iam.authorize(p, token, bucket, false, "versions"); err != nil {
		return nil, err
	}
	var out []Version
	err := g.meta.do(p, bucket, 1, func(s *metaShard) error {
		b, err := s.bucket(bucket)
		if err != nil {
			return err
		}
		o := b.objects[key]
		if o == nil {
			return fmt.Errorf("%w: %s/%s", ErrNoObject, bucket, key)
		}
		out = append(out, o.versions...)
		return nil
	})
	return out, err
}

// DeleteObject removes bucket/key: versioned buckets gain a delete
// marker, unversioned buckets drop the object and free its part files.
func (g *Gateway) DeleteObject(p *sim.Proc, token, bucket, key string) error {
	_, _, err := g.iam.authorize(p, token, bucket, true, "delete")
	if err != nil {
		return err
	}
	if err := validKey(key); err != nil {
		return err
	}
	var replaced []Version
	err = g.meta.do(p, bucket, 1, func(s *metaShard) error {
		b, err := s.bucket(bucket)
		if err != nil {
			return err
		}
		o := b.objects[key]
		if o == nil {
			return fmt.Errorf("%w: %s/%s", ErrNoObject, bucket, key)
		}
		live := o.latest()
		if live == nil || live.Deleted {
			return fmt.Errorf("%w: %s/%s", ErrNoObject, bucket, key)
		}
		b.objN--
		b.bytes -= live.Size
		if b.versioning {
			marker := Version{Seq: b.nextSeq, Deleted: true, Mtime: p.Now()}
			b.nextSeq++
			o.versions = append(o.versions, marker)
			return nil
		}
		replaced = o.versions
		delete(b.objects, key)
		b.removeKey(key)
		return nil
	})
	if err != nil {
		return err
	}
	g.free(bucket, replaced)
	g.deletes++
	return nil
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

// InitMultipart opens a multipart upload for bucket/key and returns its
// upload ID. Parts upload independently (any order, any sizes); nothing
// is visible until CompleteMultipart commits the assembled version.
func (g *Gateway) InitMultipart(p *sim.Proc, token, bucket, key string) (string, error) {
	_, _, err := g.iam.authorize(p, token, bucket, true, "multipart")
	if err != nil {
		return "", err
	}
	if err := validKey(key); err != nil {
		return "", err
	}
	var id string
	err = g.meta.do(p, bucket, 1, func(s *metaShard) error {
		b, err := s.bucket(bucket)
		if err != nil {
			return err
		}
		seq := b.nextSeq
		b.nextSeq++
		id = fmt.Sprintf("up-%08d", seq)
		b.uploads[id] = &upload{key: key, seq: seq, parts: make(map[int]Part), sizes: make(map[int]int64)}
		return nil
	})
	return id, err
}

// UploadPart stores one part of an open upload. Part numbers start at 1;
// re-uploading a number replaces that part.
func (g *Gateway) UploadPart(p *sim.Proc, token, bucket, uploadID string, partNum int, data []byte) error {
	_, owner, err := g.iam.authorize(p, token, bucket, true, "multipart")
	if err != nil {
		return err
	}
	if partNum < 1 || partNum > 10000 {
		return fmt.Errorf("%w: part number %d", ErrBadName, partNum)
	}
	var path string
	var prio int
	err = g.meta.do(p, bucket, 1, func(s *metaShard) error {
		b, err := s.bucket(bucket)
		if err != nil {
			return err
		}
		up, ok := b.uploads[uploadID]
		if !ok {
			return fmt.Errorf("%w: %q", ErrNoUpload, uploadID)
		}
		prio = b.priority
		path = fmt.Sprintf("%s/p/%08d.%04d", bucketRoot(b.owner, bucket), up.seq, partNum)
		return nil
	})
	if err != nil {
		return err
	}
	lay := Layout{Parts: []Part{{Path: path, Off: 0, Len: int64(len(data))}}}
	if len(data) == 0 {
		lay = Layout{}
	}
	if err := g.writeParts(p, owner, prio, lay, data); err != nil {
		return err
	}
	return g.meta.do(p, bucket, 1, func(s *metaShard) error {
		b, err := s.bucket(bucket)
		if err != nil {
			return err
		}
		up, ok := b.uploads[uploadID]
		if !ok {
			return fmt.Errorf("%w: %q", ErrNoUpload, uploadID)
		}
		up.parts[partNum] = Part{Path: path, Off: 0, Len: int64(len(data))}
		up.sizes[partNum] = int64(len(data))
		return nil
	})
}

// CompleteMultipart assembles the uploaded parts (in part-number order)
// into one committed version of the upload's key.
func (g *Gateway) CompleteMultipart(p *sim.Proc, token, bucket, uploadID string) (Version, error) {
	_, _, err := g.iam.authorize(p, token, bucket, true, "multipart")
	if err != nil {
		return Version{}, err
	}
	var ver Version
	var replaced []Version
	err = g.meta.do(p, bucket, 1, func(s *metaShard) error {
		b, err := s.bucket(bucket)
		if err != nil {
			return err
		}
		up, ok := b.uploads[uploadID]
		if !ok {
			return fmt.Errorf("%w: %q", ErrNoUpload, uploadID)
		}
		nums := make([]int, 0, len(up.parts))
		for n := range up.parts {
			nums = append(nums, n)
		}
		sort.Ints(nums)
		var lay Layout
		var size int64
		for _, n := range nums {
			part := up.parts[n]
			if part.Len == 0 {
				continue
			}
			lay.Parts = append(lay.Parts, part)
			size += part.Len
		}
		ver = Version{Seq: up.seq, Size: size, Layout: lay, Mtime: p.Now()}
		key := up.key
		o := b.objects[key]
		if o == nil {
			o = &objectMeta{}
			b.objects[key] = o
			b.insertKey(key)
		}
		if prev := o.latest(); prev != nil && !prev.Deleted {
			b.bytes -= prev.Size
		} else {
			b.objN++
		}
		if !b.versioning {
			replaced = append(replaced, o.versions...)
			o.versions = o.versions[:0]
		}
		o.versions = append(o.versions, ver)
		b.bytes += size
		delete(b.uploads, uploadID)
		return nil
	})
	if err != nil {
		return Version{}, err
	}
	g.free(bucket, replaced)
	g.multiparts++
	g.bytesIn += ver.Size
	return ver, nil
}

// AbortMultipart discards an open upload and frees its part files.
func (g *Gateway) AbortMultipart(p *sim.Proc, token, bucket, uploadID string) error {
	_, _, err := g.iam.authorize(p, token, bucket, true, "multipart")
	if err != nil {
		return err
	}
	var paths []string
	err = g.meta.do(p, bucket, 1, func(s *metaShard) error {
		b, err := s.bucket(bucket)
		if err != nil {
			return err
		}
		up, ok := b.uploads[uploadID]
		if !ok {
			return fmt.Errorf("%w: %q", ErrNoUpload, uploadID)
		}
		for _, part := range up.parts {
			paths = append(paths, part.Path)
		}
		delete(b.uploads, uploadID)
		return nil
	})
	if err != nil {
		return err
	}
	sort.Strings(paths)
	for _, path := range paths {
		_ = g.fs.Remove(path)
	}
	return nil
}

// Buckets lists every bucket across all shards, sorted by name — admin
// introspection for yottactl and the experiments, off the service path.
func (g *Gateway) Buckets() []BucketInfo {
	var out []BucketInfo
	for i, s := range g.meta.shards {
		for _, b := range s.buckets {
			out = append(out, BucketInfo{
				Name: b.name, Owner: b.owner, Versioning: b.versioning,
				Shard: i, Objects: b.objN, Bytes: b.bytes,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Stats is a point-in-time counter snapshot for experiments and reports.
type Stats struct {
	Auths, Denials                         int64
	Puts, Gets, Lists, Deletes, Multiparts int64
	BytesIn, BytesOut                      int64
	ShardOps                               []int64
	IAMHitP50, IAMHitP99                   sim.Duration
}

// Ops sums the object-API operation counters.
func (s Stats) Ops() int64 { return s.Puts + s.Gets + s.Lists + s.Deletes + s.Multiparts }

// Stats snapshots the gateway's counters.
func (g *Gateway) Stats() Stats {
	return Stats{
		Auths: g.iam.auths, Denials: g.iam.denials,
		Puts: g.puts, Gets: g.gets, Lists: g.lists, Deletes: g.deletes, Multiparts: g.multiparts,
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
	s.Int("ops/delete", func() int64 { return g.deletes })
	s.Int("ops/multipart", func() int64 { return g.multiparts })
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
	st := g.Stats()
	var objs, bytes int64
	n := 0
	for _, s := range g.meta.shards {
		for _, b := range s.buckets {
			objs += b.objN
			bytes += b.bytes
			n++
		}
	}
	return fmt.Sprintf("gateway: %d buckets, %d objects, %d bytes | shards %d | ops put=%d get=%d list=%d del=%d multi=%d | iam auths=%d denials=%d p99=%v",
		n, objs, bytes, len(g.meta.shards), st.Puts, st.Gets, st.Lists, st.Deletes, st.Multiparts, st.Auths, st.Denials, st.IAMHitP99)
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
	fmt.Fprintf(&sb, "  data: put=%d get=%d list=%d del=%d multi=%d in=%d out=%d bytes\n",
		st.Puts, st.Gets, st.Lists, st.Deletes, st.Multiparts, st.BytesIn, st.BytesOut)
	buckets := g.Buckets()
	if len(buckets) > 0 {
		fmt.Fprintf(&sb, "  buckets:\n")
		for _, b := range buckets {
			ver := ""
			if b.Versioning {
				ver = " versioned"
			}
			fmt.Fprintf(&sb, "    %-20s owner=%-12s shard=%d objects=%d bytes=%d%s\n",
				b.Name, b.Owner, b.Shard, b.Objects, b.Bytes, ver)
		}
	}
	return sb.String()
}
