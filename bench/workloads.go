package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/gateway"
	"repro/internal/pfs"
	"repro/internal/raid"
	"repro/internal/security"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// refSeconds is the measured host time the reference op counts below give
// on the 2-core box; -seconds scales every workload's measure phase by
// seconds/refSeconds, so one factor sizes all four.
const refSeconds = 40

// sizing scales a run. ops multiplies the measure op count. data multiplies
// what set-up builds: the data sets, the caches that give each workload its
// regime, and the warm-up that fills them; it is 1 outside the smoke test.
type sizing struct {
	ops, data float64
}

// dataScale is sizing.data for every run of the command: 1, but for the
// smoke test, which cannot afford the full data sets under the race detector.
var dataScale = 1.0

func scaled(ref int, by float64, least int) int {
	return max(int(float64(ref)*by), least)
}

func (s sizing) measureOps(w workloadDef) int { return scaled(w.measOps, s.ops, 20) }
func (s sizing) warmOps(w workloadDef) int    { return scaled(w.warmOps, s.data, 20) }
func (s sizing) scaleData(ref int) int        { return scaled(ref, s.data, 1) }

// workloadDef is one benchmark workload: its reference sizing and the
// constructor that builds, prefills and flushes the system under test.
type workloadDef struct {
	name    string
	why     string
	clients int
	warmOps int // fills the caches to the workload's regime; not scaled by -seconds
	measOps int // reference count: refSeconds of measured host time
	build   func(seed int64, sz sizing, traced bool, sw *stopwatch) (*instance, error)
}

var workloads = []workloadDef{
	{
		name:    "block-mixed",
		why:     "cache-resident set shared by 8 blades under 25% writes: coherence invalidation, dirty-ownership transfer, replication and RAID-5 destage do the work",
		clients: blockClients, warmOps: 3000, measOps: 36000,
		build: buildBlockMixed,
	},
	{
		name:    "block-read-hot",
		why:     "read-only set that fits every blade cache: disks, fabric and the coherence write path are bypassed; sim kernel, cache and controller fan-out do everything",
		clients: blockClients, warmOps: 20000, measOps: 900000,
		build: buildBlockReadHot,
	},
	{
		name:    "pfs-stream",
		why:     "256 KiB file reads over a set 1.5x the pooled cache: pfs, 64-block controller fan-out, coherence miss path, virt, RAID and disk; disk-bound in virtual time",
		clients: streamFiles, warmOps: 500, measOps: 6000,
		build: buildPFSStream,
	},
	{
		name:    "object-mixed",
		why:     "70/30 GET/PUT on Zipf buckets through IAM, 4 serial index shards, layout and pfs; small objects take the index path, 256 KiB ones the data path",
		clients: objClients, warmOps: 3000, measOps: 55000,
		build: buildObjectMixed,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// instance is one built system under test plus the closures that drive
// and check it.
type instance struct {
	k       *sim.Kernel
	cluster *controller.Cluster
	fs      *pfs.FS             // nil on the block workloads
	gw      *gateway.Gateway    // object-mixed only
	auth    *security.Authority // object-mixed only
	tracer  *trace.Tracer       // traced runs only
	spans   *spanLog            // traced runs only

	op opFunc
	// readBack runs after the drain and returns how many acknowledged
	// writes the system lost (nil when the workload writes nothing).
	readBack func(p *sim.Proc) (lost int, err error)
	stop     func()
}

// close stops every daemon and kills every parked proc, so nothing of this
// system outlives it (ROADMAP item 1: a system that is only Stop()ped
// leaks its goroutines and heap).
func (in *instance) close() {
	in.stop()
	in.k.Close()
}

// ---- payload stamps and the acknowledged-write tracker ----

const (
	stampBytes   = 16
	prefillStamp = ^uint64(0)
)

// fill writes unit after unit of b (block or object body) as the 16-byte
// pair (addr, stamp) repeated, so every byte of a payload is checkable.
func fill(b []byte, unit int, addr func(i int) uint64, stamp uint64) {
	for i := 0; i*unit < len(b); i++ {
		u := b[i*unit : min(len(b), (i+1)*unit)]
		binary.LittleEndian.PutUint64(u, addr(i))
		binary.LittleEndian.PutUint64(u[8:], stamp)
		for n := stampBytes; n < len(u); n *= 2 {
			copy(u[n:], u[:n])
		}
	}
}

// parse returns a unit's (addr, stamp) after checking that the whole unit
// repeats its first 16 bytes.
func parse(u []byte) (addr, stamp uint64, err error) {
	if len(u) < stampBytes {
		return 0, 0, fmt.Errorf("short payload: %d bytes", len(u))
	}
	// A unit equal to itself shifted by 16 bytes has period 16: one memcmp
	// checks every byte.
	if !bytes.Equal(u[stampBytes:], u[:len(u)-stampBytes]) {
		return 0, 0, errors.New("payload torn: not one repeated stamp")
	}
	return binary.LittleEndian.Uint64(u), binary.LittleEndian.Uint64(u[8:]), nil
}

// write is one stamped write in flight or acknowledged. begin and end are
// ticks of a logical clock that advances on every issue and every ack.
type write struct {
	begin, end uint64
	first, n   int // units [first, first+n) it covers
}

// ackTracker decides, per unit (block or object), which values a read may
// legally return: the last acknowledged write or one concurrent with it.
type ackTracker struct {
	tick   uint64
	writes map[uint64]*write // stamp -> write
	// maxBegin is the begin tick of the latest-issued write per unit,
	// ackedBegin that of the latest-issued write already acknowledged.
	maxBegin, ackedBegin []uint64
	via                  []int // blade the latest-issued write went through
}

func newAckTracker(units int) *ackTracker {
	return &ackTracker{writes: make(map[uint64]*write),
		maxBegin: make([]uint64, units), ackedBegin: make([]uint64, units), via: make([]int, units)}
}

func (t *ackTracker) issue(stamp uint64, first, n, via int) *write {
	t.tick++
	w := &write{begin: t.tick, first: first, n: n}
	t.writes[stamp] = w
	for u := first; u < first+n; u++ {
		t.maxBegin[u] = w.begin
		t.via[u] = via
	}
	return w
}

func (t *ackTracker) ack(w *write) {
	t.tick++
	w.end = t.tick
	for u := w.first; u < w.first+w.n; u++ {
		if w.begin > t.ackedBegin[u] {
			t.ackedBegin[u] = w.begin
		}
	}
}

// check reports whether a read of unit that began when the latest
// acknowledged write was floor (ackedBegin at issue) may return stamp:
// it may not if that value was overwritten by a write acknowledged before
// the read began. With floor = maxBegin after the drain this is the
// lost-acknowledged-write test.
func (t *ackTracker) check(unit int, stamp, floor uint64) error {
	if stamp == prefillStamp {
		if floor != 0 {
			return fmt.Errorf("unit %d: read prefill data after an acknowledged write", unit)
		}
		return nil
	}
	w := t.writes[stamp]
	if w == nil || unit < w.first || unit >= w.first+w.n {
		return fmt.Errorf("unit %d: holds stamp %#x that no write put there", unit, stamp)
	}
	if w.end != 0 && floor > w.end {
		return fmt.Errorf("unit %d: stale value, overwritten by an acknowledged write", unit)
	}
	return nil
}

// ---- the canonical block cluster (block-mixed, block-read-hot) ----

// labDisk is the experiments' lab drive: 5 ms seek + 3 ms rotation, 50 MB/s.
func labDisk() disk.Spec {
	return disk.Spec{BlockSize: 4096, Blocks: 1 << 16,
		Seek: 5 * sim.Millisecond, Rotation: 3 * sim.Millisecond, TransferBps: 400_000_000}
}

const (
	blockVol     = "bench"
	blockSet     = 4 << 10 // blocks: exactly fills each 4096-block blade cache
	blockOpLen   = 4
	blockClients = 32
)

// buildBlockCluster continues BENCH_PR10's canonical cluster: 8 blades x
// 4096-block caches over 24 lab disks in RAID-5 groups of 6, with the set
// written straight to the volume so every cache starts cold.
func buildBlockCluster(seed int64, sz sizing, traced bool, sw *stopwatch) (in *instance, set int, err error) {
	set = sz.scaleData(blockSet)
	k := sim.NewKernel(seed)
	cfg := controller.DefaultConfig()
	cfg.Blades = 8
	cfg.CacheBlocksPerBlade = set
	cfg.DiskSpec = labDisk()
	cfg.Disks = 24
	cfg.DisksPerGroup = 6
	cfg.RAIDLevel = raid.RAID5
	cfg.ExtentBlocks = 64
	cfg.OpDelay = 50 * sim.Microsecond
	in = &instance{k: k}
	if traced {
		in.tracer = trace.NewTracer(k)
		cfg.Tracer = in.tracer
		in.spans = newSpanLog(in.tracer, "controller")
	}
	c, err := controller.New(k, cfg)
	if err != nil {
		return nil, 0, err
	}
	in.cluster, in.stop = c, c.Stop
	vol, err := c.Pool.CreateDMSD(blockVol, 1<<20)
	if err != nil {
		return nil, 0, err
	}
	bs := c.BlockSize()
	err = runProcTimed(k, sw, "bench-prefill", func(p *sim.Proc) error {
		const chunk = 256
		buf := make([]byte, chunk*bs)
		for lba := 0; lba < set; lba += chunk {
			fill(buf, bs, func(i int) uint64 { return uint64(lba + i) }, prefillStamp)
			if err := vol.Write(p, int64(lba), buf); err != nil {
				return err
			}
		}
		return nil
	})
	return in, set, err
}

// checkBlocks verifies a block read: every block names its own LBA and
// holds a value the tracker allows (floors are ackedBegin at issue).
func checkBlocks(t *ackTracker, data []byte, bs, lba int, floors []uint64) error {
	if len(data) != len(floors)*bs {
		return fmt.Errorf("read of %d blocks at %d returned %d bytes", len(floors), lba, len(data))
	}
	for i, floor := range floors {
		addr, stamp, err := parse(data[i*bs : (i+1)*bs])
		if err != nil {
			return fmt.Errorf("lba %d: %w", lba+i, err)
		}
		if addr != uint64(lba+i) {
			return fmt.Errorf("lba %d: holds the data of lba %d", lba+i, addr)
		}
		if err := t.check(lba+i, stamp, floor); err != nil {
			return err
		}
	}
	return nil
}

func blockOp(in *instance, seed int64, set int, writeFrac float64) {
	c, bs := in.cluster, in.cluster.BlockSize()
	t := newAckTracker(set)
	pat := workload.Uniform{Range: int64(set), Blocks: blockOpLen, WriteFrac: writeFrac}
	type client struct {
		rng *rand.Rand
		seq uint64
		buf []byte
	}
	cl := make([]client, blockClients)
	for i := range cl {
		cl[i] = client{rng: rand.New(rand.NewSource(seed*1000003 + int64(i))), buf: make([]byte, blockOpLen*bs)}
	}
	in.op = func(p *sim.Proc, ci int) opResult {
		me := &cl[ci]
		op := pat.Next(me.rng)
		lba := int(op.LBA)
		b := c.PickBlade()
		if op.Write {
			me.seq++
			stamp := uint64(ci)<<32 | me.seq
			fill(me.buf, bs, func(i int) uint64 { return uint64(lba + i) }, stamp)
			w := t.issue(stamp, lba, op.Blocks, b.ID)
			err := c.Write(p, b, blockVol, op.LBA, me.buf, 0)
			if err == nil {
				t.ack(w)
			}
			return opResult{"Cluster.Write", len(me.buf), err}
		}
		var floors [blockOpLen]uint64
		copy(floors[:], t.ackedBegin[lba:lba+op.Blocks])
		data, err := c.Read(p, b, blockVol, op.LBA, op.Blocks, 0)
		if err == nil {
			err = checkBlocks(t, data, bs, lba, floors[:op.Blocks])
		}
		return opResult{"Cluster.Read", len(data), err}
	}
	if writeFrac == 0 {
		return
	}
	// After the drain every write is acknowledged, so each written block,
	// read back through a blade other than the one that wrote it, must
	// hold the latest-issued write or one concurrent with it.
	in.readBack = func(p *sim.Proc) (lost int, err error) {
		for lba, floor := range t.maxBegin {
			if floor == 0 {
				continue
			}
			b := c.Blade((t.via[lba] + 1) % len(c.Blades))
			data, rerr := c.Read(p, b, blockVol, int64(lba), 1, 0)
			if rerr == nil {
				rerr = checkBlocks(t, data, bs, lba, []uint64{floor})
			}
			if rerr != nil {
				lost++
				err = errors.Join(err, rerr)
			}
		}
		return lost, err
	}
}

func buildBlockMixed(seed int64, sz sizing, traced bool, sw *stopwatch) (*instance, error) {
	in, set, err := buildBlockCluster(seed, sz, traced, sw)
	if err != nil {
		return nil, err
	}
	blockOp(in, seed, set, 0.25)
	return in, nil
}

func buildBlockReadHot(seed int64, sz sizing, traced bool, sw *stopwatch) (*instance, error) {
	in, set, err := buildBlockCluster(seed, sz, traced, sw)
	if err != nil {
		return nil, err
	}
	blockOp(in, seed, set, 0)
	// Each blade reads the whole set once, so from here on every read is a
	// local hit on whichever blade serves it.
	c := in.cluster
	err = runProcTimed(in.k, sw, "bench-warm", func(p *sim.Proc) error {
		for _, b := range c.Blades {
			for lba := int64(0); lba < int64(set); lba += 64 {
				if _, err := c.Read(p, b, blockVol, lba, 64, 0); err != nil {
					return err
				}
			}
		}
		return nil
	})
	return in, err
}

// ---- pfs-stream ----

const (
	streamFiles    = 8  // and as many clients: each streams its own file
	streamFileMiB  = 24 // x8 = 192 MiB, 1.5x the 128 MiB pooled cache
	streamReadSize = 256 << 10
)

// newSystem is core.NewSystem for the untraced run. The traced run builds
// the same system from the same public constructors core.NewSystemOn uses,
// but with the tracer attached (and left disabled until the traced phase)
// and pfs.Config.IO wrapped by the span recorder.
func newSystem(opts core.Options, traced bool, outerLayer string) (*instance, error) {
	if !traced {
		sys, err := core.NewSystem(opts)
		if err != nil {
			return nil, err
		}
		return &instance{k: sys.K, cluster: sys.Cluster, fs: sys.FS,
			gw: sys.Gateway, auth: sys.Auth, stop: sys.Stop}, nil
	}
	// controller.DefaultConfig carries the same blade, cache, replication
	// and RAID defaults core.Options fills in for its zero fields.
	k := sim.NewKernel(opts.Seed)
	cfg := controller.DefaultConfig()
	if opts.Blades != 0 {
		cfg.Blades, cfg.Disks, cfg.DisksPerGroup = opts.Blades, opts.Disks, opts.DisksPerGroup
	}
	cfg.DiskSpec = opts.DiskSpec
	if opts.CacheBlocksPerBlade != 0 {
		cfg.CacheBlocksPerBlade = opts.CacheBlocksPerBlade
	}
	cfg.Tracer = trace.NewTracer(k)
	c, err := controller.New(k, cfg)
	if err != nil {
		return nil, err
	}
	if _, err := c.CreateDMSD("default", "fs.default", 1<<20); err != nil {
		return nil, err
	}
	in := &instance{k: k, cluster: c, tracer: cfg.Tracer, stop: c.Stop}
	in.spans = newSpanLog(in.tracer, outerLayer)
	in.fs, err = pfs.New(k, pfs.Config{
		IO:           spanIO{inner: c, log: in.spans},
		Classes:      map[string]string{"default": "fs.default"},
		DefaultClass: "default",
	})
	if err != nil {
		return nil, err
	}
	if opts.Gateway != nil {
		gcfg := *opts.Gateway
		gcfg.FS = in.fs
		in.auth = security.NewAuthority(k)
		gcfg.Auth = in.auth
		if in.gw, err = gateway.New(k, gcfg); err != nil {
			return nil, err
		}
		in.gw.RegisterTelemetry(c.Reg.Sub("gateway"))
	}
	return in, nil
}

func buildPFSStream(seed int64, sz sizing, traced bool, sw *stopwatch) (*instance, error) {
	opts := core.Options{Seed: seed, Blades: 8, Disks: 24, DisksPerGroup: 6, DiskSpec: labDisk(),
		CacheBlocksPerBlade: sz.scaleData(4096)}
	in, err := newSystem(opts, traced, "pfs")
	if err != nil {
		return nil, err
	}
	fs, bs := in.fs, in.fs.BlockSize()
	fileBytes := sz.scaleData(streamFileMiB<<20) / streamReadSize * streamReadSize
	path := func(f int) string { return fmt.Sprintf("/stream/f%d", f) }
	addr := func(f int, off int64) uint64 { return uint64(f)<<40 | uint64(off/int64(bs)) }
	if err := fs.MkdirAll("/stream"); err != nil {
		return nil, err
	}
	// Like the block workloads' set, the files' bytes go straight to the
	// backing volume, so every cache starts cold and the streams miss from
	// their first read; written through the caches, the newest two thirds
	// of the data would sit there clean and the shared ticket counter would
	// hand most ops to the clients whose files happen to be cached. One
	// block per file does pass through pfs.WriteAt: the last, which makes
	// pfs allocate every extent of the file.
	vol := in.cluster.Pool.Volumes()["fs.default"]
	err = runProcTimed(in.k, sw, "bench-prefill", func(p *sim.Proc) error {
		buf := make([]byte, 1<<20)
		for f := 0; f < streamFiles; f++ {
			if _, err := fs.Create(path(f), pfs.Policy{}); err != nil {
				return err
			}
			last := int64(fileBytes - bs)
			fill(buf[:bs], bs, func(int) uint64 { return addr(f, last) }, prefillStamp)
			if _, err := fs.WriteAt(p, path(f), last, buf[:bs]); err != nil {
				return err
			}
			ino, err := fs.Stat(path(f))
			if err != nil {
				return err
			}
			off := 0 // file offset of the extent being filled
			for _, e := range ino.Extents {
				extBytes := min(int(e.Blocks)*bs, fileBytes-off)
				for done := 0; done < extBytes; done += len(buf) {
					chunk := buf[:min(len(buf), extBytes-done)]
					at := off + done
					fill(chunk, bs, func(i int) uint64 { return addr(f, int64(at+i*bs)) }, prefillStamp)
					if err := vol.Write(p, e.LBA+int64(done/bs), chunk); err != nil {
						return err
					}
				}
				off += extBytes
			}
		}
		in.cluster.FlushAll(p)
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Each client streams its own file cyclically from a seeded offset.
	rng := rand.New(rand.NewSource(seed*1000003 + 7))
	offs := make([]int64, streamFiles)
	bufs := make([][]byte, streamFiles)
	for i := range offs {
		offs[i] = int64(rng.Intn(fileBytes/streamReadSize)) * streamReadSize
		bufs[i] = make([]byte, streamReadSize)
	}
	in.op = func(p *sim.Proc, ci int) opResult {
		off, buf := offs[ci], bufs[ci]
		offs[ci] = (off + streamReadSize) % int64(fileBytes)
		n, err := fs.ReadAt(p, path(ci), off, buf)
		if err == nil && n != len(buf) {
			err = fmt.Errorf("%s: read %d of %d bytes at %d", path(ci), n, len(buf), off)
		}
		for i := 0; err == nil && i < n; i += bs {
			a, stamp, perr := parse(buf[i : i+bs])
			switch {
			case perr != nil:
				err = fmt.Errorf("%s@%d: %w", path(ci), off+int64(i), perr)
			case a != addr(ci, off+int64(i)) || stamp != prefillStamp:
				err = fmt.Errorf("%s@%d: holds other data (%#x)", path(ci), off+int64(i), a)
			}
		}
		return opResult{"pfs.ReadAt", n, err}
	}
	return in, nil
}

// ---- object-mixed ----

const (
	objClients   = 8
	objTenants   = 1 << 14
	objBuckets   = 128
	objPerBucket = 20
	objSmall     = 4 << 10   // segment path
	objLarge     = 256 << 10 // every 10th object: a dedicated part file
)

func objSize(obj int) int {
	if obj%10 == 0 {
		return objLarge
	}
	return objSmall
}

func buildObjectMixed(seed int64, sz sizing, traced bool, sw *stopwatch) (*instance, error) {
	opts := core.Options{
		Seed: seed,
		// E16's SSD-class drives, so destage has headroom and the
		// metadata tier, not the spindles, is what saturates.
		DiskSpec: disk.Spec{BlockSize: 4096, Blocks: 1 << 16, Seek: 100 * sim.Microsecond, TransferBps: 400_000_000},
		Gateway:  &gateway.Config{MetaShards: 4},
	}
	in, err := newSystem(opts, traced, "gateway")
	if err != nil {
		return nil, err
	}
	gw := in.gw
	tenants, buckets := sz.scaleData(objTenants), sz.scaleData(objBuckets)
	tokens, err := in.auth.CreateTenants("u", tenants, 24*3600*sim.Second)
	if err != nil {
		return nil, err
	}
	bucket := func(b int) string { return fmt.Sprintf("b-%04d", b) }
	key := func(o int) string { return fmt.Sprintf("o/%04d", o) }

	// Prefill: one proc per bucket, public read-write so any tenant's op
	// authorizes against the in-memory ACL.
	prefilled := 0
	var perr error
	for b := 0; b < buckets; b++ {
		b := b
		in.k.Go(fmt.Sprintf("bench-prefill-%d", b), func(p *sim.Proc) {
			defer func() { prefilled++ }()
			tok := tokens[b%len(tokens)]
			bopts := gateway.BucketOptions{ACL: gateway.ACL{Public: security.ReadWrite}, Priority: -1}
			if err := gw.CreateBucket(p, tok, bucket(b), bopts); err != nil {
				perr = errors.Join(perr, err)
				return
			}
			for o := 0; o < objPerBucket; o++ {
				body := make([]byte, objSize(o))
				fill(body, len(body), func(int) uint64 { return uint64(b*objPerBucket + o) }, prefillStamp)
				if _, err := gw.PutObject(p, tok, bucket(b), key(o), body); err != nil {
					perr = errors.Join(perr, err)
					return
				}
			}
		})
	}
	for prefilled < buckets {
		in.k.RunFor(10 * sim.Millisecond)
		sw.lapIfDue()
	}
	if perr != nil {
		return nil, perr
	}
	in.k.RunFor(2 * sim.Second) // drain the destage convoy prefill leaves

	t := newAckTracker(buckets * objPerBucket)
	type client struct {
		rng *rand.Rand
		pat *workload.BucketZipf
		seq uint64
		buf []byte
	}
	cl := make([]client, objClients)
	for i := range cl {
		rng := rand.New(rand.NewSource(seed*1000003 + int64(i)))
		cl[i] = client{rng: rng, buf: make([]byte, objLarge),
			pat: workload.NewBucketZipf(rng, tenants, buckets, objPerBucket, 1.2, 0.3, 1<<62, 1)}
	}
	checkBody := func(unit int, body []byte, floor uint64) error {
		if len(body) != objSize(unit%objPerBucket) {
			return fmt.Errorf("object %d: %d bytes", unit, len(body))
		}
		addr, stamp, err := parse(body)
		if err != nil {
			return fmt.Errorf("object %d: %w", unit, err)
		}
		if addr != uint64(unit) {
			return fmt.Errorf("object %d: holds the body of object %d", unit, addr)
		}
		return t.check(unit, stamp, floor)
	}
	in.op = func(p *sim.Proc, ci int) opResult {
		me := &cl[ci]
		op := me.pat.Next(me.rng)
		unit := op.Bucket*objPerBucket + op.Obj
		tok := tokens[op.User]
		if op.Write {
			me.seq++
			stamp := uint64(ci)<<32 | me.seq
			body := me.buf[:objSize(op.Obj)]
			fill(body, len(body), func(int) uint64 { return uint64(unit) }, stamp)
			w := t.issue(stamp, unit, 1, 0)
			_, err := gw.PutObject(p, tok, bucket(op.Bucket), key(op.Obj), body)
			if err == nil {
				t.ack(w)
			}
			return opResult{"gateway.PutObject", len(body), err}
		}
		floor := t.ackedBegin[unit]
		body, _, err := gw.GetObject(p, tok, bucket(op.Bucket), key(op.Obj))
		if err == nil {
			err = checkBody(unit, body, floor)
		}
		return opResult{"gateway.GetObject", len(body), err}
	}
	in.readBack = func(p *sim.Proc) (lost int, err error) {
		for unit, floor := range t.maxBegin {
			if floor == 0 {
				continue
			}
			body, _, rerr := gw.GetObject(p, tokens[0], bucket(unit/objPerBucket), key(unit%objPerBucket))
			if rerr == nil {
				rerr = checkBody(unit, body, floor)
			}
			if rerr != nil {
				lost++
				err = errors.Join(err, rerr)
			}
		}
		return lost, err
	}
	return in, nil
}
