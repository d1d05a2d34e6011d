// Package coherence implements the inter-controller cache coherence of §2.2:
// a directory-based MSI protocol across controller blades. Every block has a
// home blade (by rendezvous hash over the live membership) whose directory
// entry serializes ownership transitions; blades cache Shared (clean) or
// Modified (possibly dirty, exclusive) copies and exchange
// GetS/GetX/Inv/Downgrade/Fetch messages over the blade fabric.
//
// Protocol invariants:
//
//  1. Directory Shared ⇒ every cached copy is clean AND the backing store
//     is current.
//  2. Directory Modified(o) ⇒ blade o holds the only copy; the backing
//     store may be stale.
//  3. A blade drops a Modified entry only after its data has reached the
//     backing store (eviction writes back first), OR in response to an
//     Inv-M whose requester is about to overwrite the whole block.
//
// Invariant 3 lets the home treat "owner no longer has it" replies as
// "backing store is current".
package coherence

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/cache"
	"repro/internal/qos"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/telemetry"
	tr "repro/internal/trace" // aliased: this package has a trace() debug helper
)

// Backing is the stable store beneath the coherent cache — in the full
// system, virtual volumes striped over RAID groups.
type Backing interface {
	// ReadBlockInto fills dst, a whole number of blocks, with the run of
	// consecutive blocks that starts at key; what was never written reads
	// as zeros.
	ReadBlockInto(p *sim.Proc, key cache.Key, dst []byte) error
	// WriteBlocks stores data, a whole number of blocks, as the run of
	// consecutive blocks that starts at key.
	WriteBlocks(p *sim.Proc, key cache.Key, data []byte) error
}

// ErrNoQuorum is returned when no live blade can home a block.
var ErrNoQuorum = errors.New("coherence: no live blades")

// ErrDegraded marks an operation abandoned because fabric retries were
// exhausted: the blade is up but could not complete the protocol exchange
// in time. Callers fail the one operation instead of wedging the process;
// the next operation retries from scratch.
var ErrDegraded = errors.New("coherence: degraded: fabric retries exhausted")

// Default fabric retry policy: a per-attempt deadline generous enough for
// a destage-laden protocol exchange, three attempts, jittered backoff.
const (
	defaultRPCTimeout  = 2 * sim.Second
	defaultRPCAttempts = 3
	defaultRPCBackoff  = 500 * sim.Microsecond
)

// Config assembles an Engine.
type Config struct {
	// Conn is this blade's fabric RPC endpoint.
	Conn *simnet.Conn
	// Peers lists every blade's fabric address; index = blade ID.
	Peers []simnet.Addr
	// Self is this blade's ID (index into Peers).
	Self int
	// Cache is the blade's block cache.
	Cache *cache.Cache
	// Backing is the stable store.
	Backing Backing
	// BlockSize is the coherence granularity in bytes.
	BlockSize int
	// OpDelay is the CPU cost charged per client operation.
	OpDelay sim.Duration
	// HandlerDelay is the CPU cost charged per protocol message handled.
	HandlerDelay sim.Duration
	// CPUSlots bounds concurrently executing operations on this blade.
	CPUSlots int
	// ReplicateDirty, if non-nil, runs after a write installs dirty data
	// and before the write is acknowledged (N-way replication hook, §6.1).
	// factor is the per-write replication factor (0 = manager default),
	// settable per file via the PFS policy metadata (§4).
	ReplicateDirty func(p *sim.Proc, key cache.Key, data []byte, version uint64, factor int) error
	// OnClean, if non-nil, runs when a dirty block reaches the backing
	// store (replicas may be released).
	OnClean func(p *sim.Proc, key cache.Key, version uint64)
	// NoPeerFetch disables cache-to-cache transfers on read misses
	// (ablation: every shared miss then reads the backing store).
	NoPeerFetch bool
	// ReadAhead, when positive, prefetches this many following blocks
	// after a detected sequential read run (§4).
	ReadAhead int
	// Retry tunes the bounded retry loop wrapped around every protocol
	// call (GetS/GetX/Inv/Downgrade/Fetch). Zero fields select defaults:
	// 2 s per-attempt deadline, 3 attempts, 500 µs jittered backoff.
	Retry simnet.RetryPolicy
	// CPUQueue, if non-nil, replaces the FIFO CPU semaphore with a QoS
	// weighted-fair queue of the same slot count, so background services
	// (rebuild compute, destage) queue behind foreground ops per lane
	// weight instead of head-of-line blocking them.
	CPUQueue *qos.FairQueue
}

// Stats counts engine activity.
type Stats struct {
	Reads, Writes int64 // client operations served
	LocalHits     int64
	PeerFetches   int64 // data served from another blade's cache
	DiskReads     int64
	Writebacks    int64 // dirty blocks destaged
	WritebackRuns int64 // backing writes issued for them (a run of adjacent blocks is one)
	Invalidations int64 // Inv/InvM messages handled
	Downgrades    int64
	DirRequests   int64 // GetS/GetX handled as home
	WriteRetries  int64
	Prefetches    int64 // readahead blocks pulled (§4)
	// ValueFetches counts coherence-bypassing value reads ("coh.getv")
	// this blade served as home — the hot-key cache tier's fill traffic.
	ValueFetches int64
	// DegradedOps counts protocol calls abandoned after the fabric retry
	// budget was exhausted (the op failed with ErrDegraded).
	DegradedOps int64
	// WritebackErrors counts failed destages of dirty blocks (makeRoom
	// and the flusher); the block stays dirty and is retried later.
	WritebackErrors int64
	// HomeMigrations counts directory homes this blade handed away;
	// HomeAdoptions counts homes it took over (hot-spot rebalancing).
	HomeMigrations int64
	HomeAdoptions  int64
	// RedirectsServed counts requests for a migrated-away key answered
	// with the new home's address; RedirectsFollowed counts requests this
	// blade re-issued after such an answer.
	RedirectsServed   int64
	RedirectsFollowed int64
}

type dirState uint8

const (
	dirInvalid dirState = iota
	dirShared
	dirModified
)

type dirEntry struct {
	state dirState
	owner int
	// sharers holds, per registered sharer, the install epoch its copy
	// lives under (the requester's invEpoch, carried in the GetS/GetX);
	// ownerEpoch is the same for the Modified owner. Asynchronous evict
	// notices carry the epoch the evicted copy lived under, and only a
	// notice whose epoch is current may deregister: a blade can evict,
	// re-request, and re-install while its notice is still in flight
	// (notably via the ex-home relay path after a migration), and an
	// unconditional removal would strand the fresh copy outside the
	// sharer set — unreachable by invalidations, serving stale data.
	sharers    sharerSet
	ownerEpoch uint64
	mu         *sim.Mutex
}

// sharer is one registered Shared copy: the blade that holds it and the
// install epoch it was registered under.
type sharer struct {
	blade int
	epoch uint64
}

// sharerSet is a directory entry's sharers, sorted by blade ID, so that
// protocol fan-out walks them in an order that does not depend on how the
// set came about: the event sequence (and with it the whole run) has to be
// identical for a given seed. An entry keeps the one backing array through
// every state change; a set is a handful of blades, so lookups scan it.
type sharerSet []sharer

// find returns blade's position in the set, or where it would be inserted.
func (s sharerSet) find(blade int) (i int, ok bool) {
	for i = range s {
		if s[i].blade >= blade {
			return i, s[i].blade == blade
		}
	}
	return len(s), false
}

// epoch returns the epoch blade is registered under; ok is false if it is
// not a sharer.
func (s sharerSet) epoch(blade int) (epoch uint64, ok bool) {
	if i, ok := s.find(blade); ok {
		return s[i].epoch, true
	}
	return 0, false
}

// add registers blade under epoch, replacing an earlier registration.
func (s *sharerSet) add(blade int, epoch uint64) {
	i, ok := s.find(blade)
	if !ok {
		*s = slices.Insert(*s, i, sharer{blade: blade})
	}
	(*s)[i].epoch = epoch
}

func (s *sharerSet) remove(blade int) {
	if i, ok := s.find(blade); ok {
		*s = slices.Delete(*s, i, i+1)
	}
}

// reset empties the set, keeping its array.
func (s *sharerSet) reset() { *s = (*s)[:0] }

// only makes blade, registered under epoch, the set's one member.
func (s *sharerSet) only(blade int, epoch uint64) {
	*s = append((*s)[:0], sharer{blade, epoch})
}

// blades appends the sharers' blade IDs, ascending, to dst: a copy for a
// walk that blocks between sharers, during which an evict notice (which
// takes no entry mutex) may shrink the set.
func (s sharerSet) blades(dst []int) []int {
	for _, sh := range s {
		dst = append(dst, sh.blade)
	}
	return dst
}

// Engine runs the coherence protocol for one blade.
type Engine struct {
	k         *sim.Kernel
	conn      *simnet.Conn
	peers     []simnet.Addr
	self      int
	cache     *cache.Cache
	backing   Backing
	blockSize int
	opDelay   sim.Duration
	hdlDelay  sim.Duration
	cpu       *sim.Semaphore
	cpuq      *qos.FairQueue
	retry     simnet.RetryPolicy

	alive []int // sorted live blade IDs; must agree across blades

	dir      map[cache.Key]*dirEntry
	invEpoch map[cache.Key]uint64

	// homeOverride maps migrated keys to their current home, consulted
	// before the rendezvous hash. forward marks keys this blade used to
	// home: requests that still arrive here bounce back with the new
	// address, so a blade that missed the sethome broadcast converges
	// instead of misrouting. heat feeds the rebalancer.
	homeOverride map[cache.Key]int
	forward      map[cache.Key]int
	heat         *HeatTracker

	// idx is the fixed-stride home-lookup cache (see homeidx.go).
	idx *homeIndex

	// onWriteThrough, when installed, runs synchronously on the WRITER
	// blade after a write's Modified copy is installed (and replicated)
	// and before the write is acknowledged to the client. The hot-key
	// cache tier hangs its write-through invalidation here. The ordering
	// is what makes the tier's freshness guarantee airtight: a tier fill
	// snapshots its per-key epoch, fetches bytes, and installs only if
	// the epoch has not moved — so a fill that read pre-write bytes
	// either installed before this hook fired (the invalidation removes
	// the copy) or snapshots after it (the fetch then observes the
	// already-installed new bytes). Either way, by the time the writer's
	// client sees the ack, no tier node holds bytes older than the write.
	// Firing on the writer — not inside the home's GetX handler — also
	// keeps the fan-out RPCs outside the directory-entry mutex, so hot
	// keys don't convoy readers behind invalidation round trips.
	onWriteThrough func(p *sim.Proc, keys []cache.Key)

	// label is "blade<self>", precomputed for span Where fields.
	label string

	replicate func(p *sim.Proc, key cache.Key, data []byte, version uint64, factor int) error
	onClean   func(p *sim.Proc, key cache.Key, version uint64)

	// unpinned holds one future per pinned entry somebody is waiting on
	// (see waitUnpinned); unpin completes and removes it.
	unpinned map[*cache.Entry]*sim.Future[struct{}]

	// free holds block buffers that clean entries left behind (see buffer
	// and recycle), never more than the cache has empty slots.
	free [][]byte

	stats Stats
	// down mirrors the cluster's view of this blade; a down engine
	// rejects client operations.
	down        bool
	noPeerFetch bool

	readAhead   int
	lastSeq     map[string]int64
	seqStreak   map[string]int
	prefetching map[cache.Key]bool
}

// Message and reply payloads. Wire sizes: control ~64 B, data adds the block.
const ctrlSize = 64

// dirReq is a request to a key's home: coh.gets (read-share), coh.getx
// (exclusive ownership) or coh.getv (a value read outside the coherence
// domain, see handleGetV); a coh.gets carries a slice of them, answered in
// order. Epoch is the requester's local install epoch for the key; gets and
// getx record it with the registration so late evict notices (which carry
// the epoch the evicted copy lived under) can be told apart from a
// re-registration that happened after the eviction.
type dirReq struct {
	Key   cache.Key
	Epoch uint64
}

// dirResp is the home's answer to a dirReq.
type dirResp struct {
	Data []byte // non-nil: serve from this payload (peer cache transfer)
	// NoCache marks data forwarded from a dirty owner: the requester
	// serves it but must not install a Shared copy (the owner retains
	// exclusive ownership until its data is destaged).
	NoCache bool
	// Redirect reports that this blade no longer homes the key; the
	// requester must retry at NewHome (and may cache the new address).
	Redirect bool
	NewHome  int
}
type invReq struct{ Key cache.Key }
type invResp struct{}
type invMReq struct{ Key cache.Key }
type invMResp struct{ Gone bool }
type downgradeReq struct{ Key cache.Key }
type downgradeResp struct {
	Gone bool
	Data []byte
	// StillDirty reports that the owner forwarded dirty data without a
	// writeback and keeps ownership; the home must leave the directory
	// in Modified state and the requester must not cache the data.
	StillDirty bool
}
type fetchReq struct{ Key cache.Key }
type fetchResp struct {
	Gone bool
	Data []byte
}

type evictNote struct {
	Key      cache.Key
	From     int
	WasOwner bool
	// Epoch is the install epoch the evicted copy lived under (the value
	// of the evictor's invEpoch before the eviction bumped it). The home
	// ignores the notice if the blade has since re-registered under a
	// newer epoch.
	Epoch uint64
}

// Home-migration payloads (hot-spot rebalancing, §2.2/§6.3). migrate is
// sent by the balance controller to the current home; adopt hands the
// directory entry (plus its heat) to the new home; sethome broadcasts the
// new address to the remaining blades.
type migrateReq struct {
	Key cache.Key
	To  int
}
type migrateResp struct {
	Moved bool
	Err   string
}
type adoptReq struct {
	Key   cache.Key
	State uint8
	Owner int
	// Sharers and SharerEpochs are parallel: the registration epochs must
	// migrate with the sharer set, or a pre-migration evict notice relayed
	// to the new home could deregister a copy re-installed after it.
	Sharers      []int
	SharerEpochs []uint64
	OwnerEpoch   uint64
	Heat         float64
}
type adoptResp struct{}
type setHomeReq struct {
	Key  cache.Key
	Home int
}
type setHomeResp struct{}

// NormalizeRetry fills pol's zero fields with the engine defaults — also
// used by management-plane callers (the balance controller) so their
// protocol RPCs retry exactly like blade-to-blade traffic.
func NormalizeRetry(pol simnet.RetryPolicy) simnet.RetryPolicy {
	if pol.Timeout <= 0 {
		pol.Timeout = defaultRPCTimeout
	}
	if pol.Attempts < 1 {
		pol.Attempts = defaultRPCAttempts
	}
	if pol.Backoff <= 0 {
		pol.Backoff = defaultRPCBackoff
	}
	if pol.Jitter <= 0 {
		pol.Jitter = pol.Backoff
	}
	return pol
}

// New builds an engine and registers its protocol handlers on cfg.Conn.
func New(k *sim.Kernel, cfg Config) *Engine {
	if cfg.BlockSize <= 0 {
		panic("coherence: BlockSize required")
	}
	slots := cfg.CPUSlots
	if slots <= 0 {
		slots = 4
	}
	retry := NormalizeRetry(cfg.Retry)
	e := &Engine{
		k:            k,
		conn:         cfg.Conn,
		peers:        cfg.Peers,
		self:         cfg.Self,
		cache:        cfg.Cache,
		backing:      cfg.Backing,
		blockSize:    cfg.BlockSize,
		opDelay:      cfg.OpDelay,
		hdlDelay:     cfg.HandlerDelay,
		cpu:          sim.NewSemaphore(k, slots),
		cpuq:         cfg.CPUQueue,
		retry:        retry,
		label:        fmt.Sprintf("blade%d", cfg.Self),
		dir:          make(map[cache.Key]*dirEntry),
		invEpoch:     make(map[cache.Key]uint64),
		homeOverride: make(map[cache.Key]int),
		forward:      make(map[cache.Key]int),
		heat:         NewHeatTracker(k, HeatHalfLife),
		replicate:    cfg.ReplicateDirty,
		onClean:      cfg.OnClean,
		unpinned:     make(map[*cache.Entry]*sim.Future[struct{}]),
		noPeerFetch:  cfg.NoPeerFetch,
		readAhead:    cfg.ReadAhead,
		lastSeq:      make(map[string]int64),
		seqStreak:    make(map[string]int),
		prefetching:  make(map[cache.Key]bool),
		idx:          newHomeIndex(),
	}
	for i := range cfg.Peers {
		e.alive = append(e.alive, i)
	}
	e.conn.Register("coh.gets", e.handleGetS)
	e.conn.Register("coh.getx", e.handleGetX)
	e.conn.Register("coh.inv", e.handleInv)
	e.conn.Register("coh.invm", e.handleInvM)
	e.conn.Register("coh.downgrade", e.handleDowngrade)
	e.conn.Register("coh.fetch", e.handleFetch)
	e.conn.Register("coh.getv", e.handleGetV)
	e.conn.Register("coh.evict", e.handleEvictNote)
	e.conn.Register("coh.migrate", e.handleMigrate)
	e.conn.Register("coh.adopt", e.handleAdopt)
	e.conn.Register("coh.sethome", e.handleSetHome)
	return e
}

// Stats returns a copy of the counters.
func (e *Engine) Stats() Stats { return e.stats }

// Cache returns the blade's cache (for inspection).
func (e *Engine) Cache() *cache.Cache { return e.cache }

// SetDown marks the engine up or down; down engines refuse client I/O.
func (e *Engine) SetDown(down bool) { e.down = down }

// SetWriteThroughHook installs (or, with nil, removes) the write-through
// hook: fn runs synchronously on this blade for every write it issues,
// after the Modified copy is installed and replicated, before the write
// returns to the caller. fn may issue fabric RPCs; no directory mutexes
// are held. See the onWriteThrough field for the ordering argument.
func (e *Engine) SetWriteThroughHook(fn func(p *sim.Proc, keys []cache.Key)) {
	e.onWriteThrough = fn
}

// home returns the blade ID that homes key: a migration override if one is
// installed, the rendezvous hash over the live membership otherwise. The
// fixed-stride index short-circuits repeats; its result is always exactly
// what the slow path below would compute (overrides and membership changes
// invalidate it wholesale).
func (e *Engine) home(key cache.Key) (int, error) {
	if len(e.alive) == 0 {
		return -1, ErrNoQuorum
	}
	if h, ok := e.idx.lookup(key); ok {
		return h, nil
	}
	hid, ok := e.homeOverride[key]
	if !ok {
		hid = e.alive[keyHash(key)%uint64(len(e.alive))]
	}
	e.idx.install(key, hid)
	return hid, nil
}

// setHomeOverride records a migrated key's home and invalidates the home
// index — every cached mapping may now be stale.
func (e *Engine) setHomeOverride(key cache.Key, home int) {
	e.homeOverride[key] = home
	e.idx.invalidate()
}

// Home exposes this blade's view of key's home blade — used by affinity
// routing (hosts with static paths to their data's controller) and by the
// rebalancer to validate migration candidates.
func (e *Engine) Home(key cache.Key) (int, error) { return e.home(key) }

// HottestHomes returns up to n of the hottest keys currently homed on this
// blade, ordered by decayed demand (deterministic tie-break).
func (e *Engine) HottestHomes(n int) []KeyHeat {
	ranked := e.heat.Hottest(n * 2)
	out := make([]KeyHeat, 0, n)
	for _, kh := range ranked {
		if len(out) >= n {
			break
		}
		if h, err := e.home(kh.Key); err == nil && h == e.self {
			out = append(out, kh)
		}
	}
	return out
}

// Busy charges d of CPU time against this blade's processor — used by
// cluster services (e.g. rebuild XOR compute, §2.4) that share the blade
// with the I/O path.
func (e *Engine) Busy(p *sim.Proc, d sim.Duration) { e.busy(p, d) }

// busy charges CPU for one operation of duration d. With a QoS queue
// installed the caller competes in its lane; otherwise the plain FIFO
// semaphore preserves the pre-QoS event order exactly.
func (e *Engine) busy(p *sim.Proc, d sim.Duration) {
	qs := tr.FromProc(p).Child("cpu-queue", tr.Queue, e.label)
	if e.cpuq != nil {
		e.cpuq.Acquire(p, qos.LaneOf(p), d.Millis())
		qs.End()
		p.Sleep(d)
		e.cpuq.Release()
		return
	}
	e.cpu.Acquire(p, 1)
	qs.End()
	p.Sleep(d)
	e.cpu.Release(1)
}

// call runs one protocol RPC under the engine's retry policy. An exhausted
// retry budget maps to ErrDegraded: the operation fails cleanly instead of
// wedging a process on a fabric that is dropping messages.
func (e *Engine) call(p *sim.Proc, blade int, method string, args any, size int) (any, error) {
	var sp *tr.Active
	if ctx := tr.FromProc(p); ctx.Valid() {
		sp = ctx.Child(method, tr.Coherence, fmt.Sprintf("blade%d", blade))
		defer sp.End()
	}
	raw, err := e.conn.CallRetry(p, e.peers[blade], method, args, size, e.retry)
	if err != nil {
		if errors.Is(err, simnet.ErrTimeout) {
			e.stats.DegradedOps++
			return nil, fmt.Errorf("%w: %s to blade %d: %v", ErrDegraded, method, blade, err)
		}
		return nil, err
	}
	return raw, nil
}

// RPCStats returns the fabric fault counters of this blade's connection
// (timeouts, retries, gave-up calls — shared with the replication manager).
func (e *Engine) RPCStats() simnet.RPCStats { return e.conn.Stats() }

// RegisterTelemetry publishes the engine's protocol counters, its cache,
// its fabric RPC endpoint, and its CPU occupancy under s (coh/...,
// cache/..., rpc/..., cpu_free).
func (e *Engine) RegisterTelemetry(s telemetry.Scope) {
	e.cache.RegisterTelemetry(s.Sub("cache"))
	e.conn.RegisterTelemetry(s.Sub("rpc"))
	coh := s.Sub("coh")
	coh.Int("reads", func() int64 { return e.stats.Reads })
	coh.Int("writes", func() int64 { return e.stats.Writes })
	coh.Int("local_hits", func() int64 { return e.stats.LocalHits })
	coh.Int("peer_fetches", func() int64 { return e.stats.PeerFetches })
	coh.Int("disk_reads", func() int64 { return e.stats.DiskReads })
	coh.Int("writebacks", func() int64 { return e.stats.Writebacks })
	coh.Int("writeback_runs", func() int64 { return e.stats.WritebackRuns })
	coh.Int("value_fetches", func() int64 { return e.stats.ValueFetches })
	coh.Int("invalidations", func() int64 { return e.stats.Invalidations })
	coh.Int("downgrades", func() int64 { return e.stats.Downgrades })
	coh.Int("dir_requests", func() int64 { return e.stats.DirRequests })
	coh.Int("write_retries", func() int64 { return e.stats.WriteRetries })
	coh.Int("prefetches", func() int64 { return e.stats.Prefetches })
	coh.Int("degraded_ops", func() int64 { return e.stats.DegradedOps })
	coh.Int("writeback_errors", func() int64 { return e.stats.WritebackErrors })
	coh.Int("migrated_out", func() int64 { return e.stats.HomeMigrations })
	coh.Int("migrated_in", func() int64 { return e.stats.HomeAdoptions })
	coh.Int("redirects", func() int64 { return e.stats.RedirectsServed })
	coh.Int("home_idx_hits", func() int64 { return e.idx.hits })
	coh.Int("home_idx_misses", func() int64 { return e.idx.miss })
	s.Int("cpu_free", func() int64 { return int64(e.cpu.Available()) })
}

func (e *Engine) entry(key cache.Key) *dirEntry {
	ent, ok := e.dir[key]
	if !ok {
		ent = &dirEntry{mu: sim.NewMutex(e.k)}
		e.dir[key] = ent
	}
	return ent
}

// Reads are run-granular. A read resolves in two phases. Phase 1 is per
// block and is the MSI protocol: the CPU charge, the local hit, the
// directory exchange (one coh.gets per home for the op's misses), a peer's
// copy. A block whose directory answer carries no data — the backing store
// is current — does not read the store itself: it joins the op's gather.
// Phase 2 runs once every block has its answer: one backing read per
// maximal run of gathered blocks, straight into the op's buffer, then one
// install per block under that block's own guards, their evictions told as
// one coh.evict per home. A single block is the run of length one.

// ReadBlock returns the content of key's block, serving from the local
// cache when possible and running the coherence protocol otherwise.
func (e *Engine) ReadBlock(p *sim.Proc, key cache.Key, priority int) ([]byte, error) {
	dst := make([]byte, e.blockSize)
	if err := e.ReadBlockInto(p, key, priority, dst); err != nil {
		return nil, err
	}
	return dst, nil
}

// ReadBlockInto is ReadBlock filling the caller's block-sized dst, on the
// caller's own process.
func (e *Engine) ReadBlockInto(p *sim.Proc, key cache.Key, priority int, dst []byte) error {
	e.noteRun(key.Vol, key.LBA, key.LBA, priority)
	epoch, miss, err := e.lookup(p, key, dst)
	if err != nil || !miss {
		return err
	}
	resp, err := e.ask(p, "coh.gets", key, epoch)
	if err == nil && e.settle(p, key, epoch, resp, priority, dst) {
		err = e.fillRun(p, key, []gathered{{fill: true, epoch: epoch}}, priority, dst)
	}
	return err
}

// ReadRun reads the run of consecutive blocks of vol that starts at lba
// into dst, a whole number of blocks: a client op. Phase 1 gives every
// block a process of its own; phase 2 reads what the backing store must
// supply in as few I/Os as the gathered blocks allow.
func (e *Engine) ReadRun(p *sim.Proc, vol string, lba int64, priority int, dst []byte) error {
	if len(dst)%e.blockSize != 0 {
		return fmt.Errorf("coherence: read of %d bytes, block size %d", len(dst), e.blockSize)
	}
	if len(dst) > 0 {
		e.noteRun(vol, lba, lba+int64(len(dst)/e.blockSize)-1, priority)
	}
	return e.readRun(p, vol, lba, priority, dst)
}

// readRun is ReadRun without the sequential detector, which the prefetcher
// must not feed with its own reads.
func (e *Engine) readRun(p *sim.Proc, vol string, lba int64, priority int, dst []byte) error {
	bs := e.blockSize
	count := len(dst) / bs
	op := &runRead{left: count}
	grp := sim.NewGroup(e.k) // not sim.Fork: its closure would add an allocation to every read
	for i := 0; i < count; i++ {
		grp.Add(1)
		e.k.Go("read", func(q *sim.Proc) {
			defer grp.Done()
			key, d := cache.Key{Vol: vol, LBA: lba + int64(i)}, dst[i*bs:(i+1)*bs]
			epoch, miss, err := e.lookup(q, key, d)
			home, pos := -1, 0
			if miss {
				home, pos, err = op.request(e, key, epoch)
			}
			op.fail(err)
			if op.left--; op.left == 0 && op.vecs != nil {
				op.ready.Set(struct{}{}) // phase 1 is over: the vectors may go
			}
			if home < 0 {
				return
			}
			resp, err := op.answer(q, e, home, pos)
			if err == nil && resp.Redirect { // this key alone moved: follow it
				e.stats.RedirectsFollowed++
				e.setHomeOverride(key, resp.NewHome)
				resp, err = e.ask(q, "coh.gets", key, epoch)
			}
			if op.fail(err); err == nil && e.settle(q, key, epoch, resp, priority, d) {
				op.gather(i, count, epoch)
			}
		})
	}
	grp.Wait(p)
	if op.err != nil {
		return op.err
	}
	return e.fillGathered(p, op.blocks, vol, lba, priority, dst)
}

// gathered is one block's slot in an op's gather: whether the backing store
// must supply the block, and the install epoch its directory answer was
// requested under.
type gathered struct {
	fill  bool
	epoch uint64
}

// runRead is the state the blocks of one ReadRun share.
type runRead struct {
	err    error      // the first block to fail fails the op
	blocks []gathered // nil until a block joins the gather
	left   int        // blocks still in phase 1; ready is set when it reaches 0
	// The op's coh.gets by home blade, and how many are out; set at its first
	// miss, and held by value so that an op allocates them once, with itself.
	vecs     []vector
	ready    sim.Future[struct{}]
	answered sim.Group
}

// vector is an op's coh.gets to one home: its requests and answers, in order.
type vector struct {
	reqs  []dirReq
	resps []dirResp
}

func (op *runRead) fail(err error) {
	if op.err == nil {
		op.err = err
	}
}

// request adds key's request to its home's vector: which home, what place.
func (op *runRead) request(e *Engine, key cache.Key, epoch uint64) (home, pos int, err error) {
	if home, err = e.home(key); err != nil {
		return -1, 0, err
	}
	if op.vecs == nil {
		op.vecs = make([]vector, len(e.peers))
		// answered counts vectors, not processes, and every block waits on it: not a sim.Fork
		op.ready, op.answered = *sim.NewFuture[struct{}](e.k), *sim.NewGroup(e.k)
	}
	v := &op.vecs[home]
	if len(v.reqs) == 0 {
		op.answered.Add(1)
	}
	v.reqs = append(v.reqs, dirReq{Key: key, Epoch: epoch})
	return home, len(v.reqs) - 1, nil
}

// answer returns home's answer to request pos of its vector, or the op's
// error. A vector's first request sends it once phase 1 is over, with all the
// op's misses at that home in it; the misses go on when all are answered.
func (op *runRead) answer(q *sim.Proc, e *Engine, home, pos int) (dirResp, error) {
	v := &op.vecs[home]
	if pos == 0 {
		op.ready.Wait(q)
		if op.err == nil {
			raw, err := e.call(q, home, "coh.gets", v.reqs, ctrlSize)
			if v.resps, _ = raw.([]dirResp); err != nil {
				op.fail(fmt.Errorf("coherence: coh.gets to blade %d: %w", home, err))
			}
		}
		op.answered.Done()
	}
	op.answered.Wait(q)
	if v.resps == nil { // the op failed
		return dirResp{}, op.err
	}
	return v.resps[pos], nil
}

// gather records that block i of the op's count must come from the backing
// store. An op that never misses allocates nothing here.
func (op *runRead) gather(i, count int, epoch uint64) {
	if op.blocks == nil {
		op.blocks = make([]gathered, count)
	}
	op.blocks[i] = gathered{fill: true, epoch: epoch}
}

// lookup is phase 1's local half for one block: the CPU charge and a local
// hit into dst. On a miss the block's home must answer a request under epoch.
func (e *Engine) lookup(p *sim.Proc, key cache.Key, dst []byte) (epoch uint64, miss bool, err error) {
	if e.down {
		return 0, false, fmt.Errorf("coherence: blade %d down", e.self)
	}
	e.stats.Reads++
	e.busy(p, e.opDelay)
	if ent, ok := e.cache.Get(key); ok && ent.State != cache.Invalid {
		e.stats.LocalHits++
		// Local hits at the home never reach the directory handler, so the
		// demand they represent is counted here — otherwise affinity-routed
		// hot reads would look cold to the rebalancer.
		if h, err := e.home(key); err == nil && h == e.self {
			e.heat.Touch(key)
		}
		if ctx := tr.FromProc(p); ctx.Valid() {
			// Instant span (Start == End): marks the block as served from
			// the local cache so breakdowns can count hit vs miss paths.
			ctx.Child("hit", tr.CacheHit, e.label).End()
		}
		copy(dst, ent.Data)
		return 0, false, nil
	}
	return e.invEpoch[key], true, nil
}

// settle serves the home's answer into dst, installing a copy of a peer's
// data here (install copies it into a buffer of the free list, so the
// reply's own buffer is never recycled). fill reports that there was no
// data: this blade is a sharer under epoch, the backing store is current,
// and the block is the caller's to read.
func (e *Engine) settle(p *sim.Proc, key cache.Key, epoch uint64, resp dirResp, priority int, dst []byte) (fill bool) {
	if resp.Data == nil {
		e.stats.DiskReads++
		return true
	}
	e.stats.PeerFetches++
	if !resp.NoCache { // a dirty owner forwarded it: serve, do not install
		e.install(p, key, epoch, resp.Data, priority, nil)
	}
	copy(dst, resp.Data)
	return false
}

// ask sends key's directory request (method is coh.gets, coh.getx or
// coh.getv; a coh.gets vector of one) to the key's home and returns the
// home's answer. A home that migrated while the request was in flight
// answers with a Redirect: ask learns the new address and retries there.
// Chained redirects are bounded by the blade count plus in-flight migrations.
func (e *Engine) ask(p *sim.Proc, method string, key cache.Key, epoch uint64) (dirResp, error) {
	homeID, err := e.home(key)
	if err != nil {
		return dirResp{}, err
	}
	for hops := 0; ; hops++ {
		var args any = dirReq{Key: key, Epoch: epoch}
		if method == "coh.gets" {
			args = []dirReq{{Key: key, Epoch: epoch}}
		}
		raw, err := e.call(p, homeID, method, args, ctrlSize)
		if err != nil {
			return dirResp{}, fmt.Errorf("coherence: %s to blade %d: %w", method, homeID, err)
		}
		resp, ok := raw.(dirResp)
		if !ok {
			resp = raw.([]dirResp)[0]
		}
		if !resp.Redirect {
			return resp, nil
		}
		e.stats.RedirectsFollowed++
		e.setHomeOverride(key, resp.NewHome)
		homeID = resp.NewHome
		if hops > len(e.peers)+8 {
			return dirResp{}, fmt.Errorf("coherence: %s for %v: redirect loop", method, key)
		}
	}
}

// install caches a copy of src, in a buffer from the free list, as key's
// Shared copy — unless the copy it would be is no longer this blade's to
// hold. The entry must have seen no invalidation since the directory
// answered (epoch), before and after makeRoom, which may block on a
// writeback. It must also still be absent: a writer proc on this same blade
// may have installed a Modified copy while the data was being fetched (GetX
// does not invalidate the requester's own blade, so the epoch alone cannot
// see it), and overwriting that dirty block with older data would lose an
// acknowledged write. A failed makeRoom (backing store refusing writebacks)
// degrades to serving the read uncached rather than failing it.
func (e *Engine) install(p *sim.Proc, key cache.Key, epoch uint64, src []byte, priority int, notes *[]evictNote) {
	if e.invEpoch[key] != epoch || e.makeRoom(p, notes) != nil {
		return
	}
	if _, present := e.cache.Peek(key); present || e.invEpoch[key] != epoch {
		return
	}
	buf := e.buffer()
	copy(buf, src)
	e.cache.Put(key, buf, cache.Shared, false, priority)
}

// buffer returns a block buffer for a new cache entry: the one a clean
// entry left most recently (see recycle), or a new one.
func (e *Engine) buffer() []byte {
	n := len(e.free)
	if n == 0 {
		return make([]byte, e.blockSize)
	}
	buf := e.free[n-1]
	e.free[n-1] = nil
	e.free = e.free[:n-1]
	return buf
}

// owned reports that nobody but the cache holds ent's buffer: ent is clean
// and unpinned, and its Version is 0, so install put the buffer in and
// nobody rewrote it (every data update bumps Version; a write's buffer goes
// to the replicas, a destage's to the store). Every reader copies out of an
// entry before it yields, so no reader holds it either.
func owned(ent *cache.Entry) bool { return !ent.Dirty && !ent.Pinned && ent.Version == 0 }

// recycle takes back the buffer of ent, which has just left the cache, if
// the cache owned it. The entry's Data becomes nil, so a stale *cache.Entry
// fails loudly instead of reading another block's bytes. The free list
// never holds more buffers than the cache has empty slots: a blade holds no
// more block memory than a full cache.
func (e *Engine) recycle(ent *cache.Entry) {
	if !owned(ent) || len(e.free) >= e.cache.Capacity()-e.cache.Len() {
		return
	}
	e.free = append(e.free, ent.Data)
	ent.Data = nil
}

// fillGathered is phase 2: one fillRun per maximal run of gathered blocks,
// concurrently when the blocks found elsewhere split the op into several.
func (e *Engine) fillGathered(p *sim.Proc, blocks []gathered, vol string, lba int64, priority int, dst []byte) error {
	bs := e.blockSize
	// next returns the first maximal run blocks[a:b] at or after from;
	// a == len(blocks) when there is none.
	next := func(from int) (a, b int) {
		for a = from; a < len(blocks) && !blocks[a].fill; a++ {
		}
		for b = a; b < len(blocks) && blocks[b].fill; b++ {
		}
		return a, b
	}
	a, b := next(0)
	if a == len(blocks) {
		return nil
	}
	if more, _ := next(b); more == len(blocks) { // one run: nothing to fan out
		return e.fillRun(p, cache.Key{Vol: vol, LBA: lba + int64(a)}, blocks[a:b], priority, dst[a*bs:b*bs])
	}
	var runs [][2]int
	for ; a < len(blocks); a, b = next(b) {
		runs = append(runs, [2]int{a, b})
	}
	return sim.Fork(p, "fill", len(runs), func(q *sim.Proc, i int) error {
		a, b := runs[i][0], runs[i][1]
		return e.fillRun(q, cache.Key{Vol: vol, LBA: lba + int64(a)}, blocks[a:b], priority, dst[a*bs:b*bs])
	})
}

// fillRun reads the run of gathered blocks that starts at key from the
// backing store into dst in one call, then installs a copy of each block
// and sends the evictions the installs caused as one notice per home. A
// failed read installs nothing.
func (e *Engine) fillRun(p *sim.Proc, key cache.Key, run []gathered, priority int, dst []byte) error {
	if err := e.backing.ReadBlockInto(p, key, dst); err != nil {
		return err
	}
	bs := e.blockSize
	var notes []evictNote
	if e.cache.NeedsRoom(len(run)) { // the installs will evict, at most once each
		notes = make([]evictNote, 0, len(run))
	}
	for i, g := range run {
		k := cache.Key{Vol: key.Vol, LBA: key.LBA + int64(i)}
		e.install(p, k, g.epoch, dst[i*bs:(i+1)*bs], priority, &notes)
	}
	e.notify(p, notes)
	return nil
}

// FetchBlock returns the key's current bytes without joining the
// coherence domain: no sharer registration at the home, no install into
// this blade's coherence cache, no directory state transition. It is the
// hot-key cache tier's fill path. Freshness: the returned bytes are
// never older than the last write acknowledged before the call — and
// the tier's per-key epoch guard plus the writer-side write-through hook
// (onWriteThrough) extend that to the install: any fill whose bytes a
// concurrent write supersedes is either invalidated after install or
// aborted by its epoch check before it.
func (e *Engine) FetchBlock(p *sim.Proc, key cache.Key, priority int) ([]byte, error) {
	if e.down {
		return nil, fmt.Errorf("coherence: blade %d down", e.self)
	}
	e.stats.Reads++
	e.busy(p, e.opDelay)
	// A local coherent copy is current: if an exclusive grant for the key
	// had passed since it was installed, the grant's invalidation would
	// have removed it.
	if ent, ok := e.cache.Get(key); ok && ent.State != cache.Invalid {
		e.stats.LocalHits++
		return append([]byte(nil), ent.Data...), nil
	}
	resp, err := e.ask(p, "coh.getv", key, 0)
	if err != nil {
		return nil, err
	}
	if resp.Data != nil {
		e.stats.PeerFetches++
		return resp.Data, nil
	}
	e.stats.DiskReads++
	data := make([]byte, e.blockSize)
	if err := e.backing.ReadBlockInto(p, key, data); err != nil {
		return nil, err
	}
	return data, nil
}

// Writes are run-granular too. WriteRun is the one client entry point:
// every block of the run takes the exclusive grant and installs on a
// process of its own (WriteBlockR). A block's Modified copy is installed by
// installModified and nowhere else.

// WriteRun stores data, a whole number of blocks, as the run of consecutive
// blocks of vol that starts at lba: a client op. The write is acknowledged
// once every block is in this blade's cache (and replicated, if a
// replication hook is installed); destage to the backing store is
// asynchronous (§6.1). replFactor is the per-write replication factor
// (0 = the replication manager's default) — the per-file "controller level
// fault tolerance for write-back I/O operations" override of §4.
func (e *Engine) WriteRun(p *sim.Proc, vol string, lba int64, data []byte, priority, replFactor int) error {
	bs := e.blockSize
	if len(data)%bs != 0 {
		return fmt.Errorf("coherence: write of %d bytes, block size %d", len(data), bs)
	}
	return sim.Fork(p, "write", len(data)/bs, func(q *sim.Proc, i int) error {
		return e.WriteBlockR(q, cache.Key{Vol: vol, LBA: lba + int64(i)}, data[i*bs:(i+1)*bs], priority, replFactor)
	})
}

// WriteBlock stores one full block on the caller's own process: the run of
// one, at the default replication factor.
func (e *Engine) WriteBlock(p *sim.Proc, key cache.Key, data []byte, priority int) error {
	return e.WriteBlockR(p, key, data, priority, 0)
}

// WriteBlockR is WriteBlock with an explicit replication factor: take the
// exclusive grant, install.
func (e *Engine) WriteBlockR(p *sim.Proc, key cache.Key, data []byte, priority, replFactor int) error {
	if e.down {
		return fmt.Errorf("coherence: blade %d down", e.self)
	}
	if len(data) != e.blockSize {
		return fmt.Errorf("coherence: write of %d bytes, block size %d", len(data), e.blockSize)
	}
	e.stats.Writes++
	e.busy(p, e.opDelay)
	for attempt := 0; ; attempt++ {
		// Every attempt asks afresh: a migration can land between retries,
		// and a Redirect answer teaches us the new address.
		epoch := e.invEpoch[key]
		if _, err := e.ask(p, "coh.getx", key, epoch); err != nil {
			return err
		}
		if e.invEpoch[key] != epoch {
			// Someone took ownership between our grant and install. Retry
			// after a jittered backoff: two writers stealing ownership from
			// each other before either installs would otherwise livelock.
			e.stats.WriteRetries++
			if attempt > 64 {
				return fmt.Errorf("coherence: write to %v livelocked after %d attempts", key, attempt)
			}
			backoff := sim.Duration(attempt+1) * 10 * sim.Microsecond
			backoff += sim.Duration(e.k.Rand().Int63n(int64(50 * sim.Microsecond)))
			p.Sleep(backoff)
			continue
		}
		if stolen, err := e.installModified(p, key, epoch, data, priority, replFactor); !stolen {
			return err
		}
	}
}

// installModified makes a copy of data key's Modified, dirty block on this
// blade, under the exclusive grant requested at epoch, then replicates it
// and runs the write-through hook: the one place a client write enters the
// cache. stolen reports that nothing was installed because making room
// blocked on a writeback and ownership moved on meanwhile (installing then
// would create a second owner); the caller takes a fresh grant. The copy
// goes into the buffer of the Shared copy it replaces, if the cache owns
// that, or into one from the free list; either way the buffer is the
// cache's no longer: the replicas keep it, and the bumped Version keeps
// recycle off it.
func (e *Engine) installModified(p *sim.Proc, key cache.Key, epoch uint64, data []byte, priority, replFactor int) (stolen bool, err error) {
	entry, ok := e.cache.Peek(key)
	if !ok {
		if err := e.makeRoom(p, nil); err != nil {
			// No room and the backing store refuses writebacks: fail the
			// write rather than pile dirty data past capacity on a store
			// that cannot drain it.
			return false, fmt.Errorf("coherence: write to %v: %w", key, err)
		}
		if e.invEpoch[key] != epoch {
			e.stats.WriteRetries++
			return true, nil
		}
	}
	var stored []byte
	if ok && owned(entry) {
		stored = entry.Data
	} else {
		stored = e.buffer()
	}
	copy(stored, data)
	if ok {
		entry.Data = stored
		entry.State = cache.Modified
		e.cache.SetDirty(entry, true)
	} else {
		entry = e.cache.Put(key, stored, cache.Modified, true, priority)
	}
	entry.Version++
	if e.replicate != nil {
		if err := e.replicate(p, key, stored, entry.Version, replFactor); err != nil {
			return false, fmt.Errorf("coherence: replication: %w", err)
		}
	}
	if e.onWriteThrough != nil {
		e.onWriteThrough(p, []cache.Key{key})
	}
	return false, nil
}

// maxWritebackFailures bounds how many failed destages one makeRoom call
// tolerates before giving up: Victim() reselects the same dirty entry when
// the backing store errors persistently, and an unbounded loop would spin
// a process forever on a store that cannot drain.
const maxWritebackFailures = 4

// makeRoom evicts until one insertion fits, writing dirty victims back.
// It returns a non-nil error only when room could not be made because the
// backing store kept refusing writebacks; the caller decides whether the
// operation can proceed uncached or must fail. Directory notices join notes
// for the caller to send, or, with notes nil, go at once.
func (e *Engine) makeRoom(p *sim.Proc, notes *[]evictNote) error {
	failures := 0
	for e.cache.NeedsRoom(1) {
		v := e.cache.Victim()
		if v == nil {
			return nil
		}
		if v.Dirty {
			clean, err := e.writebackOne(p, v)
			if err != nil {
				failures++
				if failures >= maxWritebackFailures {
					return fmt.Errorf("coherence: makeRoom: writeback of %v failed %d times: %w", v.Key, failures, err)
				}
				continue // bounded retry (Victim reselects the same entry)
			}
			if !clean {
				continue // updated mid-writeback: reselect
			}
		}
		// The notice carries the epoch the copy lived under (pre-bump):
		// the home matches it against the registration epoch so a notice
		// that arrives after this blade re-registers cannot deregister
		// the fresh copy.
		note := evictNote{Key: v.Key, From: e.self, WasOwner: v.State == cache.Modified, Epoch: e.invEpoch[v.Key]}
		e.cache.Evict(v)
		e.recycle(v)
		// An eviction invalidates this blade's copy, so it must also age the
		// local install epoch: a sibling proc between a directory grant and
		// its install (the evict-note may already have reset the home) would
		// otherwise resurrect the key here while the directory forgets it —
		// a dirty copy under an Invalid entry once the note lands.
		e.invEpoch[v.Key]++
		if notes != nil {
			*notes = append(*notes, note)
		} else {
			e.notify(p, []evictNote{note})
		}
	}
	return nil
}

// notify casts notes, fire and forget (staleness is tolerated), as one
// coh.evict per home, grouped in place: the casts share notes' array.
func (e *Engine) notify(p *sim.Proc, notes []evictNote) {
	for len(notes) > 0 {
		home, err := e.home(notes[0].Key)
		n := 1
		for i := 1; i < len(notes); i++ {
			if h, _ := e.home(notes[i].Key); h == home {
				notes[n], notes[i] = notes[i], notes[n]
				n++
			}
		}
		if err == nil {
			e.conn.Cast(p, e.peers[home], "coh.evict", notes[:n:n], ctrlSize)
		}
		notes = notes[n:]
	}
}

// noteRun feeds the per-volume sequential detector with the blocks [first,
// last] of an op that is about to start and, once the stream has run
// sequentially for three blocks, prefetches the ReadAhead blocks that follow
// as one run of their own (§4: "storage prefetch operations") — issued
// before the op's own misses, so the disks work on both at once. Blocks
// already cached or on their way at the head of that window are skipped,
// and the run stops at the next such block.
func (e *Engine) noteRun(vol string, first, last int64, priority int) {
	if e.readAhead <= 0 {
		return
	}
	if first == e.lastSeq[vol]+1 {
		e.seqStreak[vol] += int(last - first + 1)
	} else {
		e.seqStreak[vol] = int(last - first)
	}
	e.lastSeq[vol] = last
	if e.seqStreak[vol] < 2 {
		return
	}
	wanted := func(lba int64) bool {
		k := cache.Key{Vol: vol, LBA: lba}
		_, cached := e.cache.Peek(k)
		return !cached && !e.prefetching[k]
	}
	from, end := last+1, last+1+int64(e.readAhead)
	for from < end && !wanted(from) {
		from++
	}
	to := from
	for to < end && wanted(to) {
		e.prefetching[cache.Key{Vol: vol, LBA: to}] = true
		to++
	}
	if from == to {
		return
	}
	e.k.Go("readahead", func(q *sim.Proc) {
		if !e.down {
			e.stats.Prefetches += to - from
			e.readRun(q, vol, from, priority, make([]byte, int(to-from)*e.blockSize))
		}
		for lba := from; lba < to; lba++ {
			delete(e.prefetching, cache.Key{Vol: vol, LBA: lba})
		}
	})
}
