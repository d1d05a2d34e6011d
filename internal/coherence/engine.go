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
	// consecutive blocks that starts at key. The store keeps no reference
	// to data once it returns: the engine reuses the buffer.
	WriteBlocks(p *sim.Proc, key cache.Key, data []byte) error
}

// ErrNoQuorum is returned when no live blade can home a block.
var ErrNoQuorum = errors.New("coherence: no live blades")

// ErrDegraded marks an operation abandoned because fabric retries were
// exhausted: the blade is up but could not complete the protocol exchange
// in time. Callers fail the one operation instead of wedging the process;
// the next operation retries from scratch.
var ErrDegraded = errors.New("coherence: degraded: fabric retries exhausted")

// HandlerDelay is the CPU time a blade charges per coherence message
// handled, and per key of a vector message.
const HandlerDelay = 5 * sim.Microsecond

// BladeConfig is a blade's engine settings. controller.Config embeds it and
// hands every engine the value its WithDefaults returns.
type BladeConfig struct {
	// OpDelay is the CPU cost charged per client block operation.
	OpDelay sim.Duration
	// CPUSlots bounds a blade's concurrently executing operations
	// (0 = 4).
	CPUSlots int
	// NoPeerFetch disables cache-to-cache transfers on read misses
	// (ablation: every shared miss then reads the backing store).
	NoPeerFetch bool
	// ReadAhead, when positive, prefetches this many following blocks
	// after a detected sequential read run (§4).
	ReadAhead int
	// Retry tunes the bounded retry loop a blade wraps around every
	// protocol call (GetS/GetX/Inv/Downgrade/Fetch) and replica push.
	// Zero fields select simnet.RetryPolicy.WithDefaults.
	Retry simnet.RetryPolicy
}

// WithDefaults fills in the zero fields that have a default: the CPU slots
// and the retry policy.
func (b BladeConfig) WithDefaults() BladeConfig {
	if b.CPUSlots <= 0 {
		b.CPUSlots = 4
	}
	b.Retry = b.Retry.WithDefaults()
	return b
}

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
	// BladeConfig is the blade's settings, already defaulted: New takes
	// them as given.
	BladeConfig
	// ReplicateDirty, if non-nil, runs after a write installs dirty data
	// and before the write is acknowledged (N-way replication hook, §6.1).
	// factor is the per-write replication factor (0 = manager default),
	// settable per file via the PFS policy metadata (§4).
	ReplicateDirty func(p *sim.Proc, key cache.Key, data []byte, version uint64, factor int) error
	// OnClean, if non-nil, runs when a dirty block reaches the backing
	// store (replicas may be released).
	OnClean func(p *sim.Proc, key cache.Key, version uint64)
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

// keyState is what an engine keeps about a key in use (see prune): the
// install epoch of this blade's copy, the ops that hold it between lookup
// and install, and at the key's home the directory entry.
type keyState struct {
	epoch uint64
	holds int32
	owner int16 // packed with holds and state: a record is 128 bytes
	state dirState
	// sharers holds, per registered sharer, the install epoch its copy
	// lives under (the requester's epoch, carried in the GetS/GetX);
	// ownerEpoch is the same for the Modified owner. Asynchronous evict
	// notices carry the epoch the evicted copy lived under, and only a
	// notice whose epoch is current may deregister: a blade can evict,
	// re-request, and re-install while its notice is still in flight
	// (notably via the ex-home relay path after a migration), and an
	// unconditional removal would strand the fresh copy outside the
	// sharer set — unreachable by invalidations, serving stale data.
	sharers    sharerSet
	ownerEpoch uint64
	mu         sim.Mutex
	// first is the sharers' array until more blades register than it holds.
	first [2]sharer
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
	cpu       *sim.Semaphore
	cpuq      *qos.FairQueue
	retry     simnet.RetryPolicy

	alive []int // sorted live blade IDs; must agree across blades

	// ids numbers the keys of the per-block maps below (keys,
	// homeOverride, forward, prefetching); an ID never leaves the engine.
	// A key with no record in keys has epochBase for its epoch.
	ids       cache.Index
	keys      map[uint64]*keyState
	spareKeys sim.Spare[*keyState]
	epochBase uint64

	// homeOverride maps migrated keys to their current home, consulted
	// before the rendezvous hash. forward marks keys this blade used to
	// home: requests that still arrive here bounce back with the new
	// address, so a blade that missed the sethome broadcast converges
	// instead of misrouting. heat feeds the rebalancer; it is nil, and
	// nothing is counted, until a balancer calls TrackHeat.
	homeOverride map[uint64]int
	forward      map[uint64]int
	heat         *HeatTracker

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
	// and recycle), never more than the cache has empty slots: a blade holds
	// no more block memory than a full cache. A frozen buffer is never on it.
	free sim.Spare[[]byte]
	// runs holds the states finished reads left (see runRead).
	runs       sim.Spare[*runRead]
	homes      []int             // notify's scratch
	fans       sim.Spare[*fan]   // fan-out states, given back (see fan)
	staging    sim.Spare[[]byte] // FlushOnce's buffer for joining runs, empty while one holds it
	stagingUse sim.Peak          // how much of it to keep (see FlushOnce)
	joins      sim.Spare[[]byte] // surrender's buffers for joining runs, apart from FlushOnce's (DESIGN §19)

	stats Stats
	// down mirrors the cluster's view of this blade; a down engine
	// rejects client operations.
	down        bool
	noPeerFetch bool

	readAhead   int
	lastSeq     map[string]int64
	seqStreak   map[string]int
	prefetching map[uint64]bool
}

// Message and reply payloads. Wire sizes: control ~64 B, data adds the block.
const ctrlSize = 64

// dirReq is a request to a key's home: coh.gets (read-share), coh.getx
// (exclusive ownership) or coh.getv (a value read outside the coherence
// domain, see handleGetV); a coh.gets carries a getsVec of them. Epoch is
// the requester's local install epoch for the key; gets and getx record it
// with the registration so late evict notices (which carry the epoch the
// evicted copy lived under) can be told apart from a re-registration that
// happened after the eviction.
type dirReq struct {
	Key   cache.Key
	Epoch uint64
}

// getsVec is a coh.gets: its requests to one home, each beside room for its
// answer, sent by pointer. Its first delivery answers in place (handleGetS).
type getsVec struct {
	items []getsItem
	taken bool // a delivery answers in items
}

// getsItem is one request of a coh.gets and its answer.
type getsItem struct {
	req  dirReq
	resp dirResp
}

// getsOne is a coh.gets of one key in one object.
type getsOne struct {
	getsVec
	item [1]getsItem
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
	NewHome  int32 // with the flags beside it: a getsItem is 64 bytes
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

// evictVec is a coh.evict: notices to one home, sent by pointer.
type evictVec struct{ notes []evictNote }

// evictOne is a coh.evict of one notice in one object.
type evictOne struct {
	evictVec
	note [1]evictNote
}

type evictNote struct {
	Key      cache.Key
	From     int
	WasOwner bool
	// Epoch is the install epoch the evicted copy lived under (the value
	// of the evictor's epoch before the eviction bumped it). The home
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

// New builds an engine and registers its protocol handlers on cfg.Conn.
func New(k *sim.Kernel, cfg Config) *Engine {
	if cfg.BlockSize <= 0 {
		panic("coherence: BlockSize required")
	}
	if cfg.CPUSlots <= 0 {
		panic("coherence: CPUSlots required (BladeConfig.WithDefaults)")
	}
	e := &Engine{
		k:            k,
		conn:         cfg.Conn,
		peers:        cfg.Peers,
		self:         cfg.Self,
		cache:        cfg.Cache,
		backing:      cfg.Backing,
		blockSize:    cfg.BlockSize,
		opDelay:      cfg.OpDelay,
		cpu:          sim.NewSemaphore(k, cfg.CPUSlots),
		cpuq:         cfg.CPUQueue,
		retry:        cfg.Retry,
		label:        fmt.Sprintf("blade%d", cfg.Self),
		keys:         make(map[uint64]*keyState),
		homeOverride: make(map[uint64]int),
		forward:      make(map[uint64]int),
		replicate:    cfg.ReplicateDirty,
		onClean:      cfg.OnClean,
		unpinned:     make(map[*cache.Entry]*sim.Future[struct{}]),
		noPeerFetch:  cfg.NoPeerFetch,
		readAhead:    cfg.ReadAhead,
		lastSeq:      make(map[string]int64),
		seqStreak:    make(map[string]int),
		prefetching:  make(map[uint64]bool),
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
// installed, the rendezvous hash over the live membership otherwise.
func (e *Engine) home(key cache.Key) (int, error) {
	if len(e.alive) == 0 {
		return -1, ErrNoQuorum
	}
	if hid, ok := e.homeOverride[e.ids.ID(key)]; ok {
		return hid, nil
	}
	return e.alive[key.Hash()%uint64(len(e.alive))], nil
}

// setHome learns that blade h homes key. The hash's own choice needs no
// override, so the overrides are the keys homed away from their hash.
func (e *Engine) setHome(key cache.Key, h int) {
	id := e.ids.ID(key)
	delete(e.homeOverride, id)
	if hash, _ := e.home(key); hash != h {
		e.homeOverride[id] = h
	}
}

// Home exposes this blade's view of key's home blade — used by affinity
// routing (hosts with static paths to their data's controller) and by the
// rebalancer to validate migration candidates.
func (e *Engine) Home(key cache.Key) (int, error) { return e.home(key) }

// TrackHeat switches on the per-key demand counters of the keys this blade
// homes. The home-migration balancer, the one reader of HottestHomes, calls
// it for the engines it is given; an engine nobody balances counts nothing.
func (e *Engine) TrackHeat() {
	if e.heat == nil {
		e.heat = NewHeatTracker(e.k, HeatHalfLife)
	}
}

// HottestHomes returns up to n of the hottest keys currently homed on this
// blade, ordered by decayed demand (deterministic tie-break); none until
// TrackHeat.
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

// OpDelay is the CPU time the blade charges per block operation.
func (e *Engine) OpDelay() sim.Duration { return e.opDelay }

// busy charges CPU for one operation of duration d. With a QoS queue
// installed the caller competes in its lane; otherwise it waits its turn
// at the plain FIFO semaphore. A disabled queue grants in the same FIFO
// order but, with several slots, not at the same event positions (see
// qos.FairQueue).
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
	coh.Int("records", func() int64 { return int64(len(e.keys)) })
	s.Int("cpu_free", func() int64 { return int64(e.cpu.Available()) })
}

// record returns key's record, making one at the epoch base, from the spare
// list if it can, if the key has none.
func (e *Engine) record(key cache.Key) *keyState {
	id := e.ids.ID(key)
	ks, ok := e.keys[id]
	if ok {
		return ks
	}
	if ks, ok = e.spareKeys.Get(); !ok {
		ks = &keyState{mu: *sim.NewMutex(e.k)}
		ks.sharers = ks.first[:0]
	}
	ks.epoch = e.epochBase
	e.keys[id] = ks
	return ks
}

// bump ages key's install epoch and returns the one it had.
func (e *Engine) bump(key cache.Key) (was uint64) {
	epoch := &e.epochBase // a key with no record has the base for its epoch
	if ks, ok := e.keys[e.ids.ID(key)]; ok {
		epoch = &ks.epoch
	}
	*epoch++
	return *epoch - 1
}

// prune puts key's record on the spare list if nothing needs it: its
// directory entry is Invalid, its mutex idle and nobody holds it. The base
// rises above its epoch, so the key's epochs only grow (DESIGN §17).
func (e *Engine) prune(key cache.Key) {
	id := e.ids.ID(key)
	if ks, ok := e.keys[id]; ok {
		e.pruneAt(id, ks)
	}
}

// pruneAt is prune of ks, the record under id.
func (e *Engine) pruneAt(id uint64, ks *keyState) {
	if ks.holds > 0 || ks.state != dirInvalid || !ks.mu.Idle() {
		return
	}
	e.epochBase = max(e.epochBase, ks.epoch+1)
	delete(e.keys, id)
	ks.owner, ks.ownerEpoch = 0, 0
	ks.sharers.reset()
	e.spareKeys.Put(ks)
}

// release ends a hold: an op's, between the lookup that read key's epoch and
// the end of the install that epoch guards, which keeps the record.
func (e *Engine) release(key cache.Key) {
	id := e.ids.ID(key)
	ks := e.keys[id]
	ks.holds--
	e.pruneAt(id, ks)
}

// unlock releases ks's directory mutex and prunes key's record, which a
// Recover may have replaced, if the entry it left is Invalid.
func (e *Engine) unlock(key cache.Key, ks *keyState) {
	ks.mu.Unlock()
	if ks.state == dirInvalid {
		e.prune(key)
	}
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
// cache when possible and running the coherence protocol otherwise: the run
// of one.
func (e *Engine) ReadBlock(p *sim.Proc, key cache.Key, priority int) ([]byte, error) {
	dst := make([]byte, e.blockSize)
	if err := e.ReadRun(p, key.Vol, key.LBA, priority, dst); err != nil {
		return nil, err
	}
	return dst, nil
}

// ReadRun reads the run of consecutive blocks of vol that starts at lba
// into dst, a whole number of blocks: a client op. Phase 1 gives every
// block a step process of its own; phase 2 reads what the backing store must
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
	// The op's state is one a finished op left (see runRead), or a new one.
	op, ok := e.runs.Get()
	if !ok {
		op = &runRead{e: e, procs: *sim.NewGroup(e.k), ready: *sim.NewFuture[struct{}](e.k), answered: *sim.NewGroup(e.k)}
	}
	count := len(dst) / e.blockSize
	op.vol, op.lba, op.priority, op.dst, op.left = vol, lba, priority, dst, count
	for len(op.steps) < count {
		b := &blockStep{op: op, i: len(op.steps)}
		b.step, b.rest = b.run, b.finish
		op.steps = append(op.steps, b)
	}
	for _, b := range op.steps[:count] {
		b.at = atStart
		op.procs.Add(1)
		e.k.Step("read", b.step)
	}
	op.procs.Wait(p)
	err := op.err
	if err == nil {
		err = e.fillGathered(p, op.blocks, vol, lba, priority, dst)
	}
	for _, r := range op.pend {
		e.release(r.req.Key)
	}
	op.ready.Reset()
	clear(op.blocks)
	clear(op.pend)
	clear(op.vecs)
	*op = runRead{e: e, procs: op.procs, ready: op.ready, answered: op.answered,
		blocks: op.blocks[:0], pend: op.pend[:0], vecs: op.vecs, steps: op.steps}
	e.runs.Put(op)
	return err
}

// blockStep is phase 1 of block i of an op, run as a step process (DESIGN
// §15): the CPU charge, the local hit and the wait for the home's answer
// take no coroutine. A block continues on one (finish) from the point where
// it must block on more than that: to send its home's coh.gets vector, to
// follow a redirect or to install a peer's copy; on the QoS lane's CPU
// queue, from its first step. The op keeps its blocks' records, bound
// methods and all.
type blockStep struct {
	op    *runRead
	i     int
	at    blockAt
	epoch uint64 // a miss's install epoch
	home  int    // a miss's home, or -1
	pos   int    // a miss's place in its home's vector
	qs    *tr.Active
	step  func(q *sim.Proc) // run, bound once
	rest  func(q *sim.Proc) // finish, bound once
}

// blockAt is where a block's next step starts.
type blockAt uint8

const (
	atStart   blockAt = iota
	atCPU             // queued for a CPU slot, its cpu-queue span open in qs
	atCharged         // the CPU charge's sleep is over
	atAnswer          // waiting for the op's directory answers
)

func (b *blockStep) key() cache.Key { return cache.Key{Vol: b.op.vol, LBA: b.op.lba + int64(b.i)} }

func (b *blockStep) dst() []byte {
	bs := b.op.e.blockSize
	return b.op.dst[b.i*bs : (b.i+1)*bs]
}

// run is the block's step: busy's FIFO charge, then local and, on a miss,
// the wait for its answer, each wait where a coroutine would block.
func (b *blockStep) run(q *sim.Proc) {
	op, e := b.op, b.op.e
	switch b.at {
	case atStart:
		if e.down {
			b.local(q, fmt.Errorf("coherence: blade %d down", e.self))
			return
		}
		e.stats.Reads++
		if e.cpuq != nil {
			q.Continue(b.rest)
			return
		}
		b.qs, b.at = tr.FromProc(q).Child("cpu-queue", tr.Queue, e.label), atCPU
		fallthrough
	case atCPU:
		if !e.cpu.AcquireStep(q, 1) {
			return
		}
		b.qs.End()
		b.qs, b.at = nil, atCharged
		q.SleepStep(e.opDelay)
	case atCharged:
		e.cpu.Release(1)
		if !b.local(q, nil) {
			return
		}
		if b.pos == 0 { // the vector's sender
			q.Continue(b.rest)
			return
		}
		b.at = atAnswer
		fallthrough
	case atAnswer:
		if !op.answered.WaitStep(q) {
			return
		}
		resp, err := op.reply(b.home, b.pos)
		if err == nil && (resp.Redirect || resp.Data != nil && !resp.NoCache) {
			q.Continue(b.rest) // its answer is in: finish takes it at once
			return
		}
		b.settle(q, resp, err)
	}
}

// finish is the rest of the block on a coroutine: from the CPU charge on the
// QoS lane, else from its home's answer.
func (b *blockStep) finish(q *sim.Proc) {
	op, e, key := b.op, b.op.e, b.key()
	if b.at == atStart {
		e.busy(q, e.opDelay)
		if !b.local(q, nil) {
			return
		}
	}
	resp, err := op.answer(q, e, b.home, b.pos)
	if err == nil && resp.Redirect { // this key alone moved: follow it
		e.stats.RedirectsFollowed++
		e.setHome(key, int(resp.NewHome))
		resp, err = e.ask(q, "coh.gets", key, b.epoch)
	}
	b.settle(q, resp, err)
}

// local is phase 1's local half once the CPU is charged (or err refused the
// block): a hit into the op's buffer, or on a miss a request in its home's
// vector under the key's epoch. It reports that the block waits for an
// answer; if not, the block is over.
func (b *blockStep) local(q *sim.Proc, err error) bool {
	op, e, key := b.op, b.op.e, b.key()
	b.home = -1
	if err == nil && !e.hit(q, key, b.dst()) {
		ks := e.record(key)
		ks.holds++ // until the op ends: see release
		b.epoch = ks.epoch
		if b.home, b.pos, err = op.request(e, key, b.epoch); err != nil {
			e.release(key)
		}
	}
	op.fail(err)
	if op.left--; op.left == 0 && len(op.pend) > 0 {
		op.carve()
		op.ready.Set(struct{}{}) // phase 1 is over: the vectors may go
	}
	if b.home < 0 {
		op.procs.Done()
		return false
	}
	return true
}

// settle ends the block with its home's answer: served into the op's
// buffer, or joined to its gather.
func (b *blockStep) settle(q *sim.Proc, resp dirResp, err error) {
	op := b.op
	if op.fail(err); err == nil && op.e.settle(q, b.key(), b.epoch, resp, op.priority, b.dst()) {
		op.gather(b.i, len(op.dst)/op.e.blockSize, b.epoch)
	}
	op.procs.Done()
}

// gathered is one block's slot in an op's gather: whether the backing store
// must supply the block, and the install epoch its directory answer was
// requested under.
type gathered struct {
	fill  bool
	epoch uint64
}

// runRead is the state the blocks of one ReadRun share: the op, and what its
// blocks find. The engine keeps the states of finished ops for the next
// (Engine.runs): every block of an op has ended before the op does.
type runRead struct {
	e        *Engine
	vol      string
	lba      int64
	priority int
	dst      []byte
	steps    []*blockStep // the blocks' records, kept from op to op
	procs    sim.Group    // the op's blocks
	err      error        // the first block to fail fails the op
	blocks   []gathered   // empty until a block joins the gather
	left     int          // blocks still in phase 1; ready is set when it reaches 0
	// The op's coh.gets: its misses in the order asked, and a vector per
	// home. ready is set when phase 1 is over, and answered counts the
	// vectors still out (not processes, and every block waits on it: not a
	// sim.Fork). All are kept from op to op, arrays and all.
	pend     []pending
	vecs     []vector
	ready    sim.Future[struct{}]
	answered sim.Group
}

type pending struct {
	home int
	req  dirReq
}

// vector is an op's coh.gets to one home: how many requests, the vector as
// sent, and the reply, whose items hold the answers in order.
type vector struct {
	n    int
	sent *getsVec
	got  *getsVec
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
	}
	v := &op.vecs[home]
	if v.n == 0 {
		op.answered.Add(1)
	}
	op.pend = append(op.pend, pending{home: home, req: dirReq{Key: key, Epoch: epoch}})
	v.n++
	return home, v.n - 1, nil
}

// carve ends phase 1: it copies the op's requests into one new array, with
// room for their answers, each home's together in the order asked, and gives
// every vector its slice.
func (op *runRead) carve() {
	items := make([]getsItem, len(op.pend))
	sent := make([]getsVec, 0, op.answered.Pending()) // one per home: none is answered yet
	at := 0
	for h := range op.vecs {
		if v := &op.vecs[h]; v.n > 0 {
			sent = append(sent, getsVec{items: items[at : at : at+v.n]})
			v.sent, at = &sent[len(sent)-1], at+v.n
		}
	}
	for _, r := range op.pend {
		g := op.vecs[r.home].sent
		g.items = append(g.items, getsItem{req: r.req})
	}
}

// answer returns home's answer to request pos of its vector, or the op's
// error. A vector's first request sends it once phase 1 is over, with all the
// op's misses at that home in it; the misses go on when all are answered.
func (op *runRead) answer(q *sim.Proc, e *Engine, home, pos int) (dirResp, error) {
	v := &op.vecs[home]
	if pos == 0 {
		op.ready.Wait(q)
		if op.err == nil {
			raw, err := e.call(q, home, "coh.gets", v.sent, ctrlSize)
			if v.got, _ = raw.(*getsVec); err != nil {
				op.fail(fmt.Errorf("coherence: coh.gets to blade %d: %w", home, err))
			}
		}
		op.answered.Done()
	}
	op.answered.Wait(q)
	return op.reply(home, pos)
}

// reply is answer once every vector is answered.
func (op *runRead) reply(home, pos int) (dirResp, error) {
	if got := op.vecs[home].got; got != nil {
		return got.items[pos].resp, nil
	}
	return dirResp{}, op.err // the op failed
}

// gather records that block i of the op's count must come from the backing
// store, in an array kept from op to op.
func (op *runRead) gather(i, count int, epoch uint64) {
	if len(op.blocks) == 0 {
		op.blocks = slices.Grow(op.blocks, count)[:count]
	}
	op.blocks[i] = gathered{fill: true, epoch: epoch}
}

// hit serves key from the local cache into dst if the blade holds it.
func (e *Engine) hit(p *sim.Proc, key cache.Key, dst []byte) bool {
	ent, ok := e.cache.Get(key)
	if !ok || ent.State == cache.Invalid {
		return false
	}
	e.stats.LocalHits++
	// Local hits at the home never reach the directory handler, so the
	// demand they represent is counted here — otherwise affinity-routed
	// hot reads would look cold to the rebalancer.
	if e.heat != nil {
		if h, err := e.home(key); err == nil && h == e.self {
			e.heat.Touch(key)
		}
	}
	if ctx := tr.FromProc(p); ctx.Valid() {
		// Instant span (Start == End): marks the block as served from
		// the local cache so breakdowns can count hit vs miss paths.
		ctx.Child("hit", tr.CacheHit, e.label).End()
	}
	copy(dst, ent.Data)
	return true
}

// settle serves the home's answer into dst, installing a peer's data here:
// the reply's own buffer, frozen, since it crossed the fabric. fill reports
// that there was no data: this blade is a sharer under epoch, the backing
// store is current, and the block is the caller's to read.
func (e *Engine) settle(p *sim.Proc, key cache.Key, epoch uint64, resp dirResp, priority int, dst []byte) (fill bool) {
	if resp.Data == nil {
		e.stats.DiskReads++
		return true
	}
	e.stats.PeerFetches++
	if !resp.NoCache { // a dirty owner forwarded it: serve, do not install
		e.install(p, key, epoch, resp.Data, true, priority, nil)
	}
	copy(dst, resp.Data)
	return false
}

// ask sends key's directory request (method is coh.gets, coh.getx or
// coh.getv; a coh.gets vector of one per home asked) to the key's home and
// returns the home's answer. A home that migrated while the request was in
// flight answers with a Redirect: ask learns the new address and retries
// there. Chained redirects are bounded by the blade count plus in-flight
// migrations.
func (e *Engine) ask(p *sim.Proc, method string, key cache.Key, epoch uint64) (dirResp, error) {
	homeID, err := e.home(key)
	if err != nil {
		return dirResp{}, err
	}
	req := dirReq{Key: key, Epoch: epoch}
	var args any = req
	for hops := 0; ; hops++ {
		if method == "coh.gets" {
			one := &getsOne{item: [1]getsItem{{req: req}}}
			one.items = one.item[:]
			args = &one.getsVec
		}
		raw, err := e.call(p, homeID, method, args, ctrlSize)
		if err != nil {
			return dirResp{}, fmt.Errorf("coherence: %s to blade %d: %w", method, homeID, err)
		}
		resp, ok := raw.(dirResp)
		if !ok {
			resp = raw.(*getsVec).items[0].resp
		}
		if !resp.Redirect {
			return resp, nil
		}
		e.stats.RedirectsFollowed++
		homeID = int(resp.NewHome)
		e.setHome(key, homeID)
		if hops > len(e.peers)+8 {
			return dirResp{}, fmt.Errorf("coherence: %s for %v: redirect loop", method, key)
		}
	}
}

// install caches src as key's Shared copy — unless the copy it would be is
// no longer this blade's to hold. A lent src, a peer's reply, is installed
// itself and frozen; any other is copied into a buffer from the free list.
// The entry must have seen no invalidation since the directory answered
// (epoch), before and after makeRoom, which may block on a writeback. It
// must also still be absent: a writer proc on this same blade may have
// installed a Modified copy while the data was being fetched (GetX does not
// invalidate the requester's own blade, so the epoch alone cannot see it),
// and overwriting that dirty block with older data would lose an
// acknowledged write. A failed makeRoom (backing store refusing writebacks)
// degrades to serving the read uncached rather than failing it.
func (e *Engine) install(p *sim.Proc, key cache.Key, epoch uint64, src []byte, lent bool, priority int, notes *[]evictNote) {
	if e.record(key).epoch != epoch || e.makeRoom(p, notes) != nil {
		return
	}
	if _, present := e.cache.Peek(key); present || e.record(key).epoch != epoch {
		return
	}
	if !lent {
		buf := e.buffer()
		copy(buf, src)
		e.cache.Put(key, buf, cache.Shared, false, priority)
		return
	}
	e.cache.Put(key, src, cache.Shared, false, priority).Lent = true
	// The entry took an empty slot and no free buffer: keep the list's bound.
	e.free.Trim(e.cache.Capacity() - e.cache.Len())
}

// buffer returns a block buffer for a new cache entry: the one a clean
// entry left most recently (see recycle), or a new one.
func (e *Engine) buffer() []byte {
	if buf, ok := e.free.Get(); ok {
		return buf
	}
	return make([]byte, e.blockSize)
}

// owned reports that nobody but the cache holds ent's record (DESIGN §22):
// ent is clean and unpinned, and its Version is 0, so install put it in and
// nobody rewrote it.
func owned(ent *cache.Entry) bool { return !ent.Dirty && !ent.Pinned && ent.Version == 0 }

// frozen reports that ent's buffer may be held beyond this cache, so nobody
// writes it and it never goes on the free list (DESIGN §15): a write made it
// (Version > 0: the replicas keep it) or it crossed the fabric (Lent).
func frozen(ent *cache.Entry) bool { return ent.Version > 0 || ent.Lent }

// lend returns ent's bytes for a reader that may keep them: ent's own buffer
// if it is frozen, now marked lent, or else a copy, since the cache reuses
// that buffer. Either way the caller may yield before it reads them.
func lend(ent *cache.Entry) []byte {
	if !frozen(ent) {
		return append([]byte(nil), ent.Data...)
	}
	ent.Lent = true
	return ent.Data
}

// recycle takes back the record of ent, which has just left the cache, and
// its buffer unless frozen, if the cache owned them; the caller has read all
// it needs of ent. Its Data becomes nil, so a stale *cache.Entry fails loudly
// instead of reading another block's bytes.
func (e *Engine) recycle(ent *cache.Entry) {
	if !owned(ent) {
		return
	}
	if !frozen(ent) && e.free.Len() < e.cache.Capacity()-e.cache.Len() {
		e.free.Put(ent.Data)
	}
	ent.Data = nil
	e.cache.Release(ent)
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
		e.install(p, k, g.epoch, dst[i*bs:(i+1)*bs], false, priority, &notes)
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
		return lend(ent), nil
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
// process of its own (writeBlockR). A block's Modified copy is installed by
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
	f := e.fan()
	f.key, f.data, f.priority, f.factor = cache.Key{Vol: vol, LBA: lba}, data, priority, replFactor
	err := sim.Fork(p, "write", len(data)/bs, f.write)
	e.putFan(f)
	return err
}

// fan is one call's fan-out and its items, bound once, kept on Engine.fans
// (DESIGN §22): a WriteRun's blocks, a grant's invalidations of the sharers
// in list, or the probes of the items in list of a coh.gets vector.
type fan struct {
	e                *Engine
	key              cache.Key // a run's first block, or the granted key
	data             []byte
	priority, factor int
	v                *getsVec
	requester        int
	list             []int
	next             int // the next probe to start
	done             sim.Group
	write, inv       func(q *sim.Proc, i int) error
	probe            func(q *sim.Proc)
}

func (e *Engine) fan() *fan {
	if f, ok := e.fans.Get(); ok {
		return f
	}
	f := &fan{e: e, done: *sim.NewGroup(e.k)}
	f.write, f.inv, f.probe = f.writeBlock, f.invalidate, f.getS
	return f
}

// putFan puts f back, once its fan-out has returned.
func (e *Engine) putFan(f *fan) {
	*f = fan{e: e, list: f.list[:0], done: f.done, write: f.write, inv: f.inv, probe: f.probe}
	e.fans.Put(f)
}

func (f *fan) writeBlock(q *sim.Proc, i int) error {
	bs := f.e.blockSize
	key := cache.Key{Vol: f.key.Vol, LBA: f.key.LBA + int64(i)}
	return f.e.writeBlockR(q, key, f.data[i*bs:(i+1)*bs], f.priority, f.factor)
}

func (f *fan) invalidate(q *sim.Proc, i int) error {
	f.e.conn.CallRetry(q, f.e.peers[f.list[i]], "coh.inv", invReq{Key: f.key}, ctrlSize, f.e.retry)
	return nil
}

// getS is a probe process: the probes start in spawn order, so the one that
// starts i-th serves the vector's item list[i].
func (f *fan) getS(q *sim.Proc) {
	it := &f.v.items[f.list[f.next]]
	f.next++
	it.resp = f.e.getS(q, f.requester, it.req)
	f.done.Done()
}

// WriteBlock stores one full block on the caller's own process: the run of
// one, at the default replication factor.
func (e *Engine) WriteBlock(p *sim.Proc, key cache.Key, data []byte, priority int) error {
	return e.writeBlockR(p, key, data, priority, 0)
}

// writeBlockR is WriteBlock with an explicit replication factor: take the
// exclusive grant, install.
func (e *Engine) writeBlockR(p *sim.Proc, key cache.Key, data []byte, priority, replFactor int) error {
	if e.down {
		return fmt.Errorf("coherence: blade %d down", e.self)
	}
	if len(data) != e.blockSize {
		return fmt.Errorf("coherence: write of %d bytes, block size %d", len(data), e.blockSize)
	}
	e.stats.Writes++
	e.busy(p, e.opDelay)
	e.record(key).holds++
	defer e.release(key)
	for attempt := 0; ; attempt++ {
		// Every attempt asks afresh: a migration can land between retries,
		// and a Redirect answer teaches us the new address.
		epoch := e.record(key).epoch
		if _, err := e.ask(p, "coh.getx", key, epoch); err != nil {
			return err
		}
		if e.record(key).epoch != epoch {
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
// that, or into one from the free list; either way the bumped Version
// freezes the buffer: the replicas keep it.
func (e *Engine) installModified(p *sim.Proc, key cache.Key, epoch uint64, data []byte, priority, replFactor int) (stolen bool, err error) {
	entry, ok := e.cache.Peek(key)
	if !ok {
		if err := e.makeRoom(p, nil); err != nil {
			// No room and the backing store refuses writebacks: fail the
			// write rather than pile dirty data past capacity on a store
			// that cannot drain it.
			return false, fmt.Errorf("coherence: write to %v: %w", key, err)
		}
		if e.record(key).epoch != epoch {
			e.stats.WriteRetries++
			return true, nil
		}
	}
	var stored []byte
	if ok && owned(entry) && !frozen(entry) {
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
			e.pin(v)
			clean, err := e.writeback(p, []destage{{v, v.Version}}, nil)
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
		// that arrives after this blade re-registers cannot deregister the
		// fresh copy. An eviction invalidates this blade's copy, so it must
		// also age the local install epoch: a sibling proc between a
		// directory grant and its install (the evict-note may already have
		// reset the home) would otherwise resurrect the key here while the
		// directory forgets it — a dirty copy under an Invalid entry once
		// the note lands.
		note := evictNote{Key: v.Key, From: e.self, WasOwner: v.State == cache.Modified, Epoch: e.bump(v.Key)}
		e.cache.Evict(v)
		e.recycle(v) // last: the next install may take v's record
		if notes != nil {
			*notes = append(*notes, note)
		} else if h, err := e.home(note.Key); err == nil {
			one := &evictOne{note: [1]evictNote{note}}
			one.notes = one.note[:]
			e.conn.Cast(p, e.peers[h], "coh.evict", &one.evictVec, ctrlSize)
		}
	}
	return nil
}

// notify casts notes, fire and forget (staleness is tolerated), as one
// coh.evict per home, grouped in place: the casts share notes' array, and
// each note's home, found once into e.homes (notify does not yield), moves
// with it. Each cast is a pointer into one array of vectors, one per home.
func (e *Engine) notify(p *sim.Proc, notes []evictNote) {
	homes, distinct := e.homes[:0], 0
	for _, note := range notes {
		h, err := e.home(note.Key)
		if err != nil { // no live blade homes anything
			return
		}
		if !slices.Contains(homes, h) {
			distinct++
		}
		homes = append(homes, h)
	}
	e.homes = homes
	vecs := make([]evictVec, 0, distinct)
	for len(notes) > 0 {
		home, n := homes[0], 1
		for i := 1; i < len(notes); i++ {
			if homes[i] == home {
				notes[n], notes[i] = notes[i], notes[n]
				homes[n], homes[i] = homes[i], homes[n]
				n++
			}
		}
		vecs = append(vecs, evictVec{notes[:n:n]})
		e.conn.Cast(p, e.peers[home], "coh.evict", &vecs[len(vecs)-1], ctrlSize)
		notes, homes = notes[n:], homes[n:]
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
		return !cached && !e.prefetching[e.ids.ID(k)]
	}
	from, end := last+1, last+1+int64(e.readAhead)
	for from < end && !wanted(from) {
		from++
	}
	to := from
	for to < end && wanted(to) {
		e.prefetching[e.ids.ID(cache.Key{Vol: vol, LBA: to})] = true
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
			delete(e.prefetching, e.ids.ID(cache.Key{Vol: vol, LBA: lba}))
		}
	})
}
