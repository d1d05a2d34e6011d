package simnet

import (
	"sort"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// Frame coalescing amortizes the fabric's per-message cost: when batching
// is enabled, every payload a Conn sends (requests and replies alike) is
// queued per destination peer and flushed as one rpcFrame when either the
// coalescing window expires or the queue hits its message/byte bound.
// Replies piggyback on frames already pending toward the caller — the
// simulated analogue of acks riding reverse-direction traffic.
//
// Determinism: queue state lives on the Conn, flush timers are kernel
// events, and forced flushes (SetBatching off) walk peers in sorted order,
// so batched runs are exactly reproducible per seed. With batching off the
// send path is byte-for-byte the pre-batching one: Conn.send degrades to a
// direct Endpoint.Send with no queueing, no timers, and no extra state.

// BatchPolicy bounds frame coalescing. The zero value takes defaults.
type BatchPolicy struct {
	// Window is the longest a queued payload waits for companions before
	// its frame is flushed (virtual time). Default 10µs — two fabric hops.
	Window sim.Duration
	// MaxMsgs flushes the frame early once this many payloads queue.
	// Default 16.
	MaxMsgs int
	// MaxBytes flushes the frame early once the queued payload bytes reach
	// this bound. Default 64 KiB.
	MaxBytes int
}

func (p BatchPolicy) withDefaults() BatchPolicy {
	if p.Window <= 0 {
		p.Window = 10 * sim.Microsecond
	}
	if p.MaxMsgs <= 0 {
		p.MaxMsgs = 16
	}
	if p.MaxBytes <= 0 {
		p.MaxBytes = 64 << 10
	}
	return p
}

// BatchStats counts a connection's frame coalescing activity.
type BatchStats struct {
	Frames      int64 // fabric frames sent
	Messages    int64 // payloads carried inside frames
	Piggybacked int64 // replies that joined a frame already pending toward the caller
}

// frameOverhead is the wire cost of one frame header. Individual messages
// already include their own header in the caller-declared size; a frame
// pays one header for the whole group.
const frameOverhead = 32

type frameItem struct {
	env  envelope
	size int
}

// rpcFrame is the wire payload of one coalesced frame.
type rpcFrame struct {
	items []frameItem
}

// peerQueue accumulates payloads bound for one peer between flushes.
type peerQueue struct {
	items []frameItem
	bytes int
	since sim.Time // enqueue time of the oldest queued payload
	gen   uint64   // flush generation, invalidates stale window timers
}

// SetBatching enables or disables frame coalescing. Disabling flushes any
// queued frames immediately (sorted peer order) and restores the direct
// per-message path. pol is ignored when disabling.
func (c *Conn) SetBatching(on bool, pol BatchPolicy) {
	if !on {
		if c.batching {
			c.flushAll()
		}
		c.batching = false
		return
	}
	c.batching = true
	c.pol = pol.withDefaults()
	if c.outq == nil {
		c.outq = make(map[Addr]*peerQueue)
	}
	if c.occupancy == nil {
		c.occupancy = metrics.NewHistogram()
		c.batchDelay = metrics.NewHistogram()
	}
}

// send is the single egress point for every envelope the Conn emits. With
// batching off it is one message that carries env by value; with batching on
// env joins (or opens) the destination's pending frame.
func (c *Conn) send(dst Addr, env *envelope, size int) bool {
	if !c.batching {
		_, ok := c.ep.net.send(&Message{From: c.ep.addr, To: dst, Size: size, rpc: *env})
		return ok
	}
	return c.enqueue(dst, env, size)
}

func (c *Conn) enqueue(dst Addr, env *envelope, size int) bool {
	net := c.ep.Network()
	if !net.Reachable(c.Addr(), dst) {
		// Match the unbatched fast-fail so callers still get
		// ErrUnreachable instead of a timeout. A peer that goes down
		// between enqueue and flush loses the frame in flight, exactly as
		// a wire message would be lost.
		net.Dropped++
		return false
	}
	q := c.outq[dst]
	if q == nil {
		q = &peerQueue{}
		c.outq[dst] = q
	}
	if len(q.items) == 0 {
		q.since = net.Kernel().Now()
		gen := q.gen
		net.Kernel().After(c.pol.Window, func() {
			if q.gen == gen && len(q.items) > 0 {
				c.flush(dst, q)
			}
		})
	} else if env.reply {
		// The reply joins a frame already headed for the caller.
		c.bstats.Piggybacked++
	}
	q.items = append(q.items, frameItem{env: *env, size: size})
	q.bytes += size
	if len(q.items) >= c.pol.MaxMsgs || q.bytes >= c.pol.MaxBytes {
		c.flush(dst, q)
	}
	return true
}

// flush emits dst's pending frame. Runs synchronously in whichever event or
// process context tripped the bound (or the window timer's event context).
func (c *Conn) flush(dst Addr, q *peerQueue) {
	if len(q.items) == 0 {
		return
	}
	items := q.items
	bytes := q.bytes
	since := q.since
	q.items = nil
	q.bytes = 0
	q.gen++
	k := c.ep.Network().Kernel()
	c.bstats.Frames++
	c.bstats.Messages += int64(len(items))
	c.occupancy.Observe(sim.Duration(len(items)))
	c.batchDelay.Observe(k.Now().Sub(since))
	c.ep.Send(dst, rpcFrame{items: items}, frameOverhead+bytes)
}

// flushAll drains every pending frame in sorted peer order (deterministic
// despite the queue map).
func (c *Conn) flushAll() {
	peers := make([]Addr, 0, len(c.outq))
	for a, q := range c.outq {
		if len(q.items) > 0 {
			peers = append(peers, a)
		}
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
	for _, a := range peers {
		c.flush(a, c.outq[a])
	}
}
