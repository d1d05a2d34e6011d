package simnet

import (
	"errors"
	"fmt"

	"repro/internal/metrics"
	"repro/internal/qos"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// ErrTimeout is returned by Call when the reply does not arrive in time —
// the way a live system notices a dead controller blade.
var ErrTimeout = errors.New("simnet: rpc timeout")

// ErrUnreachable is returned when no route exists or the peer is down at
// send time.
var ErrUnreachable = errors.New("simnet: peer unreachable")

// RetryPolicy bounds CallRetry: per-attempt deadline, attempt budget, and
// jittered exponential backoff between attempts. The zero value means one
// attempt with no deadline (equivalent to plain Call).
type RetryPolicy struct {
	// Timeout is the per-attempt deadline (zero = wait forever).
	Timeout sim.Duration
	// Attempts is the total number of tries (values < 1 mean 1).
	Attempts int
	// Backoff is the pause before the second attempt; it doubles each
	// further attempt.
	Backoff sim.Duration
	// MaxBackoff caps the doubling (zero = uncapped).
	MaxBackoff sim.Duration
	// Jitter adds a uniform random extra in [0, Jitter) to each backoff,
	// de-synchronizing competing retriers.
	Jitter sim.Duration
}

// RPCStats counts a connection's client-side fault handling.
type RPCStats struct {
	Calls    int64 // attempts issued (retries included)
	Timeouts int64 // attempts that hit their deadline
	Retries  int64 // re-attempts after a timeout
	GaveUp   int64 // calls abandoned with the retry budget exhausted
}

// RegisterTelemetry publishes c's client-side RPC counters and the number
// of requests served as a callee under s.
func (c *Conn) RegisterTelemetry(s telemetry.Scope) {
	s.Int("calls", func() int64 { return c.stats.Calls })
	s.Int("timeouts", func() int64 { return c.stats.Timeouts })
	s.Int("retries", func() int64 { return c.stats.Retries })
	s.Int("gave_up", func() int64 { return c.stats.GaveUp })
	s.Int("served", func() int64 { return c.served })
	b := s.Sub("batch")
	b.Int("frames", func() int64 { return c.bstats.Frames })
	b.Int("messages", func() int64 { return c.bstats.Messages })
	b.Int("piggybacked", func() int64 { return c.bstats.Piggybacked })
	// Occupancy samples are message counts (not durations), so publish the
	// derived series directly instead of a ms-scaled histogram.
	b.Func("occupancy_mean", func() float64 {
		if c.occupancy == nil {
			return 0
		}
		return float64(c.occupancy.Mean())
	})
	b.Func("occupancy_p99", func() float64 {
		if c.occupancy == nil {
			return 0
		}
		return float64(c.occupancy.Quantile(0.99))
	})
	b.Func("delay_mean_ms", func() float64 {
		if c.batchDelay == nil {
			return 0
		}
		return c.batchDelay.Mean().Millis()
	})
	b.Func("delay_p99_ms", func() float64 {
		if c.batchDelay == nil {
			return 0
		}
		return c.batchDelay.P99().Millis()
	})
}

// Handler serves one RPC method. It runs in its own simulation process, so
// it may block on disk and network operations. It returns the result payload
// and the wire size of the reply.
type Handler func(p *sim.Proc, from Addr, args any) (result any, size int)

type rpcRequest struct {
	id     uint64
	method string
	args   any
	// tctx carries the caller's trace context across the simulated wire,
	// so handler-side work joins the caller's trace.
	tctx trace.Ctx
	// qctx carries the caller's QoS tag (tenant + lane) the same way, so
	// remote handler CPU and disk time are charged to the right lane.
	qctx qos.Ctx
}

type rpcReply struct {
	id     uint64
	result any
}

// Conn is an RPC endpoint: it can both serve registered methods and call
// methods on peers. One Conn owns its node's message delivery.
type Conn struct {
	ep       *Endpoint
	handlers map[string]registered
	pending  map[uint64]*sim.Future[any]
	nextID   uint64
	// DefaultTimeout bounds Call when no explicit timeout is given.
	// Zero means wait forever.
	DefaultTimeout sim.Duration
	// served counts requests handled, for load-balance accounting.
	served int64
	stats  RPCStats
	// seenCur/seenPrev suppress network-duplicated requests. Ids are
	// recorded only while the fabric injects faults (the fault-free path
	// stays allocation-free) but membership is checked on every delivery,
	// so a duplicate whose first copy arrived under faults is still
	// suppressed after the fault plan clears. Two fixed-size generations
	// bound the memory: when the current generation fills, it becomes the
	// previous one and the oldest ids age out.
	seenCur  map[reqKey]struct{}
	seenPrev map[reqKey]struct{}

	// Frame coalescing state (see batch.go). All zero when batching is off.
	batching   bool
	pol        BatchPolicy
	outq       map[Addr]*peerQueue
	bstats     BatchStats
	occupancy  *metrics.Histogram
	batchDelay *metrics.Histogram
}

// registered is a served method: its handler and the name its handler
// processes run under, built once at Register rather than on every request.
type registered struct {
	h    Handler
	proc string
}

// seenGenCap bounds each duplicate-suppression generation; the window
// covers between seenGenCap and 2*seenGenCap of the most recent faulted
// request ids.
const seenGenCap = 8192

// dupSeen reports whether rk was already delivered within the suppression
// window. Nil-map lookups are free, so the fault-free path pays only this.
func (c *Conn) dupSeen(rk reqKey) bool {
	if _, ok := c.seenCur[rk]; ok {
		return true
	}
	_, ok := c.seenPrev[rk]
	return ok
}

// noteSeen records rk, rotating generations once the current one fills.
func (c *Conn) noteSeen(rk reqKey) {
	if c.seenCur == nil {
		c.seenCur = make(map[reqKey]struct{})
	}
	if len(c.seenCur) >= seenGenCap {
		c.seenPrev = c.seenCur
		c.seenCur = make(map[reqKey]struct{})
	}
	c.seenCur[rk] = struct{}{}
}

type reqKey struct {
	from Addr
	id   uint64
}

// NewConn attaches an RPC connection to addr on net.
func NewConn(net *Network, addr Addr) *Conn {
	c := &Conn{
		ep:       net.Node(addr),
		handlers: make(map[string]registered),
		pending:  make(map[uint64]*sim.Future[any]),
	}
	c.ep.Handle(c.onMessage)
	return c
}

// Addr returns the connection's network address.
func (c *Conn) Addr() Addr { return c.ep.Addr() }

// Network returns the underlying network.
func (c *Conn) Network() *Network { return c.ep.Network() }

// Served reports how many requests this connection has handled.
func (c *Conn) Served() int64 { return c.served }

// Stats returns a copy of the connection's client-side RPC counters.
func (c *Conn) Stats() RPCStats { return c.stats }

// Register installs a handler for method. Registering a method twice
// replaces the earlier handler.
func (c *Conn) Register(method string, h Handler) {
	c.handlers[method] = registered{h: h, proc: string(c.Addr()) + "/" + method}
}

func (c *Conn) onMessage(msg Message) {
	if fr, ok := msg.Payload.(rpcFrame); ok {
		for _, it := range fr.items {
			c.dispatch(msg.From, it.payload)
		}
		return
	}
	c.dispatch(msg.From, msg.Payload)
}

func (c *Conn) dispatch(from Addr, payload any) {
	k := c.ep.Network().Kernel()
	switch m := payload.(type) {
	case rpcRequest:
		reg, ok := c.handlers[m.method]
		if !ok {
			panic(fmt.Sprintf("simnet: %s has no handler for %q", c.Addr(), m.method))
		}
		// Under fault injection the fabric may deliver a request twice;
		// execute it once (the lost-reply case is covered by the caller's
		// retry, which uses a fresh request id). The membership check is
		// unconditional: a duplicate whose first copy arrived while faults
		// were active must stay suppressed even after the plan clears.
		rk := reqKey{from: from, id: m.id}
		if c.dupSeen(rk) {
			return
		}
		if c.ep.Network().FaultsActive() {
			c.noteSeen(rk)
		}
		c.served++
		k.Go(reg.proc, func(p *sim.Proc) {
			if m.tctx.Valid() {
				// Adopt the caller's trace so handler-side spans (disk
				// service, nested coherence calls) attribute correctly.
				p.SetTraceCtx(m.tctx)
			}
			if m.qctx != (qos.Ctx{}) {
				qos.SetCtx(p, m.qctx)
			}
			result, size := reg.h(p, from, m.args)
			c.send(from, rpcReply{id: m.id, result: result}, size)
		})
	case rpcReply:
		if f, ok := c.pending[m.id]; ok {
			delete(c.pending, m.id)
			f.Set(m.result)
		}
	default:
		panic(fmt.Sprintf("simnet: %s received non-RPC payload %T", c.Addr(), payload))
	}
}

// Call invokes method on dst, blocking p until the reply arrives, the
// DefaultTimeout expires, or the peer is unreachable. argSize is the request
// wire size in bytes.
func (c *Conn) Call(p *sim.Proc, dst Addr, method string, args any, argSize int) (any, error) {
	return c.CallTimeout(p, dst, method, args, argSize, c.DefaultTimeout)
}

// CallTimeout is Call with an explicit timeout (zero = wait forever).
func (c *Conn) CallTimeout(p *sim.Proc, dst Addr, method string, args any, argSize int, timeout sim.Duration) (any, error) {
	c.nextID++
	id := c.nextID
	c.stats.Calls++
	sp := rpcSpan(p, method, dst)
	f := sim.NewFuture[any](c.ep.Network().Kernel())
	c.pending[id] = f
	if !c.send(dst, rpcRequest{id: id, method: method, args: args, tctx: sp.Ctx(), qctx: qos.FromProc(p)}, argSize) {
		delete(c.pending, id)
		sp.Detail("unreachable").End()
		return nil, ErrUnreachable
	}
	result, ok := f.WaitTimeout(p, timeout)
	if !ok {
		// A late reply now finds no pending call and is dropped. The
		// deadline resumed p in the deadline event's own place; a reply
		// resumes it through a wake-up scheduled on delivery, behind the
		// events already queued for that instant. Yield once, so that a
		// timeout gives way to them as well.
		delete(c.pending, id)
		p.Yield()
		c.stats.Timeouts++
		sp.Detail("timeout").End()
		return nil, ErrTimeout
	}
	sp.End()
	return result, nil
}

// rpcSpan opens the caller's fabric span for a request to dst, or returns
// nil — without building the span's name — when p carries no trace; p may be
// nil for a caller outside any process.
func rpcSpan(p *sim.Proc, method string, dst Addr) *trace.Active {
	ctx := trace.FromProc(p)
	if !ctx.Valid() {
		return nil
	}
	return ctx.Child("rpc:"+method, trace.Fabric, string(dst))
}

// CallRetry is Call wrapped in a bounded retry loop per pol: every attempt
// runs under pol.Timeout, timeouts are retried after jittered exponential
// backoff, and the last error is returned once the attempt budget is spent.
// Non-timeout errors (an unreachable peer has failed, not merely dropped a
// message) are returned immediately — retrying them cannot help and only
// delays the caller's failover logic.
func (c *Conn) CallRetry(p *sim.Proc, dst Addr, method string, args any, argSize int, pol RetryPolicy) (any, error) {
	attempts := pol.Attempts
	if attempts < 1 {
		attempts = 1
	}
	k := c.ep.Network().Kernel()
	backoff := pol.Backoff
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			d := backoff
			if pol.MaxBackoff > 0 && d > pol.MaxBackoff {
				d = pol.MaxBackoff
			}
			if pol.Jitter > 0 {
				d += sim.Duration(k.Rand().Int63n(int64(pol.Jitter)))
			}
			p.Sleep(d)
			backoff *= 2
			// Count the retry only after the backoff completes: a proc
			// killed mid-sleep unwinds out of Sleep and must not record a
			// re-attempt that never went on the wire.
			c.stats.Retries++
		}
		result, err := c.CallTimeout(p, dst, method, args, argSize, pol.Timeout)
		if err == nil {
			return result, nil
		}
		lastErr = err
		if !errors.Is(err, ErrTimeout) {
			return nil, err
		}
	}
	c.stats.GaveUp++
	return nil, fmt.Errorf("simnet: %s to %s gave up after %d attempts: %w", method, dst, attempts, lastErr)
}

// Cast sends a request nobody waits for — an eviction notice, a replica
// drop — and registers nothing for it: the handler runs and its reply
// travels back like any other (same messages, same link occupancy), and on
// arrival matches no pending call and is dropped. A lost request or reply
// therefore leaves nothing behind on this connection. The caller's trace and
// QoS contexts propagate exactly as Call's do, so the handler's work stays
// inside the caller's trace and is charged to the caller's lane; the fabric
// span is an instant that marks the dispatch, since the reply may land after
// the enclosing op's root span has closed.
func (c *Conn) Cast(p *sim.Proc, dst Addr, method string, args any, argSize int) {
	c.nextID++
	sp := rpcSpan(p, method, dst)
	if !c.send(dst, rpcRequest{id: c.nextID, method: method, args: args, tctx: sp.Ctx(), qctx: qos.FromProc(p)}, argSize) {
		sp.Detail("unreachable")
	}
	sp.End()
}
