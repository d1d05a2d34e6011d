package sim

import (
	"fmt"
	"iter"
)

// Proc is a cooperatively scheduled simulation process.
//
// A process body runs on a runner — a coroutine the kernel switches to and
// from directly — and the kernel guarantees that at most one process (or
// callback) runs at a time: a process only executes between a kernel wake-up
// and its next blocking call (Sleep, Mailbox.Recv, Future.Wait,
// Semaphore.Acquire, ...). Methods on Proc must only be invoked from the
// process's own body.
type Proc struct {
	k    *Kernel
	name string
	fn   func(p *Proc)
	// r is the runner the body executes on: bound at the first wake, nil
	// before it (a proc that never starts costs no coroutine) and after exit.
	r *runner
	// idx is the proc's slot in Kernel.procs.
	idx     int
	blocked bool
	done    bool
	// gen increments every time the process unblocks, invalidating wake
	// events scheduled for an earlier blocking point.
	gen uint64
	// tctx is an opaque trace context (internal/trace.Ctx) carried by the
	// process. Children spawned from a process body inherit it; sim itself
	// never inspects it, which keeps the package dependency-free.
	tctx any
	// qctx is an opaque QoS context (internal/qos.Ctx) carried the same
	// way: inherited by children, adopted by RPC handlers, never inspected
	// by sim itself.
	qctx any
}

type killedPanic struct{ name string }

func (kp killedPanic) String() string { return "sim: proc " + kp.name + " killed by Kernel.Close" }

// Go spawns a process named name running fn. The process body starts at the
// current virtual time, after already-queued events at this time.
func (k *Kernel) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{k: k, name: name, fn: fn, idx: len(k.procs), blocked: true}
	if k.cur != nil {
		// A process spawned from within another process inherits its trace
		// context, so fan-out helpers (RAID stripes, replication pushes)
		// stay attributed to the client op that spawned them.
		p.tctx = k.cur.tctx
		// QoS context rides along identically so a client op's tenant and
		// lane follow every stripe/replica worker down to the disk queue.
		p.qctx = k.cur.qctx
	}
	k.procs = append(k.procs, p)
	k.wakeAt(k.now, p)
	return p
}

// forget drops p from the kernel's list of live processes.
func (k *Kernel) forget(p *Proc) {
	if k.closed {
		return // Close has taken the list
	}
	last := k.procs[len(k.procs)-1]
	k.procs[p.idx] = last
	last.idx = p.idx
	k.procs[len(k.procs)-1] = nil
	k.procs = k.procs[:len(k.procs)-1]
}

// runner is a coroutine that executes process bodies one after another: a
// body that returns hands the runner — and the stack the body grew — to the
// kernel's free list for the next process to start.
type runner struct {
	k *Kernel
	// p is the process to run at the next switch into an idle runner.
	p *Proc
	// next switches to the coroutine until it yields; stop makes the yield
	// it is suspended in return false and waits for the coroutine to end.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

func (k *Kernel) newRunner() *runner {
	r := &runner{k: k}
	r.next, r.stop = iter.Pull(r.loop)
	return r
}

// loop is the coroutine: run the bound body, join the free list, wait for
// the next one. It ends when stop cuts a wait short — the idle wait (a
// surplus runner) or, through the unwinding of park, a body's blocking call
// (Kernel.Close).
func (r *runner) loop(yield func(struct{}) bool) {
	r.yield = yield
	for {
		r.run(r.p)
		r.p = nil
		r.k.idle = append(r.k.idle, r)
		if !yield(struct{}{}) {
			return
		}
	}
}

// run executes p's body to its end: a return, the unwinding Kernel.Close
// starts, or a panic of the body's own, which continues — carrying the
// process name — out of the switch in Kernel.wake and so out of Kernel.Run.
func (r *runner) run(p *Proc) {
	defer func() {
		p.done = true
		p.r, p.fn = nil, nil
		r.k.forget(p)
		if v := recover(); v != nil {
			if _, killed := v.(killedPanic); !killed {
				panic(fmt.Sprintf("sim: proc %q panicked: %v", p.name, v))
			}
		}
	}()
	p.fn(p)
}

// wake transfers control to p and blocks the kernel until p parks or exits.
func (k *Kernel) wake(p *Proc) {
	if p.done || !p.blocked {
		return
	}
	p.blocked = false
	r := p.r
	if r == nil {
		// First wake: start the body on the most recently idled runner,
		// whose stack is the likeliest to be grown and cache-warm.
		if n := len(k.idle); n > 0 {
			r, k.idle[n-1] = k.idle[n-1], nil
			k.idle = k.idle[:n-1]
			k.lowIdle = min(k.lowIdle, n-1)
		} else {
			r = k.newRunner()
			k.runners++
		}
		r.p, p.r = p, r
	}
	prev := k.cur
	k.cur = p
	r.next()
	k.cur = prev
	if p.done {
		// The free list is a stack, so the lowIdle runners at its bottom
		// started no process since the window opened; at its close they
		// are surplus. A start-up burst's runners do not outlive it by
		// long, while a fan-out's survive to serve the next.
		k.exits++
		if k.exits >= shedWindow*k.runners {
			k.shed(k.lowIdle)
			k.lowIdle = len(k.idle)
			k.exits = 0
		}
	}
}

// shedWindow is the length of the window over which an idle runner must go
// unused to be ended, in turnovers of the pool (process exits per runner).
// One turnover sheds the runners of every fan-out whose period is longer
// than the pool (4 % of starts on pfs-stream, 14 % on object-mixed pay for
// a new coroutine); beyond four the share falls slowly (1 %, 4.4 %) and the
// runners of object-mixed's 11 k-process set-up burst start to show in its
// peak RSS.
const shedWindow = 4

// shed ends the n least recently used idle runners.
func (k *Kernel) shed(n int) {
	if n <= 0 {
		return
	}
	for _, r := range k.idle[:n] {
		r.stop()
	}
	kept := copy(k.idle, k.idle[n:])
	clear(k.idle[kept:])
	k.idle = k.idle[:kept]
	k.runners -= n
	k.lowIdle = max(k.lowIdle-n, 0)
}

// park blocks p until the kernel wakes it again.
func (p *Proc) park() {
	p.blocked = true
	alive := p.r.yield(struct{}{})
	p.gen++
	if !alive {
		panic(killedPanic{p.name})
	}
}

// Name returns the process name given at spawn.
func (p *Proc) Name() string { return p.name }

// TraceCtx returns the process's trace context (nil when untraced). The
// value is opaque to sim; internal/trace owns its concrete type.
func (p *Proc) TraceCtx() any { return p.tctx }

// SetTraceCtx installs v as the process's trace context. RPC handler
// processes use it to adopt the caller's context carried over the wire.
func (p *Proc) SetTraceCtx(v any) { p.tctx = v }

// QoSCtx returns the process's QoS context (nil when untagged). The value
// is opaque to sim; internal/qos owns its concrete type.
func (p *Proc) QoSCtx() any { return p.qctx }

// SetQoSCtx installs v as the process's QoS context. The controller tags
// ops at the front door; RPC handlers adopt the caller's tag over the wire.
func (p *Proc) SetQoSCtx(v any) { p.qctx = v }

// Kernel returns the kernel this process runs on.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.Now() }

// Sleep blocks the process for d of virtual time. Non-positive durations
// yield to other events scheduled at the current time.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	p.k.wakeAt(p.k.now.Add(d), p)
	p.park()
}

// Yield lets every other event already scheduled at the current time run
// before this process continues.
func (p *Proc) Yield() { p.Sleep(0) }
