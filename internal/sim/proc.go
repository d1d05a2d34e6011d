package sim

import (
	"fmt"
	"iter"
	"slices"
)

// Proc is a cooperatively scheduled simulation process.
//
// A process body runs on a runner — a coroutine the kernel switches to and
// from directly — and the kernel guarantees that at most one process (or
// callback) runs at a time: a process only executes between a kernel wake-up
// and its next blocking call (Sleep, Mailbox.Recv, Future.Wait,
// Semaphore.Acquire, ...). Methods on Proc must only be invoked from the
// process's own body.
//
// A step process (Kernel.Step) has no runner until it asks for one: its
// body is called on the kernel's own stack at every wake, and waits by
// arranging its next wake and returning.
type Proc struct {
	k    *Kernel
	name string
	fn   func(p *Proc)
	// step marks a step process that has not continued into a coroutine:
	// the kernel calls fn at every wake instead of resuming a runner.
	step bool
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
//
// The Proc is the one a process that has exited left most recently (see
// runner.run), or a new one. A reused Proc keeps its gen: a wake-up its last
// life left queued names one of that life's blocking periods, and so stays
// stale in this one.
func (k *Kernel) Go(name string, fn func(p *Proc)) *Proc {
	p, reused := k.spare.Get()
	if reused {
		p.name, p.fn, p.idx, p.blocked, p.done, p.step = name, fn, len(k.procs), true, false, false
	} else {
		p = &Proc{k: k, name: name, fn: fn, idx: len(k.procs), blocked: true}
	}
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

// Step spawns a step process named name: fn is called on the kernel's own
// stack at the process's start — the event Go would schedule — and at every
// wake after it. A call waits by arranging the next wake (Proc.SleepStep,
// Semaphore.AcquireStep, Group.WaitStep) and returning; one that returns
// with nothing arranged ends the process. Continue turns it into an ordinary
// process at once. So a step body that waits where a Go body would block
// runs event for event as that body, without a coroutine.
func (k *Kernel) Step(name string, fn func(p *Proc)) *Proc {
	p := k.Go(name, fn)
	p.step = true
	return p
}

// Continue turns p, a step process inside its step, into an ordinary
// process whose body is fn: it binds a runner and runs fn at once, with no
// event between, until fn first blocks or returns. The step then returns
// with nothing more arranged.
func (p *Proc) Continue(fn func(p *Proc)) {
	p.step, p.fn = false, fn
	p.k.resume(p)
}

// await ends a step process's step: p is blocked until a wake that the
// caller has arranged calls its body again.
func (p *Proc) await() { p.blocked = true }

// SleepStep is Sleep for a step process: it arranges p's wake d from now
// (d ≤ 0: after the events already queued for now), and the step returns.
func (p *Proc) SleepStep(d Duration) {
	p.k.wakeAt(p.k.now.Add(max(d, 0)), p)
	p.await()
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

// retire ends p, whose body has returned (reuse) or been unwound by Close:
// it leaves the live list, and a returned one goes on the spare list for
// the next Go.
func (k *Kernel) retire(p *Proc, reuse bool) {
	p.done = true
	p.r, p.fn, p.tctx, p.qctx = nil, nil, nil, nil
	k.forget(p)
	if reuse && !k.closed {
		k.spare.Put(p)
	}
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
// A body that returned hands p to the kernel's spare list for the next Go;
// a proc that Close killed is never reused.
func (r *runner) run(p *Proc) {
	defer func() {
		v := recover()
		r.k.retire(p, v == nil)
		if v != nil {
			if _, killed := v.(killedPanic); !killed {
				panic(fmt.Sprintf("sim: proc %q panicked: %v", p.name, v))
			}
		}
	}()
	p.fn(p)
}

// wake transfers control to p and blocks the kernel until p parks or exits:
// a step process's body runs on the kernel's stack, any other on its runner.
func (k *Kernel) wake(p *Proc) {
	if p.done || !p.blocked {
		return
	}
	p.blocked = false
	prev := k.cur
	k.cur = p
	if p.step {
		// A wake ends the blocking period, as park's return does.
		p.gen++
		p.fn(p)
		if p.step && !p.blocked {
			k.retire(p, true) // returned with no wake arranged: the body is over
		}
	} else {
		k.resume(p)
	}
	k.cur = prev
}

// resume switches to p's runner, binding one first if p has none, until p
// parks or exits.
func (k *Kernel) resume(p *Proc) {
	r := p.r
	if r == nil {
		// First run: start the body on the most recently idled runner,
		// whose stack is the likeliest to be grown and cache-warm.
		if n := len(k.idle); n > 0 {
			r, k.idle[n-1] = k.idle[n-1], nil
			k.idle = k.idle[:n-1]
		} else {
			r = k.newRunner()
			k.runners++
			k.built++
		}
		r.p, p.r = p, r
		// The free list is a stack: the runners shed are the least
		// recently used.
		if keep := k.pool.Use(k.runners - len(k.idle)); keep >= 0 {
			k.shed(k.runners - keep)
		}
	}
	k.resumes++
	r.next()
}

// Peak is the rule by which the kernel keeps idle runners, for any spare
// list: keep as many records as were in use at once in the busiest of the
// last 32 windows, where a window closes after shedWindow times as many uses
// as its predecessor's peak. So records that a recurring fan-out needs stay
// on the list, while those of a burst that ended — object-mixed's 11 k-process
// prefill — age out in 32 windows of the work done since, not of the records
// the burst left behind. (A 4-turnover window of the whole pool made 1.16
// starts per object-mixed op build a coroutine; a longer one held the
// prefill's runners through the measure phase. This rule builds 0.1.)
type Peak struct {
	uses, windows, high int
	peaks               [32]int
}

// shedWindow is a window's length in turnovers of its predecessor's peak.
const shedWindow = 4

// Use notes one use, after which n records are in use, and returns how many
// records to keep, in use and spare, at the close of a window, or -1.
func (pk *Peak) Use(n int) int {
	pk.uses++
	pk.high = max(pk.high, n)
	w := len(pk.peaks)
	if pk.uses < shedWindow*pk.peaks[(pk.windows+w-1)%w] {
		return -1
	}
	pk.peaks[pk.windows%w] = pk.high
	pk.windows++
	pk.uses, pk.high = 0, n
	return slices.Max(pk.peaks[:])
}

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
	// The spare procs go with them: no more are kept than idle runners to
	// start them on.
	k.spare.Trim(kept)
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

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.Now() }

// Sleep blocks the process for d of virtual time. Non-positive durations
// yield to other events scheduled at the current time.
func (p *Proc) Sleep(d Duration) {
	p.SleepStep(d)
	p.park()
}

// Yield lets every other event already scheduled at the current time run
// before this process continues.
func (p *Proc) Yield() { p.Sleep(0) }
