package sim

import "fmt"

// Proc is a cooperatively scheduled simulation process.
//
// A process is backed by a goroutine, but the kernel guarantees that at most
// one process (or callback) runs at a time: a process only executes between a
// kernel wake-up and its next blocking call (Sleep, Mailbox.Recv,
// Future.Wait, Semaphore.Acquire, ...). Methods on Proc must only be invoked
// from the process's own body.
type Proc struct {
	k       *Kernel
	name    string
	resume  chan parkSignal
	blocked bool
	killed  bool
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
	p := &Proc{k: k, name: name, resume: make(chan parkSignal)}
	if k.cur != nil {
		// A process spawned from within another process inherits its trace
		// context, so fan-out helpers (RAID stripes, replication pushes)
		// stay attributed to the client op that spawned them.
		p.tctx = k.cur.tctx
		// QoS context rides along identically so a client op's tenant and
		// lane follow every stripe/replica worker down to the disk queue.
		p.qctx = k.cur.qctx
	}
	k.procs[p] = struct{}{}
	go func() {
		<-p.resume
		defer func() {
			p.done = true
			delete(k.procs, p)
			if r := recover(); r != nil {
				if _, ok := r.(killedPanic); ok {
					k.parked <- parkSignal{}
					return
				}
				panic(fmt.Sprintf("sim: proc %q panicked: %v", name, r))
			}
			k.parked <- parkSignal{}
		}()
		fn(p)
	}()
	p.blocked = true
	k.wakeAt(k.now, p)
	return p
}

// wake transfers control to p and blocks the kernel until p parks or exits.
func (k *Kernel) wake(p *Proc) {
	if p.done || !p.blocked {
		return
	}
	p.blocked = false
	prev := k.cur
	k.cur = p
	p.resume <- parkSignal{}
	<-k.parked
	k.cur = prev
}

// park blocks p until the kernel wakes it again.
func (p *Proc) park() {
	p.blocked = true
	p.k.parked <- parkSignal{}
	<-p.resume
	p.gen++
	if p.killed {
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
