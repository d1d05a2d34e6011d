// Package sim provides a deterministic discrete-event simulation kernel.
//
// Every component of the storage system runs on virtual time supplied by a
// Kernel. Work is expressed either as plain scheduled callbacks (At/After) or
// as cooperatively scheduled processes (Go) that may block on Sleep, Mailbox,
// Future and Semaphore primitives. Exactly one process or callback executes
// at any instant, and events at equal times fire in scheduling order, so a
// run is fully deterministic for a given seed.
package sim

import (
	"fmt"
	"math/rand"
)

// Time is an absolute virtual time in nanoseconds since the start of the run.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Common durations, mirroring time package conventions.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Seconds reports d as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Millis reports d as a floating-point number of milliseconds.
func (d Duration) Millis() float64 { return float64(d) / float64(Millisecond) }

// Micros reports d as a floating-point number of microseconds.
func (d Duration) Micros() float64 { return float64(d) / float64(Microsecond) }

func (d Duration) String() string {
	switch {
	case d >= Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= Millisecond:
		return fmt.Sprintf("%.3fms", d.Millis())
	case d >= Microsecond:
		return fmt.Sprintf("%.3fus", d.Micros())
	default:
		return fmt.Sprintf("%dns", int64(d))
	}
}

// Seconds reports t as a floating-point number of seconds since start.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// event is one scheduled occurrence, ordered by the total key (at, seq).
// It is either a callback (fn non-nil, from At/After) or a wake-up of proc
// valid only for the blocking period gen names: Sleep, Mailbox, Future,
// Semaphore, Group and the start of Go schedule the latter, so none of them
// allocates an event or a closure.
type event struct {
	at   Time
	seq  uint64
	fn   func()
	proc *Proc
	gen  uint64
}

// stale reports whether e is a wake-up that can no longer fire: its process
// has exited, or has been woken since e was scheduled (gen only grows), so
// popping e would do nothing. A callback is never stale.
func (e *event) stale() bool {
	return e.fn == nil && (e.proc.done || e.proc.gen != e.gen)
}

// before reports whether key (at, seq) sorts ahead of key (at2, seq2). It
// takes the fields rather than events so that a comparison copies nothing.
func before(at Time, seq uint64, at2 Time, seq2 uint64) bool {
	if at != at2 {
		return at < at2
	}
	return seq < seq2
}

// eventHeap is a value-typed 4-ary min-heap on (at, seq). seq is unique, so
// the key is a total order and pop order does not depend on the heap's shape
// or arity: events at equal times fire in scheduling order.
type eventHeap []event

const heapArity = 4

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / heapArity
		if !before(e.at, e.seq, s[parent].at, s[parent].seq) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = e
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	last := s[n]
	s[n] = event{} // drop the slot's fn/proc references
	s = s[:n]
	*h = s
	if n > 0 {
		s.siftDown(0, last)
	}
	return top
}

// siftDown stores e at the hole i or, while a child sorts ahead of e, moves
// that child up and the hole down.
func (s eventHeap) siftDown(i int, e event) {
	n := len(s)
	for {
		first := i*heapArity + 1
		if first >= n {
			break
		}
		min := first
		end := first + heapArity
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if before(s[c].at, s[c].seq, s[min].at, s[min].seq) {
				min = c
			}
		}
		if !before(s[min].at, s[min].seq, e.at, e.seq) {
			break
		}
		s[i] = s[min]
		i = min
	}
	s[i] = e
}

// Kernel is a discrete-event scheduler with a virtual clock.
//
// A Kernel is not safe for concurrent use; all interaction must happen from
// the goroutine that calls Run (directly or from within scheduled callbacks
// and processes, which the kernel serializes).
type Kernel struct {
	now    Time
	events eventHeap
	// nowq holds the events scheduled for the instant they were scheduled
	// at: most wake-ups are (a Go, a Mailbox send, a Future set), and a
	// queue takes them without a sift. Its events were pushed in seq order
	// at a clock that never goes back, so it is sorted by (at, seq) too, and
	// run pops whichever of its front and the heap's top comes first.
	nowq fifo[event]
	seq  uint64
	rng  *rand.Rand
	// procs lists the live processes, each at its Proc.idx, for Close.
	procs []*Proc
	// spare holds the processes whose body has returned, for the next Go to
	// reuse (see Go); shed trims it with the idle runners. joins holds the
	// Fork states (see Fork).
	spare Spare[*Proc]
	joins Spare[*join]
	// idle is the LIFO free list of runners whose body has returned;
	// runners counts all coroutines, idle or running a body, and pool
	// judges how many to keep (see resume). resumes counts the switches
	// into a runner and built the runners ever made.
	idle    []*runner
	runners int
	pool    Peak
	resumes uint64
	built   uint64
	closed  bool
	// stopAt, when nonzero, bounds Run: events after it stay queued.
	stopAt Time
	// sweepAt is the heap length at which schedule next sweeps the stale
	// wake-ups out (see sweep); horizon is the latest time of any event a
	// sweep removed, which Run still advances the clock to.
	sweepAt int
	horizon Time
	// cur is the process currently executing, nil while the kernel itself
	// (or a plain callback) runs. Go uses it to inherit trace context into
	// child processes. All access is ordered by the coroutine switches.
	cur *Proc
}

// NewKernel returns a kernel whose random source is seeded with seed.
func NewKernel(seed int64) *Kernel {
	return &Kernel{rng: rand.New(rand.NewSource(seed)), sweepAt: sweepMin}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Rand returns the kernel's deterministic random source.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// At schedules fn to run at absolute time t. Times in the past run "now"
// (the kernel clock never moves backward).
func (k *Kernel) At(t Time, fn func()) { k.schedule(event{at: t, fn: fn}) }

// wakeAt schedules a wake-up of p at t, valid only for p's current blocking
// period: if p has already been woken by something else when the event
// fires, it is a no-op. Primitives schedule this instead of waking directly
// so equal-time events keep FIFO order.
func (k *Kernel) wakeAt(t Time, p *Proc) { k.schedule(event{at: t, proc: p, gen: p.gen}) }

func (k *Kernel) schedule(e event) {
	if k.closed {
		return
	}
	k.seq++
	e.seq = k.seq
	if e.at <= k.now {
		e.at = k.now
		k.nowq.push(e)
		return
	}
	k.events.push(e)
	if len(k.events) >= k.sweepAt {
		k.sweep()
	}
}

// sweepMin is the heap length below which a sweep is not worth its pass.
const sweepMin = 1024

// sweep removes the stale wake-ups from the heap. A wake-up that lost its
// race — above all the deadline of a WaitTimeout whose future was set in
// time — would otherwise sit in the heap until its time came: at a 2 s RPC
// deadline, two seconds' worth of completed calls. Removing one changes
// nothing a run can observe: it would have popped as a no-op, the events
// that remain keep their (at, seq) keys and so their pop order, and Run
// still ends at the time of the last one removed (horizon). A sweep runs
// when the heap has doubled since the last one left it, which keeps the
// heap within twice its live events at an amortised O(1) per schedule.
func (k *Kernel) sweep() {
	live := k.events[:0]
	for i := range k.events {
		if e := &k.events[i]; e.stale() {
			k.horizon = max(k.horizon, e.at)
		} else {
			live = append(live, *e)
		}
	}
	clear(k.events[len(live):]) // drop the vacated slots' proc references
	k.events = live
	if n := len(live); n > 1 {
		for i := (n - 2) / heapArity; i >= 0; i-- {
			live.siftDown(i, live[i])
		}
	}
	k.sweepAt = max(2*len(live), sweepMin)
}

// After schedules fn to run d from now.
func (k *Kernel) After(d Duration, fn func()) { k.At(k.now.Add(d), fn) }

// Pending reports the number of queued events.
func (k *Kernel) Pending() int { return len(k.events) + k.nowq.len() }

// Events reports how many events have been scheduled since the kernel was
// created — the simulator's own unit of work.
func (k *Kernel) Events() uint64 { return k.seq }

// Resumes reports how many times the kernel has switched into a coroutine:
// the wakes that a step process's body did not take on the kernel's stack.
func (k *Kernel) Resumes() uint64 { return k.resumes }

// Procs reports the number of live processes, started or not.
func (k *Kernel) Procs() int { return len(k.procs) }

// Runners reports the number of coroutines, idle or running a body.
func (k *Kernel) Runners() int { return k.runners }

// RunnersBuilt reports how many coroutines the kernel has made since it was
// created: what Runners nets of the shed ones, the pool's churn.
func (k *Kernel) RunnersBuilt() uint64 { return k.built }

// Run executes events until the queue is empty.
func (k *Kernel) Run() { k.run(0) }

// RunFor executes events with time ≤ now+d, then advances the clock to
// now+d. Events scheduled later remain queued for a later Run/RunFor.
func (k *Kernel) RunFor(d Duration) { k.run(k.now.Add(d)) }

// next returns the first queued event by (at, seq) and whether it is the
// front of nowq rather than the heap's top, or nil when nothing is queued:
// nowq's front comes first unless the heap holds an event for the same
// instant that was scheduled earlier.
func (k *Kernel) next() (*event, bool) {
	if k.nowq.len() == 0 {
		if len(k.events) == 0 {
			return nil, false
		}
		return &k.events[0], false
	}
	front := &k.nowq.buf[k.nowq.head]
	if len(k.events) > 0 && before(k.events[0].at, k.events[0].seq, front.at, front.seq) {
		return &k.events[0], false
	}
	return front, true
}

func (k *Kernel) run(until Time) {
	for {
		next, fromNow := k.next()
		if next == nil || until != 0 && next.at > until {
			break
		}
		var e event
		if fromNow {
			e = k.nowq.pop()
		} else {
			e = k.events.pop()
		}
		if e.at > k.now {
			k.now = e.at
		}
		if e.fn != nil {
			e.fn()
		} else if !e.stale() {
			k.wake(e.proc)
		}
	}
	if until == 0 && k.horizon > k.now {
		k.now = k.horizon // the queue drained through the swept wake-ups too
	}
	if until > k.now {
		k.now = until
	}
	if k.Pending() == 0 {
		// Quiescent: nothing starts until the caller schedules more. Keep
		// no more idle runners than there are parked processes.
		k.shed(2*len(k.idle) - k.runners)
	}
}

// Close terminates every blocked process (their stack frames unwind via an
// internal panic recovered by the kernel), drops processes that have not
// started yet without running them, ends the idle runners and drops all
// queued events. It is safe to call Close more than once. After Close the
// kernel is inert.
func (k *Kernel) Close() {
	if k.closed {
		return
	}
	k.closed = true
	k.events = nil
	k.nowq = fifo[event]{}
	procs := k.procs
	k.procs = nil // forget is a no-op from here on
	for _, p := range procs {
		switch {
		case p.r == nil:
			p.done = true
		case p.blocked:
			p.r.stop() // park panics killedPanic; the runner ends after the unwinding
		}
	}
	for _, r := range k.idle {
		r.stop()
	}
	k.idle, k.spare, k.joins = nil, Spare[*Proc]{}, Spare[*join]{}
}
