package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
)

// The reference scheduler: the kernel as it was before events became values
// in a d-ary heap — container/heap over *refEvent, every wake-up a closure
// pushed through At. It borrows a real Kernel for the clock and the proc
// plumbing (park/wake), whose own queue it keeps empty, so the two sides of
// the equivalence test differ only in how events are queued and popped.

type refEvent struct {
	at  Time
	seq uint64
	fn  func()
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

type refKernel struct {
	k      *Kernel
	events refHeap
	seq    uint64
}

func (r *refKernel) At(t Time, fn func()) {
	if t < r.k.now {
		t = r.k.now
	}
	r.seq++
	heap.Push(&r.events, &refEvent{at: t, seq: r.seq, fn: fn})
}

func (r *refKernel) Run() {
	for len(r.events) > 0 {
		e := heap.Pop(&r.events).(*refEvent)
		if e.at > r.k.now {
			r.k.now = e.at
		}
		e.fn()
	}
}

func (r *refKernel) Go(name string, fn func(p *Proc)) {
	p := r.k.Go(name, fn)
	r.k.nowq = fifo[event]{} // the start event belongs in the reference queue
	r.At(r.k.now, func() { r.k.wake(p) })
}

func (r *refKernel) wakeEvent(p *Proc) func() {
	g := p.gen
	return func() {
		if !p.done && p.blocked && p.gen == g {
			r.k.wake(p)
		}
	}
}

func (r *refKernel) Sleep(p *Proc, d Duration) {
	r.At(r.k.now.Add(d), r.wakeEvent(p))
	p.park()
}

type refMailbox struct {
	r       *refKernel
	q       []int
	waiters []*Proc
}

func (m *refMailbox) Send(v int) {
	m.q = append(m.q, v)
	if len(m.waiters) > 0 {
		w := m.waiters[0]
		m.waiters = m.waiters[1:]
		m.r.At(m.r.k.now, m.r.wakeEvent(w))
	}
}

func (m *refMailbox) Recv(p *Proc) int {
	for len(m.q) == 0 {
		m.waiters = append(m.waiters, p)
		p.park()
	}
	v := m.q[0]
	m.q = m.q[1:]
	return v
}

type refSemaphore struct {
	r       *refKernel
	avail   int
	waiters []semWaiter
}

func (s *refSemaphore) Acquire(p *Proc, n int) {
	if len(s.waiters) == 0 && s.avail >= n {
		s.avail -= n
		return
	}
	s.waiters = append(s.waiters, semWaiter{p, n})
	for {
		p.park()
		if len(s.waiters) > 0 && s.waiters[0].p == p && s.avail >= n {
			s.waiters = s.waiters[1:]
			s.avail -= n
			s.kick()
			return
		}
	}
}

func (s *refSemaphore) Release(n int) {
	s.avail += n
	s.kick()
}

func (s *refSemaphore) kick() {
	if len(s.waiters) > 0 && s.avail >= s.waiters[0].n {
		s.r.At(s.r.k.now, s.r.wakeEvent(s.waiters[0].p))
	}
}

// call is an RPC-shaped wait as simnet had it while a deadline was a
// callback: the reply (a callback setDelay from now, scheduled ahead of the
// deadline or, through a trampoline that runs once p has parked, behind it)
// and the deadline race for the pending flag, the winner sets the future,
// and p resumes through the wake-up that Set schedules. It reports whether
// the reply won.
func (r *refKernel) call(p *Proc, replyFirst bool, setDelay, deadline Duration) bool {
	set, pending, timedOut := false, true, false
	resolve := func() {
		set = true
		r.At(r.k.now, r.wakeEvent(p))
	}
	reply := func() {
		if pending {
			pending = false
			resolve()
		}
	}
	if replyFirst {
		r.At(r.k.now.Add(setDelay), reply)
	} else {
		r.At(r.k.now, func() { r.At(r.k.now.Add(setDelay), reply) })
	}
	r.At(r.k.now.Add(deadline), func() {
		if pending {
			pending, timedOut = false, true
			resolve()
		}
	})
	for !set {
		p.park()
	}
	return !timedOut
}

// realCall is the same exchange as simnet.Conn.CallTimeout now runs it: the
// deadline is the caller's own wake-up, and a caller that timed out yields
// once.
func realCall(k *Kernel, p *Proc, replyFirst bool, setDelay, deadline Duration) bool {
	f := NewFuture[struct{}](k)
	pending := true
	reply := func() {
		if pending {
			pending = false
			f.Set(struct{}{})
		}
	}
	if replyFirst {
		k.After(setDelay, reply)
	} else {
		k.After(0, func() { k.After(setDelay, reply) })
	}
	_, ok := f.WaitTimeout(p, deadline)
	if !ok {
		pending = false
		p.Yield()
	}
	return ok
}

// machine is what a random schedule drives: the kernel under test or the
// reference.
type machine struct {
	now     func() Time
	at      func(t Time, fn func())
	spawn   func(name string, fn func(p *Proc))
	sleep   func(p *Proc, d Duration)
	send    func(mb, v int)
	recv    func(p *Proc, mb int) int
	acquire func(p *Proc, sem, n int)
	release func(sem, n int)
	call    func(p *Proc, replyFirst bool, setDelay, deadline Duration) bool
	run     func()
	close   func()
}

const (
	equivMailboxes  = 2
	equivSemaphores = 2
	equivPermits    = 2
)

func realMachine(seed int64) machine {
	m, _ := realMachineOn(seed)
	return m
}

// realMachineOn also returns the kernel, for tests that steer its sweep.
func realMachineOn(seed int64) (machine, *Kernel) {
	k := NewKernel(seed)
	var mbs [equivMailboxes]*Mailbox[int]
	var sems [equivSemaphores]*Semaphore
	for i := range mbs {
		mbs[i] = NewMailbox[int](k)
	}
	for i := range sems {
		sems[i] = NewSemaphore(k, equivPermits)
	}
	return machine{
		now:     k.Now,
		at:      k.At,
		spawn:   func(name string, fn func(p *Proc)) { k.Go(name, fn) },
		sleep:   func(p *Proc, d Duration) { p.Sleep(d) },
		send:    func(mb, v int) { mbs[mb].Send(v) },
		recv:    func(p *Proc, mb int) int { return mbs[mb].Recv(p) },
		acquire: func(p *Proc, sem, n int) { sems[sem].Acquire(p, n) },
		release: func(sem, n int) { sems[sem].Release(n) },
		call: func(p *Proc, replyFirst bool, setDelay, deadline Duration) bool {
			return realCall(k, p, replyFirst, setDelay, deadline)
		},
		run:   k.Run,
		close: k.Close,
	}, k
}

func refMachine(seed int64) machine {
	r := &refKernel{k: NewKernel(seed)}
	var mbs [equivMailboxes]*refMailbox
	var sems [equivSemaphores]*refSemaphore
	for i := range mbs {
		mbs[i] = &refMailbox{r: r}
	}
	for i := range sems {
		sems[i] = &refSemaphore{r: r, avail: equivPermits}
	}
	return machine{
		now:     r.k.Now,
		at:      r.At,
		spawn:   r.Go,
		sleep:   r.Sleep,
		send:    func(mb, v int) { mbs[mb].Send(v) },
		recv:    func(p *Proc, mb int) int { return mbs[mb].Recv(p) },
		acquire: func(p *Proc, sem, n int) { sems[sem].Acquire(p, n) },
		release: func(sem, n int) { sems[sem].Release(n) },
		call:    r.call,
		run:     r.Run,
		close:   r.k.Close,
	}
}

type stepKind int

const (
	stepSleep stepKind = iota
	stepAfter          // callback d from now
	stepAt             // callback at an absolute time, possibly in the past
	stepSend
	stepRecv
	stepHold // acquire n permits, sleep d, release
	stepCall // wait up to d for a reply due d2 from now
)

type step struct {
	kind stepKind
	d    Duration
	d2   Duration
	t    Time
	id   int // mailbox or semaphore
	n    int
	// first: the reply is scheduled ahead of the deadline, not behind it.
	first bool
}

// randomSchedule draws every proc's steps up front, so both machines run
// the same program whatever order they interleave it in. Delays come from
// {0..3} µs: most events collide with others at the same instant, which is
// where FIFO order is decided by seq alone. Even procs send and odd procs
// receive, each mailbox exactly as often as it is sent to, so every run
// drains: a receiver only ever waits for procs that cannot wait for it. A
// call's reply and deadline come from the same four delays, so one in four
// is a tie, which the deadline wins: it was scheduled first. (The reply to
// an RPC is scheduled after its request was sent and so after its deadline.
// A reply scheduled first that lands on the deadline's very instant sets
// the future in both designs, but WaitTimeout then resumes the waiter in the
// deadline's place and the callback design in Set's: no schedule has one.)
func randomSchedule(rng *rand.Rand, procs, steps int) [][]step {
	prog := make([][]step, procs)
	var sends [equivMailboxes]int
	delay := func() Duration { return Duration(rng.Intn(4)) * Microsecond }
	for i := range prog {
		for j := 0; j < steps; j++ {
			var s step
			switch rng.Intn(7) {
			case 0, 1:
				s = step{kind: stepSleep, d: delay()}
			case 2:
				s = step{kind: stepAfter, d: delay()}
			case 3:
				s = step{kind: stepAt, t: Time(rng.Intn(steps)) * Time(Microsecond)}
			case 4:
				if i%2 == 1 {
					continue
				}
				s = step{kind: stepSend, id: rng.Intn(equivMailboxes)}
				sends[s.id]++
			case 5:
				s = step{kind: stepHold, id: rng.Intn(equivSemaphores), n: 1 + rng.Intn(equivPermits), d: delay()}
			case 6:
				s = step{kind: stepCall, d: Microsecond + delay(), d2: Microsecond + delay()}
				s.first = s.d != s.d2 && rng.Intn(2) == 0
			}
			prog[i] = append(prog[i], s)
		}
	}
	for mb, n := range sends {
		for ; n > 0; n-- {
			i := 1 + 2*rng.Intn(procs/2)
			at := rng.Intn(len(prog[i]) + 1)
			prog[i] = append(prog[i][:at], append([]step{{kind: stepRecv, id: mb}}, prog[i][at:]...)...)
		}
	}
	return prog
}

// execute runs prog on m and returns the order things happened in.
func execute(m machine, prog [][]step) []string {
	defer m.close()
	var log []string
	note := func(format string, args ...any) {
		log = append(log, fmt.Sprintf("t=%d ", m.now())+fmt.Sprintf(format, args...))
	}
	for i, steps := range prog {
		i, steps := i, steps
		m.spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for j, s := range steps {
				j := j
				switch s.kind {
				case stepSleep:
					m.sleep(p, s.d)
				case stepAfter:
					m.at(m.now().Add(s.d), func() { note("p%d.%d callback", i, j) })
				case stepAt:
					m.at(s.t, func() { note("p%d.%d callback", i, j) })
				case stepSend:
					m.send(s.id, i*1000+j)
				case stepRecv:
					note("p%d.%d received %d", i, j, m.recv(p, s.id))
				case stepHold:
					m.acquire(p, s.id, s.n)
					note("p%d.%d holds %d of sem%d", i, j, s.n, s.id)
					m.sleep(p, s.d)
					m.release(s.id, s.n)
				case stepCall:
					note("p%d.%d replied=%v", i, j, m.call(p, s.first, s.d2, s.d))
				}
				note("p%d.%d done", i, j)
			}
		})
	}
	m.run()
	return log
}

// TestSchedulesMatchReferenceHeap is the ordering guarantee: the value-typed
// heap and the closure-free wake events — a WaitTimeout's deadline among
// them — fire every random At/After/Sleep/Mailbox/Semaphore/call schedule in
// exactly the order the container/heap kernel and its callback deadlines
// did, equal-time FIFO included.
func TestSchedulesMatchReferenceHeap(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		prog := randomSchedule(rand.New(rand.NewSource(seed)), 2+int(seed%7), 30)
		got, want := execute(realMachine(seed), prog), execute(refMachine(seed), prog)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d log lines, reference has %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: line %d is %q, reference fired %q", seed, i, got[i], want[i])
			}
		}
		steps := 0
		for _, p := range prog {
			steps += len(p)
		}
		if len(want) < steps {
			t.Fatalf("seed %d: schedule deadlocked: %d log lines for %d steps", seed, len(want), steps)
		}
	}
}

// The heap alone, under interleaved pushes and pops of heavily colliding
// times, against container/heap.
func TestEventHeapPopsLikeContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h eventHeap
	var ref refHeap
	var seq uint64
	for i := 0; i < 20000; i++ {
		if len(ref) == 0 || rng.Intn(5) < 3 {
			seq++
			at := Time(rng.Intn(16))
			h.push(event{at: at, seq: seq})
			heap.Push(&ref, &refEvent{at: at, seq: seq})
			continue
		}
		got, want := h.pop(), heap.Pop(&ref).(*refEvent)
		if got.at != want.at || got.seq != want.seq {
			t.Fatalf("op %d: popped (%d,%d), container/heap pops (%d,%d)", i, got.at, got.seq, want.at, want.seq)
		}
	}
	for len(ref) > 0 {
		got, want := h.pop(), heap.Pop(&ref).(*refEvent)
		if got.at != want.at || got.seq != want.seq {
			t.Fatalf("drain: popped (%d,%d), container/heap pops (%d,%d)", got.at, got.seq, want.at, want.seq)
		}
	}
	if len(h) != 0 {
		t.Fatalf("%d events left after the reference drained", len(h))
	}
}

// Steady state, the scheduler core allocates nothing: a callback event is a
// value in the queue's backing array, and a sleep's wake-up is the same
// value carrying (proc, gen) instead of a closure.
func TestSchedulerCoreAllocatesNothing(t *testing.T) {
	k := NewKernel(1)
	defer k.Close()
	fn := func() {}
	for i := 0; i < 64; i++ { // grow the queue once
		k.After(Duration(i), fn)
	}
	k.Run()
	if n := testing.AllocsPerRun(1000, func() {
		k.After(Microsecond, fn)
		k.Run()
	}); n != 0 {
		t.Errorf("Kernel.After + pop: %v allocs per event, want 0", n)
	}

	k.Go("sleeper", func(p *Proc) {
		for {
			p.Sleep(Microsecond)
		}
	})
	k.RunFor(10 * Microsecond)
	if n := testing.AllocsPerRun(1000, func() { k.RunFor(Microsecond) }); n != 0 {
		t.Errorf("Proc.Sleep round trip: %v allocs, want 0", n)
	}
}

// stepProg is one body of the step-process scenario: ops to run in order,
// each an acquire of n of the semaphore's permits, a sleep of d and a
// release in two halves — two kicks when the first half already serves the
// queue's head. A body with cont continues into a coroutine before op
// cont-1 (0: never). It runs either as an ordinary process (coroutine) or as
// a step process (step); log records (time, events scheduled, body, op).
type stepProg struct {
	k    *Kernel
	sem  *Semaphore
	log  *[]string
	name string
	ops  []stepOp
	cont int
	j    int // the op in progress
	at   int // a step's place in it: 0 before the acquire, 1 in it, 2 in the sleep
}

type stepOp struct {
	n int
	d Duration
}

func (b *stepProg) note(what string) {
	*b.log = append(*b.log, fmt.Sprintf("t=%d seq=%d %s.%d %s", b.k.now, b.k.Events(), b.name, b.j, what))
}

func (b *stepProg) release(n int) {
	b.sem.Release(n / 2)
	b.sem.Release(n - n/2)
}

func (b *stepProg) coroutine(p *Proc) {
	for ; b.j < len(b.ops); b.j++ {
		op := b.ops[b.j]
		b.sem.Acquire(p, op.n)
		b.note("holds")
		p.Sleep(op.d)
		b.release(op.n)
		b.note("done")
	}
}

func (b *stepProg) step(p *Proc) {
	for b.j < len(b.ops) {
		op := b.ops[b.j]
		switch b.at {
		case 0:
			if b.cont == b.j+1 {
				p.Continue(b.coroutine)
				return
			}
			b.at = 1
			fallthrough
		case 1:
			if !b.sem.AcquireStep(p, op.n) {
				return
			}
			b.note("holds")
			b.at = 2
			p.SleepStep(op.d)
			return
		case 2:
			b.release(op.n)
			b.note("done")
			b.j, b.at = b.j+1, 0
		}
	}
}

// runStepScenario runs the seed's bodies, as step processes when steps is
// set, on a 4-slot semaphore: half start at once, the rest from callbacks at
// later instants. It returns the log and the coroutine resumes.
func runStepScenario(seed int64, steps bool) ([]string, uint64) {
	rng := rand.New(rand.NewSource(seed))
	k := NewKernel(seed)
	defer k.Close()
	sem := NewSemaphore(k, 4)
	var log []string
	for i := range 12 {
		b := &stepProg{k: k, sem: sem, log: &log, name: fmt.Sprintf("b%d", i)}
		for range 1 + rng.Intn(4) {
			b.ops = append(b.ops, stepOp{n: 1 + rng.Intn(4), d: Duration(rng.Intn(3)) * Microsecond})
		}
		if rng.Intn(3) == 0 {
			b.cont = 1 + rng.Intn(len(b.ops))
		}
		spawn := func() {
			if steps {
				k.Step(b.name, b.step)
			} else {
				k.Go(b.name, b.coroutine)
			}
		}
		if i%2 == 0 {
			spawn()
		} else {
			k.At(Time(rng.Intn(4))*Time(Microsecond), spawn)
		}
	}
	k.Run()
	return log, k.Resumes()
}

// A step process is event for event the coroutine it stands for: bodies
// that contend for a semaphore, are kicked twice at its head, sleep, release
// and continue into coroutines mid-body log the same (time, events, body)
// lines either way. A Continue that scheduled a start event, or a step woken
// by the stale second kick of a pair, would move a line.
func TestStepProcessesMatchCoroutines(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		want, coResumes := runStepScenario(seed, false)
		got, stepResumes := runStepScenario(seed, true)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d log lines as steps, %d as coroutines", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: line %d is %q as steps, %q as coroutines", seed, i, got[i], want[i])
			}
		}
		if stepResumes >= coResumes {
			t.Fatalf("seed %d: %d coroutine resumes as steps, %d as coroutines", seed, stepResumes, coResumes)
		}
	}
}
