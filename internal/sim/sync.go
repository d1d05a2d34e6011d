package sim

import "slices"

// fifo is a queue that reuses its backing array: pop advances a head index
// where re-slicing (q = q[1:]) would walk the slice off the array's end and
// make append reallocate every few pushes.
type fifo[T any] struct {
	buf  []T
	head int
}

func (q *fifo[T]) len() int { return len(q.buf) - q.head }

func (q *fifo[T]) push(v T) {
	if q.head > 0 && len(q.buf) == cap(q.buf) && q.head >= len(q.buf)/2 {
		// A queue that never drains would otherwise grow by its dead
		// prefix; at half the array the move is amortised over the pops.
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, v)
}

func (q *fifo[T]) front() T { return q.buf[q.head] }

func (q *fifo[T]) pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return v
}

// Mailbox is an unbounded FIFO queue connecting processes (and plain
// callbacks) on the same kernel. Send never blocks; Recv blocks the calling
// process until a value is available. Values are delivered in send order,
// and blocked receivers are served in arrival order.
type Mailbox[T any] struct {
	k       *Kernel
	q       fifo[T]
	waiters fifo[*Proc]
}

// NewMailbox returns an empty mailbox bound to k.
func NewMailbox[T any](k *Kernel) *Mailbox[T] {
	return &Mailbox[T]{k: k}
}

// Send enqueues v and wakes one blocked receiver, if any.
func (m *Mailbox[T]) Send(v T) {
	m.q.push(v)
	if m.waiters.len() > 0 {
		m.k.wakeAt(m.k.now, m.waiters.pop())
	}
}

// Recv blocks p until a value is available and returns it.
func (m *Mailbox[T]) Recv(p *Proc) T {
	for m.q.len() == 0 {
		m.waiters.push(p)
		p.park()
	}
	return m.q.pop()
}

// TryRecv returns the next value without blocking; ok is false if empty.
func (m *Mailbox[T]) TryRecv() (v T, ok bool) {
	if m.q.len() == 0 {
		return v, false
	}
	return m.q.pop(), true
}

// Len reports the number of queued values.
func (m *Mailbox[T]) Len() int { return m.q.len() }

// Future is a single-assignment value that processes can wait on.
// The zero Future is not usable; construct with NewFuture.
type Future[T any] struct {
	k         *Kernel
	set       bool
	v         T
	waiters   []*Proc
	callbacks []func(T)
}

// NewFuture returns an unset future bound to k.
func NewFuture[T any](k *Kernel) *Future[T] {
	return &Future[T]{k: k}
}

// Set assigns the value and wakes all waiters. Setting twice panics: a
// future models exactly-once completion (e.g. an RPC reply).
func (f *Future[T]) Set(v T) {
	if f.set {
		panic("sim: Future set twice")
	}
	f.set = true
	f.v = v
	for _, w := range f.waiters {
		f.k.wakeAt(f.k.now, w)
	}
	f.waiters = nil
	for _, cb := range f.callbacks {
		cb := cb
		f.k.At(f.k.now, func() { cb(v) })
	}
	f.callbacks = nil
}

// Done reports whether the future has been set.
func (f *Future[T]) Done() bool { return f.set }

// Wait blocks p until the future is set, then returns the value.
func (f *Future[T]) Wait(p *Proc) T {
	for !f.set {
		f.waiters = append(f.waiters, p)
		p.park()
	}
	return f.v
}

// WaitTimeout is Wait with a deadline d from now (d ≤ 0: none): ok reports
// that the future was set in time. The deadline is a wake-up of p's own,
// valid for this blocking period only, so arming it allocates nothing, a
// future set first leaves it stale (see Kernel.sweep), and a deadline that
// fires resumes p at that event's own place among the events of its instant.
// A waiter that timed out is off the future's waiter list.
func (f *Future[T]) WaitTimeout(p *Proc, d Duration) (v T, ok bool) {
	if d <= 0 {
		return f.Wait(p), true
	}
	if !f.set {
		f.waiters = append(f.waiters, p)
		f.k.wakeAt(f.k.now.Add(d), p)
		p.park()
	}
	if f.set {
		return f.v, true
	}
	f.waiters = slices.DeleteFunc(f.waiters, func(w *Proc) bool { return w == p })
	return v, false
}

// OnDone registers fn to be scheduled when the future is set. If the future
// is already set, fn is scheduled immediately.
func (f *Future[T]) OnDone(fn func(T)) {
	if f.set {
		v := f.v
		f.k.At(f.k.now, func() { fn(v) })
		return
	}
	f.callbacks = append(f.callbacks, fn)
}

// WaitAll blocks p until every future in fs is set.
func WaitAll[T any](p *Proc, fs ...*Future[T]) {
	for _, f := range fs {
		f.Wait(p)
	}
}

// Semaphore is a counting semaphore for modeling limited resources
// (e.g. controller CPU slots). Waiters acquire in FIFO order.
type Semaphore struct {
	k       *Kernel
	avail   int
	waiters fifo[semWaiter]
}

type semWaiter struct {
	p *Proc
	n int
}

// NewSemaphore returns a semaphore with n initial permits.
func NewSemaphore(k *Kernel, n int) *Semaphore {
	return &Semaphore{k: k, avail: n}
}

// Acquire blocks p until n permits are available, then takes them.
func (s *Semaphore) Acquire(p *Proc, n int) {
	if s.waiters.len() == 0 && s.avail >= n {
		s.avail -= n
		return
	}
	s.waiters.push(semWaiter{p, n})
	for {
		p.park()
		if s.waiters.len() > 0 && s.waiters.front().p == p && s.avail >= n {
			s.waiters.pop()
			s.avail -= n
			s.kick()
			return
		}
	}
}

// Release returns n permits and wakes eligible waiters.
func (s *Semaphore) Release(n int) {
	s.avail += n
	s.kick()
}

func (s *Semaphore) kick() {
	if s.waiters.len() > 0 && s.avail >= s.waiters.front().n {
		s.k.wakeAt(s.k.now, s.waiters.front().p)
	}
}

// Available reports the current number of free permits.
func (s *Semaphore) Available() int { return s.avail }

// Group counts outstanding work items, letting a process wait for all of
// them to finish — the virtual-time analogue of sync.WaitGroup.
type Group struct {
	k       *Kernel
	n       int
	waiters []*Proc
}

// NewGroup returns an empty group bound to k.
func NewGroup(k *Kernel) *Group { return &Group{k: k} }

// Add registers delta additional work items.
func (g *Group) Add(delta int) { g.n += delta }

// Done marks one work item finished.
func (g *Group) Done() {
	g.n--
	if g.n < 0 {
		panic("sim: Group counter went negative")
	}
	if g.n == 0 {
		for _, w := range g.waiters {
			g.k.wakeAt(g.k.now, w)
		}
		g.waiters = nil
	}
}

// Wait blocks p until the counter reaches zero.
func (g *Group) Wait(p *Proc) {
	for g.n > 0 {
		g.waiters = append(g.waiters, p)
		p.park()
	}
}

// Pending reports the current counter value.
func (g *Group) Pending() int { return g.n }

// Mutex serializes processes over a critical section in FIFO order.
type Mutex struct {
	sem *Semaphore
}

// NewMutex returns an unlocked mutex bound to k.
func NewMutex(k *Kernel) *Mutex { return &Mutex{sem: NewSemaphore(k, 1)} }

// Lock blocks p until the mutex is acquired.
func (m *Mutex) Lock(p *Proc) { m.sem.Acquire(p, 1) }

// Unlock releases the mutex.
func (m *Mutex) Unlock() { m.sem.Release(1) }
