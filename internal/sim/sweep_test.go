package sim

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

func TestWaitTimeoutReturnsValueSetInTime(t *testing.T) {
	k := NewKernel(1)
	f := NewFuture[int](k)
	k.After(Millisecond, func() { f.Set(7) })
	var got int
	var ok bool
	var at Time
	k.Go("waiter", func(p *Proc) {
		got, ok = f.WaitTimeout(p, Second)
		at = p.Now()
		// An already-set future answers without blocking.
		if v, ok := f.WaitTimeout(p, Second); v != 7 || !ok || p.Now() != at {
			t.Errorf("second wait = (%d, %v) at %v, want (7, true) at %v", v, ok, p.Now(), at)
		}
	})
	k.Run()
	if got != 7 || !ok || at != Time(Millisecond) {
		t.Fatalf("WaitTimeout = (%d, %v) at %v, want (7, true) at 1ms", got, ok, at)
	}
	// Run drains the stale deadline too, swept or popped: the clock ends there.
	if k.Now() != Time(Second) {
		t.Fatalf("clock ended at %v, want the deadline's 1s", k.Now())
	}
}

func TestWaitTimeoutTimesOutAndLeavesTheFuture(t *testing.T) {
	k := NewKernel(1)
	f := NewFuture[int](k)
	var ok bool
	var at, sleptUntil Time
	k.Go("waiter", func(p *Proc) {
		_, ok = f.WaitTimeout(p, Millisecond)
		at = p.Now()
		if len(f.waiters) != 0 {
			t.Errorf("%d waiters on the future after a timeout, want 0", len(f.waiters))
		}
		p.Sleep(10 * Millisecond) // a late Set must not cut this short
		sleptUntil = p.Now()
	})
	k.After(2*Millisecond, func() { f.Set(1) })
	k.Run()
	if ok || at != Time(Millisecond) {
		t.Fatalf("WaitTimeout ok=%v at %v, want a timeout at 1ms", ok, at)
	}
	if sleptUntil != Time(11*Millisecond) {
		t.Fatalf("sleep after the timeout ended at %v, want 11ms", sleptUntil)
	}
}

// A deadline and a Set that fall on the same instant go to whichever was
// scheduled first, as when the deadline was a callback.
func TestWaitTimeoutSameInstantTie(t *testing.T) {
	for _, setFirst := range []bool{false, true} {
		k := NewKernel(1)
		f := NewFuture[int](k)
		if setFirst {
			k.After(Millisecond, func() { f.Set(1) })
		}
		var ok bool
		k.Go("waiter", func(p *Proc) {
			if !setFirst {
				// Runs once the waiter has parked, so behind its deadline.
				k.After(0, func() { k.After(Millisecond, func() { f.Set(1) }) })
			}
			_, ok = f.WaitTimeout(p, Millisecond)
		})
		k.Run()
		if ok != setFirst {
			t.Errorf("Set scheduled first = %v: WaitTimeout ok = %v", setFirst, ok)
		}
	}
}

func TestWaitTimeoutSurvivesClose(t *testing.T) {
	k := NewKernel(1)
	f := NewFuture[int](k)
	unwound, returned := false, false
	k.Go("waiter", func(p *Proc) {
		defer func() { unwound = true }()
		f.WaitTimeout(p, Second)
		returned = true
	})
	k.RunFor(Millisecond)
	k.Close()
	if !unwound || returned {
		t.Fatalf("parked waiter at Close: unwound=%v returned=%v, want true, false", unwound, returned)
	}
}

// sweepMode drives a real machine with the sweep forced before every
// operation that can schedule, or never run.
type sweepMode int

const (
	sweepDefault sweepMode = iota
	sweepAlways
	sweepNever
)

func sweepingMachine(seed int64, mode sweepMode) (machine, *Kernel) {
	m, k := realMachineOn(seed)
	arm := func() {
		switch mode {
		case sweepAlways:
			k.sweepAt = 0
		case sweepNever:
			k.sweepAt = math.MaxInt
		}
	}
	arm()
	at, spawn, sleep, send, recv, acquire, release, call := m.at, m.spawn, m.sleep, m.send, m.recv, m.acquire, m.release, m.call
	m.at = func(t Time, fn func()) { arm(); at(t, fn) }
	m.spawn = func(name string, fn func(p *Proc)) { arm(); spawn(name, fn) }
	m.sleep = func(p *Proc, d Duration) { arm(); sleep(p, d) }
	m.send = func(mb, v int) { arm(); send(mb, v) }
	m.recv = func(p *Proc, mb int) int { arm(); return recv(p, mb) }
	m.acquire = func(p *Proc, sem, n int) { arm(); acquire(p, sem, n) }
	m.release = func(sem, n int) { arm(); release(sem, n) }
	m.call = func(p *Proc, replyFirst bool, setDelay, deadline Duration) bool {
		arm()
		return call(p, replyFirst, setDelay, deadline)
	}
	return m, k
}

// Sweeping moves nothing a run can observe: every random schedule logs the
// same lines in the same order and ends at the same time whether the stale
// wake-ups are swept at every opportunity, at the kernel's own pace, or left
// to pop as no-ops.
func TestSweepKeepsPopOrderAndClock(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		prog := randomSchedule(rand.New(rand.NewSource(seed)), 2+int(seed%7), 60)
		never, kn := sweepingMachine(seed, sweepNever)
		want := execute(never, prog)
		for _, mode := range []sweepMode{sweepAlways, sweepDefault} {
			m, k := sweepingMachine(seed, mode)
			got := execute(m, prog)
			if k.Now() != kn.Now() {
				t.Fatalf("seed %d mode %d: run ended at %v, unswept at %v", seed, mode, k.Now(), kn.Now())
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d mode %d: %d log lines, unswept run has %d", seed, mode, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d mode %d: line %d is %q, unswept run fired %q", seed, mode, i, got[i], want[i])
				}
			}
		}
	}
}

// The sweep itself: the stale wake-ups go, the live ones and the callbacks
// stay and pop in key order, and the clock still reaches the last stale one.
func TestSweepDropsOnlyStaleWakeups(t *testing.T) {
	k := NewKernel(1)
	k.sweepAt = math.MaxInt
	var fired []int
	for i := 0; i < 50; i++ {
		f := NewFuture[int](k)
		k.After(Duration(i+1)*Microsecond, func() { f.Set(i) })
		k.Go("caller", func(p *Proc) {
			f.WaitTimeout(p, Second+Duration(i)*Millisecond) // stale once the reply lands
			p.Sleep(Millisecond)                             // live at the sweep
			fired = append(fired, i)
		})
	}
	k.After(2*Millisecond, func() { fired = append(fired, -1) })
	k.RunFor(100 * Microsecond)
	if got := k.Pending(); got != 101 {
		t.Fatalf("%d events queued before the sweep, want 50 deadlines + 50 sleeps + 1 callback", got)
	}
	k.sweep()
	if got := k.Pending(); got != 51 {
		t.Fatalf("%d events queued after the sweep, want the 50 sleeps + 1 callback", got)
	}
	k.Run()
	if len(fired) != 51 || fired[50] != -1 {
		t.Fatalf("fired %v, want the 50 sleepers and then the callback", fired)
	}
	for i := 0; i < 50; i++ {
		if fired[i] != i {
			t.Fatalf("sleeper %d woke in position %d", fired[i], i)
		}
	}
	if want := Time(Second + 49*Millisecond); k.Now() != want {
		t.Fatalf("clock ended at %v, want the last swept deadline's %v", k.Now(), want)
	}
}

// completeCalls runs n waits in a row on one process, each answered 1 µs
// into a 2 s deadline.
func completeCalls(k *Kernel, n int) {
	k.Go("caller", func(p *Proc) {
		for i := 0; i < n; i++ {
			f := NewFuture[int](k)
			k.After(Microsecond, func() { f.Set(i) })
			if _, ok := f.WaitTimeout(p, 2*Second); !ok {
				panic("timed out")
			}
		}
	})
	k.RunFor(Duration(n+1) * Microsecond)
}

func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// A completed wait leaves nothing behind: 100,000 of them inside one deadline
// keep the queue within twice its live events (or the floor under which the
// kernel does not sweep), and the heap where it was.
func TestCompletedWaitsLeaveNothingBehind(t *testing.T) {
	const calls = 100_000
	k := NewKernel(1)
	defer k.Close()
	completeCalls(k, calls) // grows the queue's array to its working size
	base := heapAfterGC()
	for rep := 1; rep <= 3; rep++ {
		completeCalls(k, calls)
		live := 0
		for i := range k.events {
			if !k.events[i].stale() {
				live++
			}
		}
		if got, limit := k.Pending(), max(2*live, sweepMin); got > limit {
			t.Fatalf("repeat %d: %d events queued with %d live, want at most %d", rep, got, live, limit)
		}
		if got := heapAfterGC(); got > base+256<<10 {
			t.Fatalf("repeat %d: live heap %d KiB, %d KiB after the first %d calls", rep, got>>10, base>>10, calls)
		}
	}
	if k.Now() >= Time(2*Second) {
		t.Fatalf("test ran to %v: the first deadlines have passed, and would have popped anyway", k.Now())
	}
}
