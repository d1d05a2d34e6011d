package sim

import (
	"runtime"
	"strings"
	"testing"
)

// A proc that was spawned but never woken has no runner and no stack: Close
// must drop it without running a line of its body. (With a goroutine per
// proc, Close ran every such body up to its first blocking call — after the
// kernel was closed — and left the goroutine parked forever.)
func TestCloseDropsUnstartedProcs(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel(1)
	ran := 0
	for i := 0; i < 10; i++ {
		k.Go("never", func(p *Proc) {
			ran++
			p.Sleep(Second)
		})
	}
	k.Close()
	if ran != 0 {
		t.Errorf("%d bodies ran after Close with no Run", ran)
	}
	if n := runtime.NumGoroutine(); n != base {
		t.Errorf("goroutines %d → %d across Go ×10 + Close", base, n)
	}
}

// Close ends started procs (through their deferred calls), the runners
// parked on the free list, and leaves no goroutine behind either way.
func TestCloseEndsRunners(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel(1)
	mb := NewMailbox[int](k)
	unwound := 0
	for i := 0; i < 8; i++ {
		k.Go("stuck", func(p *Proc) {
			defer func() { unwound++ }()
			mb.Recv(p)
		})
		k.Go("done", func(p *Proc) { p.Sleep(Microsecond) })
	}
	k.RunFor(Millisecond)
	if len(k.idle) == 0 {
		t.Fatal("no idle runner to close: the test exercises nothing")
	}
	k.Close()
	if unwound != 8 {
		t.Errorf("%d/8 blocked procs unwound", unwound)
	}
	if n := runtime.NumGoroutine(); n != base {
		t.Errorf("goroutines %d → %d across Close", base, n)
	}
}

// A panic of a body's own is not swallowed by the runner: it comes out of
// Kernel.Run on the caller's goroutine, where a test can recover it, and
// carries the proc's name.
func TestProcPanicSurfacesFromRun(t *testing.T) {
	k := NewKernel(1)
	defer k.Close()
	k.Go("bystander", func(p *Proc) { p.Sleep(Second) })
	k.Go("culprit", func(p *Proc) {
		p.Sleep(Millisecond)
		panic("boom")
	})
	var got any
	func() {
		defer func() { got = recover() }()
		k.Run()
	}()
	msg, _ := got.(string)
	if !strings.Contains(msg, `"culprit"`) || !strings.Contains(msg, "boom") {
		t.Fatalf("Run panicked with %v, want the proc's name and its panic value", got)
	}
}

// busyRunners is the number of started, unfinished procs.
func busyRunners(k *Kernel) int { return k.runners - len(k.idle) }

// A burst of concurrent procs must not pin its runners (and their stacks)
// for the rest of the run: once the burst has drained, surplus runners end.
func TestRunnerPoolShrinksAfterBurst(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel(1)
	defer k.Close()
	const burst = 10_000
	spawn := func(n int) {
		for i := 0; i < n; i++ {
			k.Go("burst", func(p *Proc) { p.Sleep(Millisecond) })
		}
	}
	for i := 0; i < 4; i++ {
		k.Go("daemon", func(p *Proc) { NewMailbox[int](k).Recv(p) })
	}
	peak := 0
	spawn(burst)
	k.After(Millisecond/2, func() { peak = busyRunners(k) })
	k.Run() // to quiescence: only the daemons are left
	if peak != burst+4 {
		t.Fatalf("burst ran %d procs at once, want %d", peak, burst+4)
	}
	if busy := busyRunners(k); busy != 4 || len(k.idle) > busy {
		t.Errorf("quiescent kernel: %d idle runners for %d live procs", len(k.idle), busy)
	}
	if n := runtime.NumGoroutine(); n > base+8 {
		t.Errorf("goroutines %d → %d after the burst drained", base, n)
	}

	// A kernel that never goes quiescent sheds the burst as well: a steady
	// trickle of small fan-outs afterwards needs few runners, and gets to
	// keep only those.
	k.Go("ticker", func(p *Proc) {
		for {
			p.Sleep(Second)
		}
	})
	spawn(burst)
	k.RunFor(10 * Millisecond)
	k.Go("trickle", func(p *Proc) {
		for i := 0; i < 4*shedWindow*burst/8; i++ {
			spawn(8)
			p.Sleep(2 * Millisecond)
		}
	})
	k.RunFor(Duration(4*shedWindow*burst/8) * 2 * Millisecond)
	if len(k.idle) > 64 {
		t.Errorf("%d idle runners left for fan-outs of 8 after a burst of %d", len(k.idle), burst)
	}
}

// A fan-out that repeats must find its runners where the last one left
// them: steady state starts no coroutine.
func TestRunnersReusedAcrossFanOuts(t *testing.T) {
	k := NewKernel(1)
	defer k.Close()
	k.Go("parent", func(p *Proc) {
		for {
			g := NewGroup(k)
			for i := 0; i < 64; i++ {
				g.Add(1)
				k.Go("child", func(q *Proc) {
					q.Sleep(Microsecond)
					g.Done()
				})
			}
			g.Wait(p)
			p.Sleep(Millisecond)
		}
	})
	k.RunFor(100 * Millisecond)
	if len(k.idle) != 64 || k.runners != 65 {
		t.Fatalf("%d runners, %d idle after warm-up, want 65 and 64", k.runners, len(k.idle))
	}
	warm := make(map[*runner]bool)
	for _, r := range k.idle {
		warm[r] = true
	}
	k.RunFor(Second)
	for _, r := range k.idle {
		if !warm[r] {
			t.Fatal("a fan-out in steady state started a new runner")
		}
	}
	if len(k.idle) != 64 || k.runners != 65 {
		t.Errorf("%d runners, %d idle in steady state, want 65 and 64", k.runners, len(k.idle))
	}
}

// A wide fork that comes round only after hundreds of lone processes keeps
// its runners once warm, while a one-off burst gives its runners back: the
// pool remembers the busiest of its recent windows, measured in the work
// done since, not in the runners a burst left behind.
func TestRecurringForkKeepsRunnersOneOffBurstIsShed(t *testing.T) {
	k := NewKernel(1)
	defer k.Close()
	nap := func(q *Proc) { q.Sleep(Microsecond) }
	k.Go("parent", func(p *Proc) {
		for {
			Fork(p, "wide", 64, func(q *Proc, i int) error { nap(q); return nil })
			for range 300 {
				k.Go("single", nap)
				p.Sleep(Millisecond)
			}
		}
	})
	k.RunFor(Second) // warm-up: three forks
	built := k.RunnersBuilt()
	k.RunFor(10 * Second)
	if n := k.RunnersBuilt() - built; n > 0 {
		t.Errorf("a recurring fork of 64 built %d runners once warm", n)
	}
	steady := k.Runners()
	for range 10_000 {
		k.Go("burst", nap)
	}
	k.RunFor(60 * Second)
	if n := k.Runners(); n > 2*steady {
		t.Errorf("%d runners a minute after a one-off burst, steady peak %d", n, steady)
	}
}

// Step processes that take their runner late must not churn the pool: a
// fan-out of 64 step processes, of which 8 — and every fourth round 32 —
// continue into coroutines, keeps the runners its largest round needs once
// it is warm. (Judged by process exits, the pool's window closed every two
// rounds, and the rounds of 8 shed the runners the next round of 32 needed.)
func TestStepStreamReusesRunners(t *testing.T) {
	k := NewKernel(1)
	defer k.Close()
	k.Go("ticker", func(p *Proc) {
		for {
			p.Sleep(Second)
		}
	})
	var warm map[*runner]bool
	fresh := 0 // runners first seen idle after warm-up
	k.Go("parent", func(p *Proc) {
		g := NewGroup(k)
		for round := 0; ; round++ {
			continuing := 8
			if round%4 == 0 {
				continuing = 32
			}
			for i := 0; i < 64; i++ {
				g.Add(1)
				k.Step("child", func(q *Proc) {
					if i < continuing {
						q.Continue(func(q *Proc) {
							q.Sleep(Microsecond)
							g.Done()
						})
						return
					}
					g.Done()
				})
			}
			g.Wait(p)
			switch {
			case round == 100:
				warm = make(map[*runner]bool)
				for _, r := range k.idle {
					warm[r] = true
				}
			case round > 100:
				for _, r := range k.idle {
					if !warm[r] {
						warm[r] = true
						fresh++
					}
				}
			}
			p.Sleep(Millisecond)
		}
	})
	k.RunFor(Second)
	if warm == nil {
		t.Fatal("the stream never warmed up")
	}
	if fresh > 0 {
		t.Errorf("a steady stream of step processes started %d new runners", fresh)
	}
}

// Steady-state ceilings of the proc machinery, in allocations: a spawn on a
// warm pool allocates nothing (a coroutine costs 11, a Proc one), and
// neither a sleep nor a mailbox hand-off allocates.
func TestProcMachineryAllocations(t *testing.T) {
	k := NewKernel(1)
	defer k.Close()
	// One parked proc, as every simulated system has: a kernel with none
	// keeps no runner across a Run that drains its queue.
	k.Go("daemon", func(p *Proc) { NewMailbox[int](k).Recv(p) })
	body := func(p *Proc) {}
	k.Go("warm", body)
	k.Run()
	if n := testing.AllocsPerRun(1000, func() {
		k.Go("spawn", body)
		k.Run()
	}); n != 0 {
		t.Errorf("warm Kernel.Go + exit: %v allocs, want 0", n)
	}

	ping, pong := NewMailbox[int](k), NewMailbox[int](k)
	k.Go("echo", func(p *Proc) {
		for {
			pong.Send(ping.Recv(p))
		}
	})
	k.Go("caller", func(p *Proc) {
		for {
			p.Sleep(Microsecond)
			ping.Send(1)
			pong.Recv(p)
		}
	})
	k.RunFor(100 * Microsecond)
	if n := testing.AllocsPerRun(1000, func() { k.RunFor(Microsecond) }); n != 0 {
		t.Errorf("Sleep + mailbox round trip: %v allocs, want 0", n)
	}
}

// A warm Fork allocates nothing, however many items there are: its join and
// the method value its items run come from the kernel's spare list, and no
// item needs a closure or, on a warm pool, a Proc.
func TestForkAllocationsDoNotGrowWithItems(t *testing.T) {
	k := NewKernel(1)
	defer k.Close()
	// A ticker keeps the queue from draining, so no Run is quiescent and
	// the runners a fork used stay for the next.
	k.Go("ticker", func(p *Proc) {
		for {
			p.Sleep(Second)
		}
	})
	req := NewMailbox[int](k)
	items := 0
	item := func(q *Proc, i int) error {
		items++
		return nil
	}
	k.Go("parent", func(p *Proc) {
		for {
			Fork(p, "item", req.Recv(p), item)
		}
	})
	allocs := func(n int) float64 {
		req.Send(n)
		k.RunFor(Nanosecond) // warm: the runners and Procs for n items
		return testing.AllocsPerRun(100, func() {
			req.Send(n)
			k.RunFor(Nanosecond)
		})
	}
	one, many := allocs(1), allocs(64)
	if one != 0 || many != 0 {
		t.Errorf("Fork: %v allocs for 1 item, %v for 64; want 0", one, many)
	}
	if want := 102*1 + 102*64; items != want {
		t.Fatalf("%d items ran, want %d", items, want)
	}
}

// A reused Proc keeps its gen. Here a WaitTimeout's deadline is still queued
// when its proc's body returns; the next Go reuses that Proc, and the next
// life sleeps across the old deadline's instant. With gen reset on reuse the
// deadline would name the new life's blocking period and wake it early.
func TestReusedProcIgnoresLastLifesDeadline(t *testing.T) {
	k := NewKernel(1)
	defer k.Close()
	f := NewFuture[int](k)
	first := k.Go("waiter", func(p *Proc) {
		if _, ok := f.WaitTimeout(p, 10*Millisecond); !ok {
			t.Error("the future set at 1ms timed out")
		}
	})
	k.After(Millisecond, func() { f.Set(1) })
	k.RunFor(2 * Millisecond) // the waiter has exited; its deadline is queued
	var woke Time
	second := k.Go("sleeper", func(p *Proc) {
		p.Sleep(20 * Millisecond)
		woke = p.Now()
	})
	if second != first {
		t.Fatal("the second Go made a new Proc: the test exercises nothing")
	}
	k.Run()
	if want := Time(22 * Millisecond); woke != want {
		t.Errorf("the reused proc woke at %v, want %v", Duration(woke), Duration(want))
	}
}

// A proc that Close killed is never reused, Close drops the spare list, and
// a kernel closed with spare procs leaves no goroutine behind.
func TestCloseWithSpareProcs(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel(1)
	mb := NewMailbox[int](k)
	stuck := k.Go("stuck", func(p *Proc) { mb.Recv(p) })
	for i := 0; i < 8; i++ {
		k.Go("done", func(p *Proc) { p.Sleep(Microsecond) })
	}
	k.After(Second, func() {}) // not quiescent: nothing is shed
	k.RunFor(Millisecond)
	if k.spare.Len() != 8 {
		t.Fatalf("%d spare procs after 8 exits, want 8", k.spare.Len())
	}
	k.Close()
	if k.spare.Len() != 0 {
		t.Errorf("%d spare procs after Close", k.spare.Len())
	}
	if p := k.Go("after", func(p *Proc) {}); p == stuck {
		t.Error("Go after Close reused the proc Close killed")
	}
	if n := runtime.NumGoroutine(); n != base {
		t.Errorf("goroutines %d → %d across Close", base, n)
	}
}

// The spare procs go with the idle runners they would start on: once a
// burst has drained and its runners are shed, so are its Procs.
func TestSpareProcsShedWithRunners(t *testing.T) {
	k := NewKernel(1)
	defer k.Close()
	k.Go("daemon", func(p *Proc) { NewMailbox[int](k).Recv(p) })
	for i := 0; i < 1000; i++ {
		k.Go("burst", func(p *Proc) { p.Sleep(Millisecond) })
	}
	k.Run()
	if k.spare.Len() > len(k.idle) {
		t.Errorf("%d spare procs kept for %d idle runners", k.spare.Len(), len(k.idle))
	}
}

// fifo keeps FIFO order and a bounded array whether it drains or not.
func TestFifoReusesItsArray(t *testing.T) {
	var q fifo[int]
	next, want := 0, 0
	for round := 0; round < 1000; round++ {
		for i := 0; i < 3; i++ { // never empty after the first round
			q.push(next)
			next++
		}
		for i := 0; i < 3-(1-min(round, 1)); i++ {
			if got := q.pop(); got != want {
				t.Fatalf("popped %d, want %d", got, want)
			}
			want++
		}
	}
	if q.len() != 1 || cap(q.buf) > 16 {
		t.Errorf("len %d cap %d after 1000 rounds with ≤ 4 queued", q.len(), cap(q.buf))
	}
}
