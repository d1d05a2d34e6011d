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

// Steady-state ceilings of the proc machinery, in allocations: a spawn on a
// warm pool pays for its Proc and nothing else (a coroutine costs 11), and
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
	}); n > 1 {
		t.Errorf("warm Kernel.Go + exit: %v allocs, want ≤ 1 (the Proc)", n)
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
