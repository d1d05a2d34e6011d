package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestKernelRunsEventsInTimeOrder(t *testing.T) {
	k := NewKernel(1)
	var got []Time
	for _, d := range []Duration{5, 1, 3, 2, 4} {
		d := d
		k.After(d*Millisecond, func() { got = append(got, k.Now()) })
	}
	k.Run()
	if len(got) != 5 {
		t.Fatalf("ran %d events, want 5", len(got))
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("events out of order: %v", got)
	}
	if k.Now() != Time(5*Millisecond) {
		t.Fatalf("final time = %v, want 5ms", k.Now())
	}
}

func TestKernelEqualTimesFIFO(t *testing.T) {
	k := NewKernel(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(Time(Millisecond), func() { got = append(got, i) })
	}
	k.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d, want %d (FIFO at equal time)", i, v, i)
		}
	}
}

// Property: regardless of insertion order, events fire sorted by time.
func TestKernelOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		k := NewKernel(1)
		var fired []Time
		for _, d := range delays {
			k.After(Duration(d)*Microsecond, func() { fired = append(fired, k.Now()) })
		}
		k.Run()
		if len(fired) != len(delays) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestKernelNestedScheduling(t *testing.T) {
	k := NewKernel(1)
	var trace []string
	k.After(Millisecond, func() {
		trace = append(trace, "a")
		k.After(Millisecond, func() { trace = append(trace, "c") })
		k.After(0, func() { trace = append(trace, "b") })
	})
	k.Run()
	want := []string{"a", "b", "c"}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestKernelRunFor(t *testing.T) {
	k := NewKernel(1)
	count := 0
	for i := 1; i <= 10; i++ {
		k.At(Time(i)*Time(Second), func() { count++ })
	}
	k.RunFor(5 * Second)
	if count != 5 {
		t.Fatalf("ran %d events by t=5s, want 5", count)
	}
	if k.Now() != Time(5*Second) {
		t.Fatalf("now = %v, want 5s", k.Now())
	}
	k.RunFor(2 * Second) // the bound counts from now, not from zero
	if count != 7 || k.Now() != Time(7*Second) {
		t.Fatalf("ran %d events by now = %v, want 7 by 7s", count, k.Now())
	}
	k.Run()
	if count != 10 {
		t.Fatalf("ran %d events total, want 10", count)
	}
}

// An event for the current instant waits in the kernel's queue, not its
// heap; one the heap holds for the same instant, scheduled earlier, still
// fires first, and RunFor stops at the bound across both.
func TestKernelCurrentInstantQueueKeepsSeqOrder(t *testing.T) {
	k := NewKernel(1)
	var got []string
	log := func(s string) func() { return func() { got = append(got, s) } }
	k.At(0, log("now0")) // queued for the current instant
	k.At(Time(Millisecond), func() {
		got = append(got, "first")
		k.At(k.Now(), log("now1"))
		k.After(0, log("now2"))
	})
	k.At(Time(Millisecond), log("second"))
	k.At(Time(2*Millisecond), log("late"))
	if n := k.Pending(); n != 4 {
		t.Fatalf("Pending = %d before the run, want 4", n)
	}
	k.RunFor(Millisecond)
	want := []string{"now0", "first", "second", "now1", "now2"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("fired %v by 1ms, want %v", got, want)
	}
	if k.Now() != Time(Millisecond) || k.Pending() != 1 {
		t.Fatalf("RunFor(1ms) left now %v with %d queued, want 1ms with 1", k.Now(), k.Pending())
	}
	k.Run()
	if got[len(got)-1] != "late" || k.Now() != Time(2*Millisecond) {
		t.Fatalf("fired %v, ending at %v; want late last, at 2ms", got, k.Now())
	}
}

func TestKernelRunForAdvancesIdleClock(t *testing.T) {
	k := NewKernel(1)
	k.RunFor(3 * Second)
	if k.Now() != Time(3*Second) {
		t.Fatalf("now = %v, want 3s with empty queue", k.Now())
	}
}

func TestProcSleepAdvancesTime(t *testing.T) {
	k := NewKernel(1)
	var woke Time
	k.Go("sleeper", func(p *Proc) {
		p.Sleep(42 * Millisecond)
		woke = p.Now()
	})
	k.Run()
	if woke != Time(42*Millisecond) {
		t.Fatalf("woke at %v, want 42ms", woke)
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		k := NewKernel(7)
		var trace []string
		for _, name := range []string{"a", "b", "c"} {
			name := name
			k.Go(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					trace = append(trace, name)
					p.Sleep(Millisecond)
				}
			})
		}
		k.Run()
		return trace
	}
	first := run()
	for trial := 0; trial < 5; trial++ {
		again := run()
		if len(again) != len(first) {
			t.Fatalf("nondeterministic trace length")
		}
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("nondeterministic trace at %d: %v vs %v", i, first, again)
			}
		}
	}
}

func TestMailboxFIFO(t *testing.T) {
	k := NewKernel(1)
	mb := NewMailbox[int](k)
	var got []int
	k.Go("recv", func(p *Proc) {
		for i := 0; i < 5; i++ {
			got = append(got, mb.Recv(p))
		}
	})
	k.Go("send", func(p *Proc) {
		for i := 0; i < 5; i++ {
			mb.Send(i)
			p.Sleep(Millisecond)
		}
	})
	k.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("got %v, want 0..4 in order", got)
		}
	}
}

func TestMailboxBlocksUntilSend(t *testing.T) {
	k := NewKernel(1)
	mb := NewMailbox[string](k)
	var at Time
	k.Go("recv", func(p *Proc) {
		mb.Recv(p)
		at = p.Now()
	})
	k.After(10*Millisecond, func() { mb.Send("hi") })
	k.Run()
	if at != Time(10*Millisecond) {
		t.Fatalf("receiver resumed at %v, want 10ms", at)
	}
}

func TestMailboxManyReceiversArrivalOrder(t *testing.T) {
	k := NewKernel(1)
	mb := NewMailbox[int](k)
	var order []string
	for _, name := range []string{"r1", "r2", "r3"} {
		name := name
		k.Go(name, func(p *Proc) {
			mb.Recv(p)
			order = append(order, name)
		})
	}
	k.After(Millisecond, func() {
		mb.Send(1)
		mb.Send(2)
		mb.Send(3)
	})
	k.Run()
	want := []string{"r1", "r2", "r3"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("service order %v, want %v", order, want)
		}
	}
}

func TestFutureWaitBeforeAndAfterSet(t *testing.T) {
	k := NewKernel(1)
	f := NewFuture[int](k)
	var before, after int
	k.Go("early", func(p *Proc) { before = f.Wait(p) })
	k.After(Millisecond, func() { f.Set(99) })
	k.Go("late", func(p *Proc) {
		p.Sleep(2 * Millisecond)
		after = f.Wait(p)
	})
	k.Run()
	if before != 99 || after != 99 {
		t.Fatalf("before=%d after=%d, want 99/99", before, after)
	}
	if !f.set {
		t.Fatal("future not done")
	}
}

func TestFutureSetTwicePanics(t *testing.T) {
	k := NewKernel(1)
	f := NewFuture[int](k)
	f.Set(1)
	defer func() {
		if recover() == nil {
			t.Fatal("second Set did not panic")
		}
	}()
	f.Set(2)
}

func TestSemaphoreLimitsConcurrency(t *testing.T) {
	k := NewKernel(1)
	sem := NewSemaphore(k, 2)
	active, maxActive := 0, 0
	for i := 0; i < 6; i++ {
		k.Go("worker", func(p *Proc) {
			sem.Acquire(p, 1)
			active++
			if active > maxActive {
				maxActive = active
			}
			p.Sleep(Millisecond)
			active--
			sem.Release(1)
		})
	}
	k.Run()
	if maxActive != 2 {
		t.Fatalf("max concurrency %d, want 2", maxActive)
	}
	if sem.Available() != 2 {
		t.Fatalf("permits leaked: %d available, want 2", sem.Available())
	}
}

func TestSemaphoreFIFOFairness(t *testing.T) {
	k := NewKernel(1)
	sem := NewSemaphore(k, 0)
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		k.Go("w", func(p *Proc) {
			p.Sleep(Duration(i) * Microsecond) // stagger arrival
			sem.Acquire(p, 1)
			order = append(order, i)
		})
	}
	k.After(Millisecond, func() { sem.Release(4) })
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("acquire order %v, want FIFO", order)
		}
	}
}

func TestGroupWait(t *testing.T) {
	k := NewKernel(1)
	g := NewGroup(k)
	var doneAt Time
	for i := 1; i <= 3; i++ {
		i := i
		g.Add(1)
		k.Go("w", func(p *Proc) {
			p.Sleep(Duration(i) * Millisecond)
			g.Done()
		})
	}
	k.Go("waiter", func(p *Proc) {
		g.Wait(p)
		doneAt = p.Now()
	})
	k.Run()
	if doneAt != Time(3*Millisecond) {
		t.Fatalf("group completed at %v, want 3ms", doneAt)
	}
}

// forkIn runs body as the one process on a fresh kernel, to completion.
func forkIn(body func(k *Kernel, p *Proc)) {
	k := NewKernel(1)
	k.Go("parent", func(p *Proc) { body(k, p) })
	k.Run()
}

func TestForkStartsItemsInIndexOrder(t *testing.T) {
	var started []int
	forkIn(func(_ *Kernel, p *Proc) {
		Fork(p, "item", 5, func(q *Proc, i int) error {
			started = append(started, i)
			return nil
		})
	})
	if fmt.Sprint(started) != "[0 1 2 3 4]" {
		t.Fatalf("items started in order %v, want index order", started)
	}
}

func TestForkOfNoItemsSchedulesNoEvent(t *testing.T) {
	forkIn(func(k *Kernel, p *Proc) {
		before := k.Events()
		err := Fork(p, "item", 0, func(q *Proc, i int) error {
			t.Errorf("item %d ran", i)
			return nil
		})
		if err != nil || k.Events() != before {
			t.Errorf("Fork of 0 items: err %v, %d events scheduled, want nil and 0", err, k.Events()-before)
		}
	})
}

func TestForkRunsALoneItemOnANewProc(t *testing.T) {
	forkIn(func(_ *Kernel, p *Proc) {
		Fork(p, "item", 1, func(q *Proc, i int) error {
			if q == p {
				t.Error("the lone item ran on the forking proc")
			}
			return nil
		})
	})
}

func TestForkReturnsTheFirstErrorToComplete(t *testing.T) {
	errs := []error{errors.New("item 0"), errors.New("item 1")}
	var got error
	forkIn(func(_ *Kernel, p *Proc) {
		got = Fork(p, "item", 2, func(q *Proc, i int) error {
			q.Sleep(Duration(2-i) * Millisecond) // item 1 fails at 1 ms, item 0 at 2 ms
			return errs[i]
		})
	})
	if got != errs[1] {
		t.Fatalf("Fork returned %v, want item 1's error", got)
	}
}

func TestForkResumesAfterEveryItem(t *testing.T) {
	returned := 0
	forkIn(func(_ *Kernel, p *Proc) {
		Fork(p, "item", 3, func(q *Proc, i int) error {
			q.Sleep(Duration(3-i) * Millisecond)
			returned++
			return nil
		})
		if returned != 3 || p.Now() != Time(3*Millisecond) {
			t.Errorf("resumed at %v with %d of 3 items returned, want 3ms and 3", p.Now(), returned)
		}
	})
}

// Fork schedules exactly the events of the Group block it stands for.
func TestForkSchedulesTheEventsOfAGroupBlock(t *testing.T) {
	item := func(q *Proc, i int) { q.Sleep(Duration(i%2+1) * Millisecond) }
	events := func(fanOut func(k *Kernel, p *Proc)) (uint64, Time) {
		k := NewKernel(1)
		k.Go("parent", func(p *Proc) { fanOut(k, p) })
		k.Run()
		return k.Events(), k.Now()
	}
	for n := 0; n <= 3; n++ {
		forked, forkEnd := events(func(_ *Kernel, p *Proc) {
			Fork(p, "item", n, func(q *Proc, i int) error { item(q, i); return nil })
		})
		grouped, groupEnd := events(func(k *Kernel, p *Proc) {
			g := NewGroup(k)
			for i := range n {
				g.Add(1)
				k.Go("item", func(q *Proc) {
					defer g.Done()
					item(q, i)
				})
			}
			g.Wait(p)
		})
		if forked != grouped || forkEnd != groupEnd {
			t.Errorf("n=%d: Fork scheduled %d events ending at %v, the Group block %d ending at %v",
				n, forked, forkEnd, grouped, groupEnd)
		}
	}
}

func TestMutexMutualExclusion(t *testing.T) {
	k := NewKernel(1)
	mu := NewMutex(k)
	inside := 0
	violated := false
	for i := 0; i < 5; i++ {
		k.Go("w", func(p *Proc) {
			mu.Lock(p)
			inside++
			if inside > 1 {
				violated = true
			}
			p.Sleep(Millisecond)
			inside--
			mu.Unlock()
		})
	}
	k.Run()
	if violated {
		t.Fatal("two processes inside mutex-protected section")
	}
}

func TestCloseReleasesBlockedProcs(t *testing.T) {
	k := NewKernel(1)
	mb := NewMailbox[int](k)
	cleaned := false
	k.Go("stuck", func(p *Proc) {
		defer func() { cleaned = true }()
		mb.Recv(p) // never satisfied
	})
	k.RunFor(Millisecond)
	k.Close()
	if !cleaned {
		t.Fatal("blocked proc's defers did not run on Close")
	}
}

// Property: a stale wake event from a semaphore must never cut a later Sleep
// short. Regression guard for the wake-generation mechanism.
func TestNoStaleWakeups(t *testing.T) {
	k := NewKernel(1)
	sem := NewSemaphore(k, 0)
	var wokeAt Time
	k.Go("victim", func(p *Proc) {
		sem.Acquire(p, 1)
		p.Sleep(10 * Millisecond) // must not be shortened by a second kick
		wokeAt = p.Now()
	})
	k.After(Millisecond, func() {
		sem.Release(1) // schedules wake
		sem.Release(1) // schedules a second (stale) wake for the same proc
	})
	k.Run()
	if wokeAt != Time(11*Millisecond) {
		t.Fatalf("victim woke at %v, want 11ms (stale wake fired)", wokeAt)
	}
}

// Property: kernel RNG is deterministic per seed.
func TestDeterministicRand(t *testing.T) {
	draw := func(seed int64) []int64 {
		k := NewKernel(seed)
		out := make([]int64, 8)
		for i := range out {
			out[i] = k.Rand().Int63()
		}
		return out
	}
	a, b := draw(42), draw(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different sequences")
		}
	}
	c := draw(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical sequences")
	}
}

// Property: Duration arithmetic helpers are mutually consistent.
func TestDurationConversionsProperty(t *testing.T) {
	f := func(ms uint16) bool {
		d := Duration(ms) * Millisecond
		return d.Seconds() == float64(ms)/1000 && d.Millis() == float64(ms)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestManyProcsStress(t *testing.T) {
	k := NewKernel(99)
	rng := rand.New(rand.NewSource(5))
	total := 0
	for i := 0; i < 200; i++ {
		n := 1 + rng.Intn(10)
		k.Go("w", func(p *Proc) {
			for j := 0; j < n; j++ {
				p.Sleep(Duration(rng.Intn(1000)) * Microsecond)
			}
			total++
		})
	}
	k.Run()
	if total != 200 {
		t.Fatalf("only %d/200 procs completed", total)
	}
}

// A reset Future is an unset one: the value and the waiters of its last use
// are gone, a wait on it blocks until the next Set, and that Set does not
// panic as a second one.
func TestFutureResetForgetsLastUse(t *testing.T) {
	k := NewKernel(1)
	defer k.Close()
	f := NewFuture[*int](k)
	one, two := new(int), new(int)
	var got []*int
	k.Go("first", func(p *Proc) { got = append(got, f.Wait(p)) })
	k.After(Millisecond, func() { f.Set(one) })
	k.Run()
	f.Reset()
	if f.set || f.v != nil || len(f.waiters) != 0 {
		t.Fatalf("after Reset: set %v, value %p, %d waiters", f.set, f.v, len(f.waiters))
	}
	k.Go("early", func(p *Proc) {
		if v, ok := f.WaitTimeout(p, Millisecond); ok {
			t.Errorf("a wait on the reset future returned %p at once", v)
		}
	})
	k.Go("second", func(p *Proc) { got = append(got, f.Wait(p)) })
	k.After(2*Millisecond, func() { f.Set(two) })
	k.Run()
	if len(got) != 2 || got[0] != one || got[1] != two {
		t.Errorf("waits returned %v, want [%p %p]", got, one, two)
	}
}
