package simnet

import (
	"errors"
	"runtime"
	"testing"

	"repro/internal/sim"
)

// deadlinePolicy is the coherence engine's: a 2 s deadline on every attempt.
var deadlinePolicy = RetryPolicy{Timeout: 2 * sim.Second, Attempts: 3, Backoff: 500 * sim.Microsecond}

// deadlineLink answers a call in 2 µs: 100,000 calls fit ten times into one
// deadline, so none of their deadlines comes due while a test counts them.
var deadlineLink = LinkSpec{Latency: sim.Microsecond}

// completeCalls makes n calls in a row to a server behind deadlineLink, under
// deadlinePolicy, and leaves the kernel at the instant the last one returned.
func completeCalls(tb testing.TB, k *sim.Kernel, cli *Conn, n int) {
	k.Go("caller", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			if _, err := cli.CallRetry(p, "s", "ping", nil, 64, deadlinePolicy); err != nil {
				tb.Errorf("call %d: %v", i, err)
				return
			}
		}
	})
	k.RunFor(sim.Duration(n) * 2 * deadlineLink.Latency)
}

func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// A completed call leaves nothing behind — no future, reply or closure held
// by an armed deadline: 100,000 of them, all inside one deadline, leave the
// kernel's queue and the heap where they were.
func TestCompletedCallsLeaveNothingBehind(t *testing.T) {
	const calls = 100_000
	k := sim.NewKernel(1)
	defer k.Close()
	_, cli, srv := rpcPair(k, deadlineLink)
	srv.Register("ping", func(p *sim.Proc, from Addr, args any) (any, int) { return make([]byte, 4096), 4096 })
	completeCalls(t, k, cli, calls) // grows the queue's array to its working size
	base := heapAfterGC()
	for rep := 1; rep <= 3; rep++ {
		completeCalls(t, k, cli, calls)
		if got := k.Pending(); got > calls/50 {
			t.Fatalf("repeat %d: %d events queued after %d completed calls, want a bounded residue", rep, got, calls)
		}
		if got := heapAfterGC(); got > base+256<<10 {
			t.Fatalf("repeat %d: live heap %d KiB, %d KiB after the first %d calls", rep, got>>10, base>>10, calls)
		}
	}
	if st := cli.Stats(); st.Calls != 4*calls || st.Timeouts != 0 || len(cli.pending) != 0 {
		t.Fatalf("stats = %+v, pending = %d, want %d clean calls and nothing pending", st, len(cli.pending), 4*calls)
	}
	if k.Now() >= sim.Time(deadlinePolicy.Timeout) {
		t.Fatalf("test ran to %v: the first deadlines have passed, and would have popped anyway", k.Now())
	}
}

// A reply that lands on the deadline's very instant loses to it, as it did
// when the deadline was a callback scheduled ahead of the reply's delivery;
// the late reply then finds nothing pending.
func TestCallDeadlineWinsTie(t *testing.T) {
	k := sim.NewKernel(1)
	_, cli, srv := rpcPair(k, LinkSpec{Latency: sim.Millisecond})
	srv.Register("ping", func(p *sim.Proc, from Addr, args any) (any, int) { return "pong", 0 })
	var tie, late error
	var reply any
	k.Go("caller", func(p *sim.Proc) {
		_, tie = cli.CallTimeout(p, "s", "ping", nil, 0, 2*sim.Millisecond)
		reply, late = cli.CallTimeout(p, "s", "ping", nil, 0, 2*sim.Millisecond+1)
	})
	k.Run()
	if !errors.Is(tie, ErrTimeout) {
		t.Fatalf("reply at the deadline's instant: err = %v, want ErrTimeout", tie)
	}
	if late != nil || reply != "pong" {
		t.Fatalf("reply 1 ns inside the deadline: (%v, %v), want pong", reply, late)
	}
	if st := cli.Stats(); st.Timeouts != 1 || len(cli.pending) != 0 {
		t.Fatalf("stats = %+v, pending = %d, want 1 timeout and nothing pending", st, len(cli.pending))
	}
}

// Eviction notices, replica drops and invalidations are casts, and nothing
// completes a cast: 10,000 of them under E11's fault plan, which loses,
// duplicates and delays requests and replies alike, leave no entry on either
// connection.
func TestCastsLeaveNothingPendingUnderLoss(t *testing.T) {
	const casts = 10_000
	k := sim.NewKernel(1)
	n, cli, srv := rpcPair(k, FC2G)
	n.SetFaultsAll(FaultPlan{DropProb: 0.01, DupProb: 0.005, DelayProb: 0.05, MaxExtraDelay: 5 * sim.Millisecond})
	srv.Register("coh.evict", func(p *sim.Proc, from Addr, args any) (any, int) { return nil, 0 })
	k.Go("evictor", func(p *sim.Proc) {
		for i := 0; i < casts; i++ {
			cli.Cast(p, "s", "coh.evict", i, 64)
			p.Sleep(10 * sim.Microsecond)
		}
	})
	k.Run()
	if n.Faults.Dropped == 0 || n.Faults.Duplicated == 0 {
		t.Fatalf("fault plan injected %+v: the test needs lost and duplicated messages", n.Faults)
	}
	if served := srv.served; served == 0 || served >= casts {
		t.Fatalf("served %d of %d notices, want some lost and every duplicate suppressed", served, casts)
	}
	if len(cli.pending) != 0 || len(srv.pending) != 0 {
		t.Fatalf("pending: caller %d, callee %d, want 0 and 0", len(cli.pending), len(srv.pending))
	}
}

// BenchmarkCallDeadline is the call path the coherence engine takes: every
// attempt under a deadline that almost never fires. bench/'s simnet.rpc_*
// driver calls Call with no deadline and cannot see this path. It reports
// the events left queued at the end, per call.
func BenchmarkCallDeadline(b *testing.B) {
	k := sim.NewKernel(1)
	defer k.Close()
	_, cli, srv := rpcPair(k, deadlineLink)
	reply := make([]byte, 4096)
	srv.Register("ping", func(p *sim.Proc, from Addr, args any) (any, int) { return reply, len(reply) })
	completeCalls(b, k, cli, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	completeCalls(b, k, cli, b.N)
	b.StopTimer()
	b.ReportMetric(float64(k.Pending())/float64(b.N), "pending/op")
}

// A call that timed out gives its reply future back, and the caller's next
// call waits on it under a new id. The first call's reply, landing while the
// second waits, must find nothing pending: the second returns its own reply.
func TestLateReplyDoesNotReachReusedFuture(t *testing.T) {
	k := sim.NewKernel(1)
	defer k.Close()
	_, cli, srv := rpcPair(k, LinkSpec{Latency: sim.Millisecond})
	srv.Register("echo", func(p *sim.Proc, from Addr, args any) (any, int) {
		p.Sleep(args.(sim.Duration))
		return args, 0
	})
	var first, second error
	var reply any
	var at sim.Time
	k.Go("caller", func(p *sim.Proc) {
		// The reply to the first lands at 7 ms, while the second waits.
		_, first = cli.CallTimeout(p, "s", "echo", 5*sim.Millisecond, 0, 3*sim.Millisecond)
		reply, second = cli.CallTimeout(p, "s", "echo", 10*sim.Millisecond, 0, 50*sim.Millisecond)
		at = p.Now()
	})
	k.Run()
	if cli.replies.Len() != 1 {
		t.Fatalf("%d reply futures on the free list after two calls, want 1: the test exercises nothing", cli.replies.Len())
	}
	if !errors.Is(first, ErrTimeout) {
		t.Fatalf("first call: err = %v, want ErrTimeout", first)
	}
	if second != nil || reply != 10*sim.Millisecond || at != sim.Time(15*sim.Millisecond) {
		t.Fatalf("second call: (%v, %v) at %v, want its own reply (10ms) at 15ms", reply, second, sim.Duration(at))
	}
}

// A fault-free round trip on a warm kernel allocates what its two messages
// carry, here nothing: the request and the reply travel by value in their
// messages, and the handler's Proc and start record, both deliveries and the
// reply future come from free lists.
func TestRPCRoundTripAllocations(t *testing.T) {
	k := sim.NewKernel(1)
	defer k.Close()
	_, cli, srv := rpcPair(k, FC2G)
	srv.Register("echo", func(*sim.Proc, Addr, any) (any, int) { return nil, 64 })
	next := sim.NewMailbox[int](k)
	k.Go("caller", func(p *sim.Proc) {
		for {
			next.Recv(p)
			if _, err := cli.Call(p, "s", "echo", nil, 64); err != nil {
				t.Error(err)
				return
			}
		}
	})
	round := func() {
		next.Send(1)
		k.Run()
	}
	round()
	if n := testing.AllocsPerRun(1000, round); n != 0 {
		t.Errorf("warm fault-free round trip: %v allocs, want 0", n)
	}
	if st := cli.Stats(); st.Calls != 1002 || len(cli.pending) != 0 {
		t.Errorf("stats = %+v, pending = %d, want 1002 calls and nothing pending", st, len(cli.pending))
	}
}
