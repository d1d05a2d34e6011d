package simnet

import (
	"fmt"
	"testing"

	"repro/internal/qos"
	"repro/internal/sim"
	"repro/internal/trace"
)

// rpcPair builds a two-node network with a client and server Conn.
func rpcPair(k *sim.Kernel, spec LinkSpec) (*Network, *Conn, *Conn) {
	n := New(k)
	n.Connect("c", "s", spec)
	srv := NewConn(n, "s")
	cli := NewConn(n, "c")
	return n, cli, srv
}

// goCall issues cli.Call(dst, method) on a process of its own, started at
// the current instant, and returns the future of its reply.
func goCall(k *sim.Kernel, cli *Conn, dst Addr, method string) *sim.Future[any] {
	f := sim.NewFuture[any](k)
	k.Go("call", func(p *sim.Proc) {
		r, _ := cli.Call(p, dst, method, nil, 0)
		f.Set(r)
	})
	return f
}

// Casts must carry the caller's trace and QoS contexts exactly as
// synchronous calls do.
func TestCastPropagatesTraceAndQoS(t *testing.T) {
	k := sim.NewKernel(1)
	_, cli, srv := rpcPair(k, LinkSpec{Latency: sim.Millisecond})
	tr := trace.NewTracer(k)
	tr.SetEnabled(true)
	var seen []qos.Ctx
	srv.Register("work", func(p *sim.Proc, from Addr, args any) (any, int) {
		seen = append(seen, qos.FromProc(p))
		trace.FromProc(p).Child("handler:"+fmt.Sprint(args), trace.Disk, "s").End()
		return nil, 0
	})
	want := qos.Ctx{Tenant: "acme", Lane: 2}
	root := tr.StartTrace("op", trace.Op, "c")
	k.Go("caller", func(p *sim.Proc) {
		qos.SetCtx(p, want)
		pop := root.Push(p)
		defer pop()
		if _, err := cli.Call(p, "s", "work", "sync", 0); err != nil {
			t.Error(err)
		}
		cli.Cast(p, "s", "work", "async", 0)
	})
	k.Run()
	root.End()
	if len(seen) != 2 {
		t.Fatalf("served %d calls, want 2", len(seen))
	}
	for i, got := range seen {
		if got != want {
			t.Fatalf("handler %d qos ctx = %+v, want %+v (async must charge the caller's lane)", i, got, want)
		}
	}
	// The handler spans — and the rpc:work fabric spans above them — must
	// all join the caller's trace. The root span id doubles as the trace id.
	spans := tr.Spans()
	var rootID uint64
	for _, s := range spans {
		if s.Name == "op" {
			rootID = s.ID
		}
	}
	if rootID == 0 {
		t.Fatal("root span not recorded")
	}
	wantNames := map[string]int{"handler:sync": 0, "handler:async": 0, "rpc:work": 0}
	for _, s := range spans {
		if _, ok := wantNames[s.Name]; !ok {
			continue
		}
		wantNames[s.Name]++
		if s.Trace != rootID {
			t.Fatalf("span %q trace = %d, want %d (escaped the caller's trace)", s.Name, s.Trace, rootID)
		}
	}
	if wantNames["handler:sync"] != 1 || wantNames["handler:async"] != 1 || wantNames["rpc:work"] != 2 {
		t.Fatalf("span counts = %v, want sync=1 async=1 rpc=2", wantNames)
	}
}

// Satellite 2: the duplicate-suppression window must stay bounded no matter
// how long faults stay active.
func TestDupSuppressionBounded(t *testing.T) {
	k := sim.NewKernel(1)
	n, _, srv := rpcPair(k, LinkSpec{})
	srv.Register("noop", func(p *sim.Proc, from Addr, args any) (any, int) { return nil, 0 })
	// A plan that is "active" but never actually perturbs anything.
	n.SetFaultsAll(FaultPlan{DelayProb: 1e-12})
	total := 3 * seenGenCap
	for i := 0; i < total; i++ {
		srv.dispatch("c", envelope{id: uint64(i + 1), method: "noop"})
	}
	k.Run()
	if got := len(srv.seenCur) + len(srv.seenPrev); got > 2*seenGenCap {
		t.Fatalf("suppression window holds %d ids, want <= %d", got, 2*seenGenCap)
	}
	if srv.served != int64(total) {
		t.Fatalf("served = %d, want %d", srv.served, total)
	}
	// A duplicate of a recent id is still suppressed...
	srv.dispatch("c", envelope{id: uint64(total), method: "noop"})
	if srv.served != int64(total) {
		t.Fatal("recent duplicate executed twice")
	}
	// ...while one past the window has aged out and re-executes (bounded
	// memory necessarily forgets ancient ids).
	srv.dispatch("c", envelope{id: 1, method: "noop"})
	if srv.served != int64(total)+1 {
		t.Fatal("aged-out id should no longer be suppressed")
	}
}

// Satellite 2: a duplicate delivered after the fault plan clears must still
// be suppressed when its first copy arrived under faults.
func TestDupSuppressedAfterFaultsClear(t *testing.T) {
	k := sim.NewKernel(1)
	n, _, srv := rpcPair(k, LinkSpec{})
	srv.Register("noop", func(p *sim.Proc, from Addr, args any) (any, int) { return nil, 0 })
	n.SetFaultsAll(FaultPlan{DelayProb: 1e-12})
	srv.dispatch("c", envelope{id: 7, method: "noop"})
	k.Run()
	if srv.served != 1 {
		t.Fatalf("served = %d, want 1", srv.served)
	}
	n.SetFaultsAll(FaultPlan{}) // plan cleared; the dup is already in flight
	srv.dispatch("c", envelope{id: 7, method: "noop"})
	k.Run()
	if srv.served != 1 {
		t.Fatalf("served = %d after late duplicate, want 1 (executed twice)", srv.served)
	}
}

// Satellite 3: Retries counts only re-attempts that actually went back on
// the wire after their backoff completed.
func TestRetryCounterAccuracy(t *testing.T) {
	k := sim.NewKernel(1)
	_, cli, srv := rpcPair(k, LinkSpec{Latency: sim.Millisecond})
	srv.Register("hang", func(p *sim.Proc, from Addr, args any) (any, int) {
		p.Sleep(10 * sim.Second)
		return nil, 0
	})
	k.Go("caller", func(p *sim.Proc) {
		cli.CallRetry(p, "s", "hang", nil, 0, RetryPolicy{
			Timeout: 10 * sim.Millisecond, Attempts: 3, Backoff: 5 * sim.Millisecond,
		})
	})
	k.RunFor(sim.Second)
	st := cli.Stats()
	if st.Timeouts != 3 || st.Retries != 2 || st.GaveUp != 1 || st.Calls != 3 {
		t.Fatalf("stats = %+v, want Calls=3 Timeouts=3 Retries=2 GaveUp=1", st)
	}
}

// Satellite 3: a proc killed mid-backoff must not record a retry that never
// happened.
func TestRetryCounterKilledMidBackoff(t *testing.T) {
	k := sim.NewKernel(1)
	_, cli, srv := rpcPair(k, LinkSpec{Latency: sim.Millisecond})
	srv.Register("hang", func(p *sim.Proc, from Addr, args any) (any, int) {
		p.Sleep(10 * sim.Second)
		return nil, 0
	})
	k.Go("caller", func(p *sim.Proc) {
		cli.CallRetry(p, "s", "hang", nil, 0, RetryPolicy{
			Timeout: 10 * sim.Millisecond, Attempts: 2, Backoff: 100 * sim.Millisecond,
		})
	})
	// First attempt times out at 10ms; the retry would fire at 110ms. Kill
	// the caller in the middle of its backoff sleep.
	k.RunFor(50 * sim.Millisecond)
	k.Close()
	st := cli.Stats()
	if st.Retries != 0 {
		t.Fatalf("Retries = %d after kill mid-backoff, want 0", st.Retries)
	}
	if st.Timeouts != 1 || st.Calls != 1 {
		t.Fatalf("stats = %+v, want Calls=1 Timeouts=1", st)
	}
}

// Two requests issued back-to-back must ride one frame, and their replies
// must coalesce on the reverse direction with the second one piggybacked.
func TestFrameCoalescing(t *testing.T) {
	k := sim.NewKernel(1)
	_, cli, srv := rpcPair(k, LinkSpec{Latency: sim.Millisecond})
	srv.Register("one", func(p *sim.Proc, from Addr, args any) (any, int) { return 1, 0 })
	cli.SetBatching(true, BatchPolicy{})
	srv.SetBatching(true, BatchPolicy{})
	var sum int
	k.Go("caller", func(p *sim.Proc) {
		f1 := goCall(k, cli, "s", "one")
		f2 := goCall(k, cli, "s", "one")
		sum = f1.Wait(p).(int) + f2.Wait(p).(int)
	})
	k.Run()
	if sum != 2 {
		t.Fatalf("sum = %d, want 2", sum)
	}
	cs, ss := cli.bstats, srv.bstats
	if cs.Frames != 1 || cs.Messages != 2 {
		t.Fatalf("client stats = %+v, want 2 messages in 1 frame", cs)
	}
	if ss.Frames != 1 || ss.Messages != 2 || ss.Piggybacked != 1 {
		t.Fatalf("server stats = %+v, want both replies in 1 frame, 1 piggybacked", ss)
	}
	if cli.occupancy.Count() != 1 || cli.occupancy.Mean() != 2 {
		t.Fatalf("occupancy count=%d mean=%v, want one sample of 2",
			cli.occupancy.Count(), cli.occupancy.Mean())
	}
}

// A lone message flushes when the coalescing window expires, and the delay
// histogram records exactly that wait.
func TestFrameWindowFlush(t *testing.T) {
	k := sim.NewKernel(1)
	_, cli, srv := rpcPair(k, LinkSpec{Latency: sim.Millisecond})
	srv.Register("ping", func(p *sim.Proc, from Addr, args any) (any, int) { return "pong", 0 })
	win := 20 * sim.Microsecond
	cli.SetBatching(true, BatchPolicy{Window: win})
	var rtt sim.Duration
	k.Go("caller", func(p *sim.Proc) {
		start := p.Now()
		if _, err := cli.Call(p, "s", "ping", nil, 0); err != nil {
			t.Error(err)
		}
		rtt = p.Now().Sub(start)
	})
	k.Run()
	// Unbatched RTT is 2 ms; batching adds the request's window wait (the
	// reply is unbatched — the server conn is not coalescing).
	if want := 2*sim.Millisecond + win; rtt != want {
		t.Fatalf("rtt = %v, want %v", rtt, want)
	}
	h := cli.batchDelay
	if h.Count() != 1 || h.Mean() != win {
		t.Fatalf("delay count=%d mean=%v, want one sample of %v", h.Count(), h.Mean(), win)
	}
}

// Hitting MaxMsgs flushes immediately without waiting out the window.
func TestFrameMaxMsgsFlush(t *testing.T) {
	k := sim.NewKernel(1)
	_, cli, srv := rpcPair(k, LinkSpec{Latency: sim.Millisecond})
	srv.Register("one", func(p *sim.Proc, from Addr, args any) (any, int) { return 1, 0 })
	cli.SetBatching(true, BatchPolicy{Window: sim.Second, MaxMsgs: 2})
	var end sim.Time
	k.Go("caller", func(p *sim.Proc) {
		f1 := goCall(k, cli, "s", "one")
		f2 := goCall(k, cli, "s", "one")
		f1.Wait(p)
		f2.Wait(p)
		end = p.Now()
	})
	k.Run()
	if end != sim.Time(2*sim.Millisecond) {
		t.Fatalf("completed at %v, want 2ms (bound flush must not wait for the window)", end)
	}
	if d := cli.batchDelay.Mean(); d != 0 {
		t.Fatalf("batch delay = %v, want 0", d)
	}
}

// Disabling batching flushes anything still queued, in the same event.
func TestSetBatchingOffFlushes(t *testing.T) {
	k := sim.NewKernel(1)
	_, cli, srv := rpcPair(k, LinkSpec{Latency: sim.Millisecond})
	srv.Register("one", func(p *sim.Proc, from Addr, args any) (any, int) { return 1, 0 })
	cli.SetBatching(true, BatchPolicy{Window: sim.Second})
	var got any
	var end sim.Time
	k.Go("caller", func(p *sim.Proc) {
		f := goCall(k, cli, "s", "one")
		p.Yield() // let the enqueue land, then turn batching off
		cli.SetBatching(false, BatchPolicy{})
		got = f.Wait(p)
		end = p.Now()
	})
	k.Run()
	if got != 1 {
		t.Fatalf("reply = %v, want 1 (queued frame lost on disable)", got)
	}
	// (The stale 1s window timer still fires as a no-op; only the reply
	// time matters.)
	if end > sim.Time(10*sim.Millisecond) {
		t.Fatalf("reply at %v — frame waited out the 1s window despite disable", end)
	}
}

// With batching off, no frames are emitted and no batching state accrues:
// the wire behavior is the pre-batching per-message path.
func TestBatchingOffIsPerMessage(t *testing.T) {
	k := sim.NewKernel(1)
	_, cli, srv := rpcPair(k, LinkSpec{Latency: 5 * sim.Millisecond})
	srv.Register("ping", func(p *sim.Proc, from Addr, args any) (any, int) { return "pong", 0 })
	var rtt sim.Duration
	k.Go("caller", func(p *sim.Proc) {
		start := p.Now()
		cli.Call(p, "s", "ping", nil, 0)
		rtt = p.Now().Sub(start)
	})
	k.Run()
	if rtt != 10*sim.Millisecond {
		t.Fatalf("rtt = %v, want 10ms", rtt)
	}
	if cli.bstats != (BatchStats{}) || srv.bstats != (BatchStats{}) {
		t.Fatal("batch counters moved with batching off")
	}
	if cli.occupancy != nil {
		t.Fatal("occupancy histogram allocated with batching off")
	}
}

// An unreachable peer fails fast at enqueue time, matching the unbatched
// ErrUnreachable contract.
func TestBatchedUnreachableFailsFast(t *testing.T) {
	k := sim.NewKernel(1)
	n, cli, _ := rpcPair(k, LinkSpec{})
	n.SetDown("s", true)
	cli.SetBatching(true, BatchPolicy{})
	var err error
	k.Go("caller", func(p *sim.Proc) {
		_, err = cli.Call(p, "s", "ping", nil, 0)
	})
	k.Run()
	if err != ErrUnreachable {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
	if cli.bstats.Frames != 0 {
		t.Fatal("frame emitted toward a down peer")
	}
}
