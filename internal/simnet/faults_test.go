package simnet

import (
	"errors"
	"testing"

	"repro/internal/sim"
)

func TestFaultPlanDropsMessage(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k)
	n.Connect("a", "b", LinkSpec{Latency: sim.Millisecond})
	n.SetFaults("a", "b", FaultPlan{DropProb: 1})
	delivered := false
	n.Node("b").Handle(func(m Message) { delivered = true })
	// Send reports success: the sender cannot tell a dropped message from
	// a delivered one — that is what the RPC timeout layer is for.
	if ok := n.Node("a").Send("b", "x", 100); !ok {
		t.Fatal("send reported failure; drops must be silent to the sender")
	}
	k.Run()
	if delivered {
		t.Fatal("message delivered despite DropProb=1")
	}
	if n.Faults.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", n.Faults.Dropped)
	}
}

func TestFaultPlanDuplicatesMessage(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k)
	n.Connect("a", "b", LinkSpec{Latency: sim.Millisecond})
	n.SetFaults("a", "b", FaultPlan{DupProb: 1, MaxExtraDelay: sim.Millisecond})
	var arrivals []sim.Time
	n.Node("b").Handle(func(m Message) { arrivals = append(arrivals, k.Now()) })
	n.Node("a").Send("b", "x", 100)
	k.Run()
	if len(arrivals) != 2 {
		t.Fatalf("deliveries = %d, want 2", len(arrivals))
	}
	if arrivals[1] < arrivals[0] {
		t.Fatalf("second copy (%v) arrived before first (%v)", arrivals[1], arrivals[0])
	}
	if n.Faults.Duplicated != 1 {
		t.Fatalf("Duplicated = %d, want 1", n.Faults.Duplicated)
	}
}

func TestFaultPlanDelaysMessage(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k)
	base := sim.Millisecond
	extra := 5 * sim.Millisecond
	n.Connect("a", "b", LinkSpec{Latency: base})
	n.SetFaults("a", "b", FaultPlan{DelayProb: 1, MaxExtraDelay: extra})
	var arrived sim.Time
	n.Node("b").Handle(func(m Message) { arrived = k.Now() })
	n.Node("a").Send("b", "x", 0)
	k.Run()
	if arrived < sim.Time(base) || arrived > sim.Time(base+extra) {
		t.Fatalf("arrived at %v, want within [%v, %v]", arrived, base, base+extra)
	}
	if n.Faults.Delayed != 1 {
		t.Fatalf("Delayed = %d, want 1", n.Faults.Delayed)
	}
}

// lossyRun sends msgs messages over a lossy link and returns every arrival
// time plus the fault counters.
func lossyRun(seed int64, msgs int) ([]sim.Time, FaultStats) {
	k := sim.NewKernel(seed)
	n := New(k)
	n.Connect("a", "b", LinkSpec{BandwidthBps: 1_000_000_000, Latency: sim.Millisecond})
	n.SetFaults("a", "b", FaultPlan{DropProb: 0.2, DupProb: 0.1, DelayProb: 0.3, MaxExtraDelay: 2 * sim.Millisecond})
	var arrivals []sim.Time
	n.Node("b").Handle(func(m Message) { arrivals = append(arrivals, k.Now()) })
	for i := 0; i < msgs; i++ {
		n.Node("a").Send("b", i, 1000)
	}
	k.Run()
	return arrivals, n.Faults
}

func TestFaultPlanDeterministic(t *testing.T) {
	a1, f1 := lossyRun(42, 200)
	a2, f2 := lossyRun(42, 200)
	if f1 != f2 {
		t.Fatalf("fault counters differ across identical runs: %+v vs %+v", f1, f2)
	}
	if len(a1) != len(a2) {
		t.Fatalf("delivery counts differ: %d vs %d", len(a1), len(a2))
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("arrival %d differs: %v vs %v", i, a1[i], a2[i])
		}
	}
	// A different seed must draw a different fault sequence, or the plan
	// is not actually seeded.
	_, f3 := lossyRun(43, 200)
	if f1 == f3 {
		t.Fatalf("seeds 42 and 43 injected identical faults: %+v", f1)
	}
	if f1.Dropped == 0 || f1.Duplicated == 0 || f1.Delayed == 0 {
		t.Fatalf("expected all fault kinds at these probabilities: %+v", f1)
	}
}

func TestCallRetryRecoversAfterDrops(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k)
	n.Connect("client", "server", LinkSpec{Latency: sim.Millisecond})
	srv := NewConn(n, "server")
	srv.Register("echo", func(p *sim.Proc, from Addr, args any) (any, int) {
		return args, 16
	})
	cli := NewConn(n, "client")
	n.SetFaults("client", "server", FaultPlan{DropProb: 1})
	// The fabric heals between the second and third attempt.
	k.After(120*sim.Millisecond, func() { n.SetFaults("client", "server", FaultPlan{}) })
	var got any
	var err error
	k.Go("caller", func(p *sim.Proc) {
		got, err = cli.CallRetry(p, "server", "echo", 7, 16, RetryPolicy{
			Timeout:  50 * sim.Millisecond,
			Attempts: 4,
			Backoff:  10 * sim.Millisecond,
		})
	})
	k.Run()
	if err != nil || got != 7 {
		t.Fatalf("CallRetry = %v, %v; want 7, nil", got, err)
	}
	st := cli.Stats()
	if st.Timeouts != 2 || st.Retries != 2 || st.GaveUp != 0 {
		t.Fatalf("stats = %+v; want 2 timeouts, 2 retries, 0 gave up", st)
	}
}

func TestCallRetryGivesUpBounded(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k)
	n.Connect("client", "server", LinkSpec{Latency: sim.Millisecond})
	srv := NewConn(n, "server")
	srv.Register("echo", func(p *sim.Proc, from Addr, args any) (any, int) { return args, 16 })
	cli := NewConn(n, "client")
	n.SetFaults("client", "server", FaultPlan{DropProb: 1})
	var err error
	done := false
	k.Go("caller", func(p *sim.Proc) {
		_, err = cli.CallRetry(p, "server", "echo", 7, 16, RetryPolicy{
			Timeout:  50 * sim.Millisecond,
			Attempts: 3,
			Backoff:  10 * sim.Millisecond,
		})
		done = true
	})
	k.Run()
	if !done {
		t.Fatal("CallRetry wedged on a fully lossy link")
	}
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want wrapped ErrTimeout", err)
	}
	st := cli.Stats()
	if st.GaveUp != 1 {
		t.Fatalf("GaveUp = %d, want 1", st.GaveUp)
	}
	// Three 50 ms attempts plus two bounded backoffs: well under a second.
	if now := k.Now(); now > sim.Time(sim.Second) {
		t.Fatalf("gave up only after %v; retry budget unbounded?", now)
	}
	if srv.served != 0 {
		t.Fatalf("server served %d requests across a drop-everything link", srv.served)
	}
}

func TestDuplicateRequestSuppressed(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k)
	n.Connect("client", "server", LinkSpec{Latency: sim.Millisecond})
	executions := 0
	srv := NewConn(n, "server")
	srv.Register("bump", func(p *sim.Proc, from Addr, args any) (any, int) {
		executions++
		return executions, 16
	})
	cli := NewConn(n, "client")
	// Every message is duplicated — requests and replies alike. The
	// request-side dedup must keep the handler at one execution per id;
	// the duplicated reply is ignored because the pending future was
	// already consumed.
	n.SetFaults("client", "server", FaultPlan{DupProb: 1, MaxExtraDelay: sim.Millisecond})
	var got any
	var err error
	k.Go("caller", func(p *sim.Proc) {
		got, err = cli.CallRetry(p, "server", "bump", nil, 16, RetryPolicy{
			Timeout: 50 * sim.Millisecond, Attempts: 2,
		})
	})
	k.Run()
	if err != nil || got != 1 {
		t.Fatalf("CallRetry = %v, %v; want 1, nil", got, err)
	}
	if executions != 1 {
		t.Fatalf("handler executed %d times for one request; duplicates not suppressed", executions)
	}
	if n.Faults.Duplicated == 0 {
		t.Fatal("no duplicates injected; test is vacuous")
	}
}
