package simnet

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestDirectLinkTiming(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k)
	// 1 Gb/s, 1 ms latency: 125000 bytes = 1 ms serialization + 1 ms prop.
	n.Connect("a", "b", LinkSpec{BandwidthBps: 1_000_000_000, Latency: sim.Millisecond})
	var arrived sim.Time
	n.Node("b").Handle(func(m Message) { arrived = k.Now() })
	n.Node("a").Send("b", "x", 125_000)
	k.Run()
	want := sim.Time(2 * sim.Millisecond)
	if arrived != want {
		t.Fatalf("arrived at %v, want %v", arrived, want)
	}
}

func TestLinkFIFOSerialization(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k)
	n.Connect("a", "b", LinkSpec{BandwidthBps: 1_000_000_000, Latency: 0})
	var arrivals []sim.Time
	n.Node("b").Handle(func(m Message) { arrivals = append(arrivals, k.Now()) })
	// Two back-to-back 125000-byte messages: second must queue behind first.
	n.Node("a").Send("b", 1, 125_000)
	n.Node("a").Send("b", 2, 125_000)
	k.Run()
	if arrivals[0] != sim.Time(sim.Millisecond) || arrivals[1] != sim.Time(2*sim.Millisecond) {
		t.Fatalf("arrivals %v, want [1ms 2ms]", arrivals)
	}
}

func TestInfiniteBandwidthLink(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k)
	n.Connect("a", "b", LinkSpec{Latency: 3 * sim.Microsecond})
	var arrived sim.Time
	n.Node("b").Handle(func(m Message) { arrived = k.Now() })
	n.Node("a").Send("b", "x", 1<<30)
	k.Run()
	if arrived != sim.Time(3*sim.Microsecond) {
		t.Fatalf("arrived at %v, want 3us (no serialization)", arrived)
	}
}

func TestMultiHopRouting(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k)
	spec := LinkSpec{Latency: sim.Millisecond}
	n.Connect("a", "sw", spec)
	n.Connect("sw", "b", spec)
	var arrived sim.Time
	n.Node("b").Handle(func(m Message) { arrived = k.Now() })
	if ok := n.Node("a").Send("b", "x", 100); !ok {
		t.Fatal("send failed")
	}
	k.Run()
	if arrived != sim.Time(2*sim.Millisecond) {
		t.Fatalf("arrived at %v, want 2ms over two hops", arrived)
	}
}

func TestRoutingPicksMinHop(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k)
	slow := LinkSpec{Latency: 10 * sim.Millisecond}
	n.Connect("a", "m1", slow)
	n.Connect("m1", "m2", slow)
	n.Connect("m2", "b", slow)
	n.Connect("a", "b", slow) // direct: 1 hop
	var arrived sim.Time
	n.Node("b").Handle(func(m Message) { arrived = k.Now() })
	n.Node("a").Send("b", "x", 0)
	k.Run()
	if arrived != sim.Time(10*sim.Millisecond) {
		t.Fatalf("arrived at %v, want 10ms via direct link", arrived)
	}
}

func TestUnreachable(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k)
	n.Connect("a", "b", LinkSpec{})
	n.Node("island")
	if ok := n.Node("a").Send("island", "x", 1); ok {
		t.Fatal("send to unconnected node should fail")
	}
	if n.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", n.Dropped)
	}
}

func TestDownNodeDropsInFlight(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k)
	n.Connect("a", "b", LinkSpec{Latency: 10 * sim.Millisecond})
	delivered := false
	n.Node("b").Handle(func(m Message) { delivered = true })
	n.Node("a").Send("b", "x", 0)
	k.After(sim.Millisecond, func() { n.SetDown("b", true) })
	k.Run()
	if delivered {
		t.Fatal("message delivered to node that went down mid-flight")
	}
	if n.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", n.Dropped)
	}
}

func TestDownSenderCannotSend(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k)
	n.Connect("a", "b", LinkSpec{})
	n.SetDown("a", true)
	if ok := n.Node("a").Send("b", "x", 0); ok {
		t.Fatal("down sender transmitted")
	}
}

func TestLinkBytesAccounting(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k)
	n.Connect("a", "b", LinkSpec{})
	n.Node("b").Handle(func(m Message) {})
	n.Node("a").Send("b", "x", 1000)
	n.Node("a").Send("b", "x", 234)
	k.Run()
	if got := n.LinkBytes("a", "b"); got != 1234 {
		t.Fatalf("LinkBytes = %d, want 1234", got)
	}
	if got := n.LinkBytes("b", "a"); got != 0 {
		t.Fatalf("reverse LinkBytes = %d, want 0", got)
	}
}

// Property: measured link throughput never exceeds configured bandwidth.
func TestBandwidthCeilingProperty(t *testing.T) {
	f := func(sizes []uint16, bwMbps uint8) bool {
		if len(sizes) == 0 || bwMbps == 0 {
			return true
		}
		bw := int64(bwMbps) * 1_000_000
		k := sim.NewKernel(1)
		n := New(k)
		n.Connect("a", "b", LinkSpec{BandwidthBps: bw})
		var total int64
		var last sim.Time
		n.Node("b").Handle(func(m Message) {
			total += int64(m.Size)
			last = k.Now()
		})
		for _, s := range sizes {
			n.Node("a").Send("b", "x", int(s)+1)
		}
		k.Run()
		if last == 0 {
			return true
		}
		rate := float64(total*8) / last.Seconds()
		return rate <= float64(bw)*1.000001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFigure1Arithmetic(t *testing.T) {
	// A 2 Gb/s FC link should carry ~250 MB/s; verify serialization math.
	k := sim.NewKernel(1)
	n := New(k)
	n.Connect("blade", "port", FC2G)
	var last sim.Time
	var total int64
	n.Node("port").Handle(func(m Message) { total += int64(m.Size); last = k.Now() })
	const chunk = 1 << 20
	for i := 0; i < 64; i++ {
		n.Node("blade").Send("port", i, chunk)
	}
	k.Run()
	gbps := float64(total*8) / last.Seconds() / 1e9
	if math.Abs(gbps-2.0) > 0.05 {
		t.Fatalf("sustained FC2G rate = %.3f Gb/s, want ~2.0", gbps)
	}
}

func TestRPCBasic(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k)
	n.Connect("client", "server", LinkSpec{Latency: sim.Millisecond})
	srv := NewConn(n, "server")
	srv.Register("add", func(p *sim.Proc, from Addr, args any) (any, int) {
		xs := args.([2]int)
		return xs[0] + xs[1], 8
	})
	cli := NewConn(n, "client")
	var got any
	var err error
	k.Go("caller", func(p *sim.Proc) {
		got, err = cli.Call(p, "server", "add", [2]int{2, 3}, 16)
	})
	k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got != 5 {
		t.Fatalf("rpc result = %v, want 5", got)
	}
	if srv.served != 1 {
		t.Fatalf("served = %d, want 1", srv.served)
	}
}

func TestRPCRoundTripTiming(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k)
	n.Connect("client", "server", LinkSpec{Latency: 5 * sim.Millisecond})
	srv := NewConn(n, "server")
	srv.Register("ping", func(p *sim.Proc, from Addr, args any) (any, int) { return "pong", 0 })
	cli := NewConn(n, "client")
	var rtt sim.Duration
	k.Go("caller", func(p *sim.Proc) {
		start := p.Now()
		cli.Call(p, "server", "ping", nil, 0)
		rtt = p.Now().Sub(start)
	})
	k.Run()
	if rtt != 10*sim.Millisecond {
		t.Fatalf("rtt = %v, want 10ms", rtt)
	}
}

func TestRPCHandlerMayBlock(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k)
	n.Connect("c", "s", LinkSpec{})
	srv := NewConn(n, "s")
	srv.Register("slow", func(p *sim.Proc, from Addr, args any) (any, int) {
		p.Sleep(7 * sim.Millisecond)
		return "done", 0
	})
	cli := NewConn(n, "c")
	var end sim.Time
	k.Go("caller", func(p *sim.Proc) {
		cli.Call(p, "s", "slow", nil, 0)
		end = p.Now()
	})
	k.Run()
	if end != sim.Time(7*sim.Millisecond) {
		t.Fatalf("call returned at %v, want 7ms", end)
	}
}

func TestRPCTimeoutOnDeadPeer(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k)
	n.Connect("c", "s", LinkSpec{Latency: sim.Millisecond})
	srv := NewConn(n, "s")
	srv.Register("ping", func(p *sim.Proc, from Addr, args any) (any, int) {
		p.Sleep(time100ms)
		return "late", 0
	})
	cli := NewConn(n, "c")
	var err error
	k.Go("caller", func(p *sim.Proc) {
		_, err = cli.CallTimeout(p, "s", "ping", nil, 0, 10*sim.Millisecond)
	})
	k.Run()
	if err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

const time100ms = 100 * sim.Millisecond

func TestRPCUnreachableError(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k)
	n.Connect("c", "s", LinkSpec{})
	n.SetDown("s", true)
	cli := NewConn(n, "c")
	var err error
	k.Go("caller", func(p *sim.Proc) {
		_, err = cli.Call(p, "s", "ping", nil, 0)
	})
	k.Run()
	if err != ErrUnreachable {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
}

func TestRPCConcurrentCalls(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k)
	n.Connect("c", "s", LinkSpec{})
	srv := NewConn(n, "s")
	srv.Register("echo", func(p *sim.Proc, from Addr, args any) (any, int) {
		p.Sleep(sim.Duration(args.(int)) * sim.Millisecond)
		return args, 0
	})
	cli := NewConn(n, "c")
	results := make([]any, 5)
	g := sim.NewGroup(k)
	for i := 0; i < 5; i++ {
		i := i
		g.Add(1)
		k.Go("caller", func(p *sim.Proc) {
			defer g.Done()
			r, err := cli.Call(p, "s", "echo", 5-i, 0)
			if err != nil {
				t.Errorf("call %d: %v", i, err)
				return
			}
			results[i] = r
		})
	}
	k.Run()
	for i, r := range results {
		if r != 5-i {
			t.Fatalf("results[%d] = %v, want %d (reply mismatched to caller)", i, r, 5-i)
		}
	}
}

// A cast runs the handler and its reply crosses the wire, but the caller's
// connection holds nothing for it before or after.
func TestRPCCast(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k)
	n.Connect("c", "s", LinkSpec{})
	srv := NewConn(n, "s")
	var got []any
	srv.Register("note", func(p *sim.Proc, from Addr, args any) (any, int) {
		got = append(got, args)
		return nil, 48
	})
	cli := NewConn(n, "c")
	k.Go("caller", func(p *sim.Proc) {
		cli.Cast(p, "s", "note", "a", 16)
		cli.Cast(p, "s", "note", "b", 16)
		if len(cli.pending) != 0 {
			t.Errorf("pending = %d right after two casts, want 0", len(cli.pending))
		}
	})
	k.Run()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("handler saw %v, want [a b]", got)
	}
	if out, back := n.LinkBytes("c", "s"), n.LinkBytes("s", "c"); out != 32 || back != 96 {
		t.Fatalf("link bytes out=%d back=%d, want 32 and 96 (the replies still travel)", out, back)
	}
	if len(cli.pending) != 0 || cli.Stats().Calls != 0 {
		t.Fatalf("pending = %d, stats = %+v after the replies landed, want nothing", len(cli.pending), cli.Stats())
	}
}

// LinkBytes reports the bytes carried so far on the a→b link.
func (n *Network) LinkBytes(a, b Addr) int64 {
	if l, ok := n.links[[2]Addr{a, b}]; ok {
		return l.bytes
	}
	return 0
}
