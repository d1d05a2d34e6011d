package stripe

import (
	"math"
	"testing"

	"repro/internal/sim"
)

func stream(t *testing.T, cfg Config, bytes int64) Result {
	t.Helper()
	k := sim.NewKernel(1)
	s, err := New(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	k.Go("stream", func(p *sim.Proc) {
		var serr error
		res, serr = s.Stream(p, bytes)
		if serr != nil {
			t.Errorf("stream: %v", serr)
		}
	})
	k.Run()
	return res
}

const gib = int64(1) << 30

func TestOneBladeLimitedByFC(t *testing.T) {
	res := stream(t, Config{Blades: 1}, gib/4)
	// One blade = 2 × 2 Gb/s FC = 4 Gb/s.
	if g := res.Gbps(); math.Abs(g-4.0) > 0.2 {
		t.Fatalf("1 blade = %.2f Gb/s, want ~4", g)
	}
}

func TestTwoBladesDouble(t *testing.T) {
	res := stream(t, Config{Blades: 2}, gib/2)
	if g := res.Gbps(); math.Abs(g-8.0) > 0.4 {
		t.Fatalf("2 blades = %.2f Gb/s, want ~8", g)
	}
}

func TestFourBladesSaturatePort(t *testing.T) {
	// The paper's headline: four blades × 2×2 Gb/s FC drive a 10 Gb/s
	// port at ~wire speed.
	res := stream(t, Config{Blades: 4}, gib)
	if g := res.Gbps(); g < 9.5 || g > 10.01 {
		t.Fatalf("4 blades = %.2f Gb/s, want ~10 (port limited)", g)
	}
}

func TestEightBladesStillPortLimited(t *testing.T) {
	r4 := stream(t, Config{Blades: 4}, gib/2)
	r8 := stream(t, Config{Blades: 8}, gib/2)
	if r8.Gbps() > r4.Gbps()*1.05 {
		t.Fatalf("8 blades (%.2f) exceeded port limit seen at 4 (%.2f)", r8.Gbps(), r4.Gbps())
	}
	if r8.Gbps() < 9.0 {
		t.Fatalf("8 blades = %.2f Gb/s, want port-limited ~10", r8.Gbps())
	}
}

func TestAllBytesDelivered(t *testing.T) {
	total := int64(100<<20 + 12345) // non-chunk-aligned tail
	res := stream(t, Config{Blades: 3}, total)
	if res.Bytes != total {
		t.Fatalf("delivered %d bytes, want %d", res.Bytes, total)
	}
}

func TestReorderBounded(t *testing.T) {
	res := stream(t, Config{Blades: 4}, gib/4)
	// Round-robin striping over equal links keeps reordering small —
	// a reassembly buffer of a few chunks suffices.
	if res.MaxReorder > 16 {
		t.Fatalf("reorder depth %d; expected a small reassembly window", res.MaxReorder)
	}
}

func TestEncryptionEngineThrottles(t *testing.T) {
	// Each blade's encryption engine at 1 Gb/s caps a 1-blade stream at
	// ~1 Gb/s even though FC supplies 4.
	res := stream(t, Config{Blades: 1, EncBps: 1_000_000_000}, gib/8)
	if g := res.Gbps(); math.Abs(g-1.0) > 0.1 {
		t.Fatalf("encrypted 1-blade stream = %.2f Gb/s, want ~1", g)
	}
	// Parallelism restores wire speed: 8 blades × 1 Gb/s engines ≈ 8 Gb/s.
	res8 := stream(t, Config{Blades: 8, EncBps: 1_000_000_000}, gib/2)
	if g := res8.Gbps(); g < 7.0 {
		t.Fatalf("encrypted 8-blade stream = %.2f Gb/s, want ~8 (wire speed by parallelism)", g)
	}
}

func TestSweep(t *testing.T) {
	k := sim.NewKernel(1)
	counts := []int{1, 2, 4}
	results, err := Sweep(k, Config{}, counts, gib/4)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	// Monotone non-decreasing throughput with more blades.
	for i := 1; i < len(results); i++ {
		if results[i].Gbps() < results[i-1].Gbps()*0.99 {
			t.Fatalf("throughput decreased adding blades: %v", results)
		}
	}
	tab := Table(counts, results, 2_000_000_000, 10_000_000_000)
	if tab.String() == "" {
		t.Fatal("empty table")
	}
}

func TestBadConfig(t *testing.T) {
	k := sim.NewKernel(1)
	if _, err := New(k, Config{Blades: 0}); err == nil {
		t.Fatal("0 blades accepted")
	}
	s, _ := New(k, Config{Blades: 1})
	k.Go("t", func(p *sim.Proc) {
		if _, err := s.Stream(p, 0); err == nil {
			t.Error("zero-byte stream accepted")
		}
	})
	k.Run()
}
