// Cluster-scale telemetry tests live in telemetry_test because controller
// itself registers into telemetry — importing it from an internal test file
// would cycle.
package telemetry_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/controller"
	"repro/internal/disk"
	"repro/internal/raid"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

func testConfig(blades int) controller.Config {
	cfg := controller.DefaultConfig()
	cfg.Blades = blades
	cfg.Disks = 12
	cfg.DisksPerGroup = 6
	cfg.RAIDLevel = raid.RAID5
	cfg.ExtentBlocks = 64
	cfg.CacheBlocksPerBlade = 1024
	cfg.DiskSpec = disk.Spec{
		BlockSize:   4096,
		Blocks:      1 << 14,
		Seek:        sim.Millisecond,
		Rotation:    sim.Millisecond / 2,
		TransferBps: 400_000_000,
	}
	cfg.OpDelay = 20 * sim.Microsecond
	return cfg
}

// balancedTarget spreads ops round-robin over the blades (the normal
// load-balanced front end).
type balancedTarget struct {
	c   *controller.Cluster
	buf []byte
}

func (t *balancedTarget) BlockSize() int { return t.c.BlockSize() }

func (t *balancedTarget) Read(p *sim.Proc, lba int64, blocks int) error {
	_, err := t.c.Read(p, t.c.PickBlade(), "v", lba, blocks, 0)
	return err
}

func (t *balancedTarget) Write(p *sim.Proc, lba int64, blocks int) error {
	need := blocks * t.c.BlockSize()
	if len(t.buf) < need {
		t.buf = make([]byte, need)
	}
	return t.c.Write(p, t.c.PickBlade(), "v", lba, t.buf[:need], 0)
}

// pinnedTarget sends every op to blade 0 — load balancing disabled, the
// configuration the hot-spot watchdog exists to catch.
type pinnedTarget struct {
	c   *controller.Cluster
	buf []byte
}

func (t *pinnedTarget) BlockSize() int { return t.c.BlockSize() }

func (t *pinnedTarget) Read(p *sim.Proc, lba int64, blocks int) error {
	_, err := t.c.Read(p, t.c.Blade(0), "v", lba, blocks, 0)
	return err
}

func (t *pinnedTarget) Write(p *sim.Proc, lba int64, blocks int) error {
	need := blocks * t.c.BlockSize()
	if len(t.buf) < need {
		t.buf = make([]byte, need)
	}
	return t.c.Write(p, t.c.Blade(0), "v", lba, t.buf[:need], 0)
}

type clusterRun struct {
	timeline string
	events   []telemetry.Event
	scrapes  int64
	ops      int64
	errs     int64
	bladeOps []int64
	p50, p99 sim.Duration
	endOps   float64 // cluster/ops registry value at the end
}

// runCluster drives a seeded Zipf write workload against a 3-blade cluster,
// optionally scraping telemetry every 50 ms of virtual time.
func runCluster(t *testing.T, seed int64, pinned, scrape bool) clusterRun {
	t.Helper()
	k := sim.NewKernel(seed)
	defer k.Close()
	c, err := controller.New(k, testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Pool.CreateDMSD("v", 1<<20); err != nil {
		t.Fatal(err)
	}
	var s *telemetry.Scraper
	if scrape {
		s = telemetry.NewScraper(k, c.Reg, 50*sim.Millisecond)
		s.AddWatchdog(&telemetry.HotSpot{Pattern: "blade/*/ops"})
		s.AddWatchdog(&telemetry.Stall{Queue: "disk/*/queue_depth", Throughput: "cluster/ops"})
		s.Start()
	}
	var target workload.Target
	if pinned {
		target = &pinnedTarget{c: c}
	} else {
		target = &balancedTarget{c: c}
	}
	r := &workload.Runner{
		K:       k,
		Clients: 6,
		Pattern: func(int) workload.Pattern {
			return &workload.Zipf{Range: 4096, S: 1.2, Blocks: 2, WriteFrac: 1}
		},
		Target:   target,
		Duration: 600 * sim.Millisecond,
	}
	r.Run()
	out := clusterRun{ops: r.Ops, errs: r.Errs, p50: r.Latency.P50(), p99: r.Latency.P99()}
	for i := 0; i < 3; i++ {
		out.bladeOps = append(out.bladeOps, c.Blade(i).Ops)
	}
	out.endOps, _ = c.Reg.Value("cluster/ops")
	if s != nil {
		var tl bytes.Buffer
		if err := s.WriteJSONL(&tl); err != nil {
			t.Fatal(err)
		}
		out.timeline = tl.String()
		out.events = s.Events()
		out.scrapes = s.Scrapes()
	}
	return out
}

func eventString(evs []telemetry.Event) string {
	var b strings.Builder
	for _, ev := range evs {
		b.WriteString(ev.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestClusterTelemetryDeterministic asserts the acceptance criterion at
// cluster scale: same-seed runs export byte-identical JSONL timelines and
// identical watchdog event sequences.
func TestClusterTelemetryDeterministic(t *testing.T) {
	a := runCluster(t, 7, true, true)
	b := runCluster(t, 7, true, true)
	if a.scrapes == 0 {
		t.Fatal("no scrapes ran")
	}
	if a.timeline != b.timeline {
		t.Fatal("same-seed cluster runs produced different JSONL timelines")
	}
	if eventString(a.events) != eventString(b.events) {
		t.Fatalf("same-seed cluster runs produced different watchdog events:\n%s\nvs\n%s",
			eventString(a.events), eventString(b.events))
	}
	if a.ops != b.ops || a.p99 != b.p99 {
		t.Fatalf("same-seed cluster runs diverged: ops %d vs %d, p99 %v vs %v",
			a.ops, b.ops, a.p99, b.p99)
	}
}

// TestClusterTelemetryNonPerturbing asserts the scraper moves no simulated
// events: a run with scraping enabled is operation-for-operation identical
// to the same seed without it.
func TestClusterTelemetryNonPerturbing(t *testing.T) {
	on := runCluster(t, 11, false, true)
	off := runCluster(t, 11, false, false)
	if on.scrapes == 0 {
		t.Fatal("no scrapes ran in the instrumented run")
	}
	if on.ops != off.ops || on.errs != off.errs {
		t.Fatalf("scraping perturbed the workload: ops %d vs %d, errs %d vs %d",
			on.ops, off.ops, on.errs, off.errs)
	}
	if on.p50 != off.p50 || on.p99 != off.p99 {
		t.Fatalf("scraping perturbed latency: p50 %v vs %v, p99 %v vs %v",
			on.p50, off.p50, on.p99, off.p99)
	}
	for i := range on.bladeOps {
		if on.bladeOps[i] != off.bladeOps[i] {
			t.Fatalf("scraping perturbed blade %d load: %d vs %d", i, on.bladeOps[i], off.bladeOps[i])
		}
	}
	if on.endOps != off.endOps {
		t.Fatalf("scraping perturbed cluster/ops: %v vs %v", on.endOps, off.endOps)
	}
}

// TestHotSpotFiresOnPinnedLoad asserts the watchdog's discriminating power:
// with load balancing disabled (every op pinned to blade 0) it must fire,
// and on the balanced round-robin front end it must stay quiet.
func TestHotSpotFiresOnPinnedLoad(t *testing.T) {
	pinned := runCluster(t, 3, true, true)
	var warned bool
	for _, ev := range pinned.events {
		if ev.Rule == "hot-spot" && ev.Severity == "warn" {
			warned = true
			if !strings.Contains(ev.Detail, "blade/0/ops") {
				t.Fatalf("hot-spot warn does not name blade 0: %s", ev.Detail)
			}
		}
	}
	if !warned {
		t.Fatalf("hot-spot watchdog stayed quiet on pinned load; events: %s", eventString(pinned.events))
	}
	if pinned.bladeOps[0] == 0 || pinned.bladeOps[1] != 0 || pinned.bladeOps[2] != 0 {
		t.Fatalf("pinned run not actually pinned: blade ops %v", pinned.bladeOps)
	}

	balanced := runCluster(t, 3, false, true)
	for _, ev := range balanced.events {
		if ev.Rule == "hot-spot" {
			t.Fatalf("hot-spot fired on balanced load: %s", ev.String())
		}
	}
}
