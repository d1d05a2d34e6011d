package controller

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/disk"
	"repro/internal/hotcache"
	"repro/internal/raid"
	"repro/internal/sim"
	"repro/internal/simnet"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.DiskSpec = disk.Spec{
		BlockSize:   512,
		Blocks:      4096,
		Seek:        2 * sim.Millisecond,
		Rotation:    sim.Millisecond,
		TransferBps: 400_000_000,
	}
	cfg.Disks = 10
	cfg.DisksPerGroup = 5
	cfg.ExtentBlocks = 16
	cfg.CacheBlocksPerBlade = 256
	return cfg
}

func newTestCluster(t *testing.T, seed int64, mutate func(*Config)) (*Cluster, *sim.Kernel) {
	t.Helper()
	k := sim.NewKernel(seed)
	cfg := smallConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := New(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, k
}

// run executes body and drives the simulation for a bounded stretch of
// virtual time (the cluster's background flushers tick forever, so a plain
// Run() would never return).
func run(k *sim.Kernel, body func(p *sim.Proc)) {
	done := false
	k.Go("test", func(p *sim.Proc) {
		body(p)
		done = true
	})
	k.RunFor(60 * sim.Second)
	if !done {
		panic("test body did not complete within 60s of virtual time")
	}
}

func pattern(n int, seed byte) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i)*31 + seed
	}
	return out
}

func TestClusterRoundTripThroughAnyBlade(t *testing.T) {
	c, k := newTestCluster(t, 1, nil)
	defer c.Stop()
	if _, err := c.Pool.CreateDMSD("vol", 64); err != nil {
		t.Fatal(err)
	}
	data := pattern(512*8, 5)
	run(k, func(p *sim.Proc) {
		if err := c.Write(p, c.Blade(0), "vol", 0, data, 0); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		// Every blade sees the same data — "all computers access all data".
		for i := 0; i < c.Cfg.Blades; i++ {
			got, err := c.Read(p, c.Blade(i), "vol", 0, 8, 0)
			if err != nil {
				t.Errorf("read via blade %d: %v", i, err)
				return
			}
			if !bytes.Equal(got, data) {
				t.Errorf("blade %d data mismatch", i)
			}
		}
	})
}

func TestPickBladeRoundRobin(t *testing.T) {
	c, _ := newTestCluster(t, 1, nil)
	defer c.Stop()
	seen := make(map[int]int)
	for i := 0; i < 8; i++ {
		seen[c.PickBlade().ID]++
	}
	for id := 0; id < 4; id++ {
		if seen[id] != 2 {
			t.Fatalf("blade %d picked %d times, want 2: %v", id, seen[id], seen)
		}
	}
	c.Blades[1].Down = true
	for i := 0; i < 8; i++ {
		if c.PickBlade().ID == 1 {
			t.Fatal("down blade picked")
		}
	}
}

func TestBladeFailureLosesNothingWithReplication(t *testing.T) {
	c, k := newTestCluster(t, 1, func(cfg *Config) { cfg.ReplicationN = 2 })
	defer c.Stop()
	c.Pool.CreateDMSD("vol", 64)
	data := pattern(512*4, 9)
	run(k, func(p *sim.Proc) {
		// Write through blade 0 and kill it before any flush interval.
		if err := c.Write(p, c.Blade(0), "vol", 8, data, 0); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		if err := c.FailBlade(p, 0); err != nil {
			t.Errorf("fail blade: %v", err)
			return
		}
		got, err := c.Read(p, c.Blade(1), "vol", 8, 4, 0)
		if err != nil {
			t.Errorf("read after failure: %v", err)
			return
		}
		if !bytes.Equal(got, data) {
			t.Error("acknowledged write lost after single blade failure with N=2")
		}
	})
}

// An ownership transfer destages the old owner's dirty block and drops it;
// the replica protecting that block must go with it. Left at the buddy, it
// is replayed by recovery when the old owner later dies — over the newer
// data the new owner has destaged since.
func TestStaleReplicaNotReplayedAfterOwnershipTransfer(t *testing.T) {
	for _, batched := range []bool{false, true} {
		c, k := newTestCluster(t, 1, func(cfg *Config) {
			cfg.ReplicationN = 2
			cfg.FlushInterval = 10 * sim.Second // only FlushAll destages
			cfg.FabricBatch = batched
		})
		c.Pool.CreateDMSD("vol", 64)
		v1, v2 := pattern(512, 1), pattern(512, 2)
		run(k, func(p *sim.Proc) {
			if err := c.Write(p, c.Blade(0), "vol", 7, v1, 0); err != nil {
				t.Errorf("batched=%v: write v1: %v", batched, err)
				return
			}
			if err := c.Write(p, c.Blade(2), "vol", 7, v2, 0); err != nil {
				t.Errorf("batched=%v: write v2: %v", batched, err)
				return
			}
			c.FlushAll(p)
			// Replica drops are fire-and-forget: let them land.
			p.Sleep(sim.Millisecond)
			for _, b := range c.Blades {
				if n := b.Repl.HeldBlocks(); n != 0 {
					t.Errorf("batched=%v: blade %d still holds %d replicas of fully destaged data", batched, b.ID, n)
				}
			}
			if err := c.FailBlade(p, 0); err != nil {
				t.Errorf("batched=%v: fail blade: %v", batched, err)
				return
			}
			got, err := c.Read(p, c.Blade(1), "vol", 7, 1, 0)
			if err != nil {
				t.Errorf("batched=%v: read after failure: %v", batched, err)
				return
			}
			if !bytes.Equal(got, v2) {
				t.Errorf("batched=%v: acknowledged write lost: recovery replayed the old owner's stale replica", batched)
			}
		})
		c.Stop()
	}
}

func TestBladeFailureWithoutReplicationLosesDirtyData(t *testing.T) {
	// The contrast case: N=1 write-back caching loses unflushed data on a
	// blade failure — exactly why the paper wants N-way replication.
	c, k := newTestCluster(t, 1, func(cfg *Config) {
		cfg.ReplicationN = 1
		cfg.FlushInterval = 10 * sim.Second // effectively never
	})
	defer c.Stop()
	c.Pool.CreateDMSD("vol", 64)
	data := pattern(512, 3)
	run(k, func(p *sim.Proc) {
		c.Write(p, c.Blade(0), "vol", 5, data, 0)
		c.FailBlade(p, 0)
		got, err := c.Read(p, c.Blade(1), "vol", 5, 1, 0)
		if err != nil {
			t.Errorf("read: %v", err)
			return
		}
		if bytes.Equal(got, data) {
			t.Error("dirty data survived without replication — test premise broken")
		}
	})
}

func TestClusterContinuesAfterFailure(t *testing.T) {
	c, k := newTestCluster(t, 1, nil)
	defer c.Stop()
	c.Pool.CreateDMSD("vol", 64)
	run(k, func(p *sim.Proc) {
		c.Write(p, c.Blade(2), "vol", 0, pattern(512*2, 1), 0)
		c.FailBlade(p, 2)
		c.FailBlade(p, 3)
		// Two blades remain; I/O continues.
		b := c.PickBlade()
		if b == nil || b.Down {
			t.Error("no live blade after two failures")
			return
		}
		if err := c.Write(p, b, "vol", 10, pattern(512, 2), 0); err != nil {
			t.Errorf("write after failures: %v", err)
		}
		if _, err := c.Read(p, b, "vol", 0, 2, 0); err != nil {
			t.Errorf("read after failures: %v", err)
		}
	})
}

func TestReviveBladeRejoins(t *testing.T) {
	c, k := newTestCluster(t, 1, nil)
	defer c.Stop()
	c.Pool.CreateDMSD("vol", 64)
	run(k, func(p *sim.Proc) {
		c.FailBlade(p, 1)
		c.ReviveBlade(p, 1)
		if len(c.Alive()) != 4 {
			t.Errorf("alive = %v, want 4 blades", c.Alive())
		}
		if err := c.Write(p, c.Blade(1), "vol", 0, pattern(512, 7), 0); err != nil {
			t.Errorf("write via revived blade: %v", err)
		}
	})
}

func TestDistributedRebuildRestoresRedundancy(t *testing.T) {
	c, k := newTestCluster(t, 1, nil)
	defer c.Stop()
	c.Pool.CreateDMSD("vol", 128)
	data := pattern(512*64, 17)
	run(k, func(p *sim.Proc) {
		if err := c.Write(p, c.Blade(0), "vol", 0, data, 0); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		c.FlushAll(p)
		c.Groups[0].Disks()[1].Fail()
		if err := c.DistributedRebuild(p, 0, 1); err != nil {
			t.Errorf("rebuild: %v", err)
			return
		}
		if c.Groups[0].Rebuilding(1) {
			t.Error("rebuild did not close")
		}
		// Fail a different disk: the group must still be readable, which
		// requires the first rebuild to have actually restored redundancy.
		c.Groups[0].Disks()[3].Fail()
		got, err := c.Read(p, c.Blade(1), "vol", 0, 64, 0)
		if err != nil {
			t.Errorf("read after second failure: %v", err)
			return
		}
		if !bytes.Equal(got, data) {
			t.Error("data wrong after rebuild + second disk failure")
		}
	})
}

func TestDistributedRebuildSurvivesBladeDeath(t *testing.T) {
	c, k := newTestCluster(t, 1, nil)
	defer c.Stop()
	c.Pool.CreateDMSD("vol", 128)
	run(k, func(p *sim.Proc) {
		c.Write(p, c.Blade(0), "vol", 0, pattern(512*64, 2), 0)
		c.FlushAll(p)
		c.Groups[0].Disks()[0].Fail()
		// Kill a blade shortly after the rebuild starts.
		k.After(5*sim.Millisecond, func() {
			k.Go("killer", func(q *sim.Proc) { c.FailBlade(q, 3) })
		})
		if err := c.DistributedRebuild(p, 0, 0); err != nil {
			t.Errorf("rebuild with blade death: %v", err)
			return
		}
		if c.Groups[0].Rebuilding(0) {
			t.Error("rebuild incomplete after blade death")
		}
	})
}

func TestLoadSpreadsAcrossBlades(t *testing.T) {
	c, k := newTestCluster(t, 1, nil)
	defer c.Stop()
	c.Pool.CreateDMSD("vol", 64)
	run(k, func(p *sim.Proc) {
		for i := 0; i < 32; i++ {
			b := c.PickBlade()
			c.Read(p, b, "vol", int64(i%16), 1, 0)
		}
	})
	load := c.LoadPerBlade()
	for i, l := range load {
		if l != 8 {
			t.Fatalf("blade %d load = %v, want 8 (round robin): %v", i, l, load)
		}
	}
}

// Property: arbitrary writes through arbitrary blades, then a failure of
// any single blade (with N=2), never lose acknowledged data.
func TestNoLossUnderSingleFailureProperty(t *testing.T) {
	f := func(seed int64, ops []uint16, failRaw uint8) bool {
		k := sim.NewKernel(seed)
		cfg := smallConfig()
		cfg.ReplicationN = 2
		cfg.FlushInterval = 10 * sim.Second // force reliance on replication
		c, err := New(k, cfg)
		if err != nil {
			return false
		}
		defer c.Stop()
		c.Pool.CreateDMSD("vol", 64)
		shadow := make(map[int64]byte)
		ok := true
		run(k, func(p *sim.Proc) {
			for i, op := range ops {
				if i >= 10 {
					break
				}
				blade := c.Blade(int(op) % 4)
				lba := int64(op>>4) % 32
				val := byte(op>>8) | 1
				if err := c.Write(p, blade, "vol", lba, bytes.Repeat([]byte{val}, 512), 0); err != nil {
					ok = false
					return
				}
				shadow[lba] = val
			}
			if err := c.FailBlade(p, int(failRaw)%4); err != nil {
				ok = false
				return
			}
			b := c.PickBlade()
			for lba, val := range shadow {
				got, err := c.Read(p, b, "vol", lba, 1, 0)
				if err != nil || got[0] != val {
					ok = false
					return
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// The same property on the coherence suites' twelve replayable seeds, with
// the schedule that hides stale replicas: writes that move dirty ownership
// between blades, full flushes in between, then the kill. Whatever the
// order, recovery must never replay a replica older than what is on disk.
func TestPropertyNoLossAcrossTransferFlushKill(t *testing.T) {
	seeds := []int64{1, 2, 3, 5, 7, 11, 42, 99, 1234, 2024, 31337, 98765}
	for _, seed := range seeds {
		for _, batched := range []bool{false, true} {
			c, k := newTestCluster(t, seed, func(cfg *Config) {
				cfg.ReplicationN = 2
				cfg.FlushInterval = 10 * sim.Second // only the schedule's FlushAll destages
				cfg.FabricBatch = batched
			})
			c.Pool.CreateDMSD("vol", 64)
			rng := rand.New(rand.NewSource(seed * 7919))
			shadow := make(map[int64]byte)
			run(k, func(p *sim.Proc) {
				for i := 0; i < 80; i++ {
					if rng.Intn(6) == 0 {
						c.FlushAll(p)
						continue
					}
					if n := []int{0, 0, 0, 4, 64}[rng.Intn(5)]; n > 0 {
						// A run read over the contended blocks (and, at 64,
						// the never-written ones after them): dirty owners
						// forward, the rest comes off the disks in one run.
						at := int64(rng.Intn(8 - n%8))
						got, err := c.Read(p, c.Blade(rng.Intn(4)), "vol", at, n, 0)
						if err != nil {
							t.Errorf("seed %d batched=%v: read %d+%d: %v", seed, batched, at, n, err)
							return
						}
						for j := 0; j < n; j++ {
							if want := shadow[at+int64(j)]; got[j*512] != want {
								t.Errorf("seed %d batched=%v: op %d read block %d = %d, want last acked %d",
									seed, batched, i, at+int64(j), got[j*512], want)
							}
						}
						continue
					}
					// Eight blocks under four blades: most writes take
					// ownership away from another blade's dirty copy.
					lba, val := int64(rng.Intn(8)), byte(i+1)
					if err := c.Write(p, c.Blade(rng.Intn(4)), "vol", lba, bytes.Repeat([]byte{val}, 512), 0); err != nil {
						t.Errorf("seed %d batched=%v: write %d: %v", seed, batched, i, err)
						return
					}
					shadow[lba] = val
				}
				dead := rng.Intn(4)
				if err := c.FailBlade(p, dead); err != nil {
					t.Errorf("seed %d batched=%v: fail blade %d: %v", seed, batched, dead, err)
					return
				}
				for lba := int64(0); lba < 8; lba++ {
					val, written := shadow[lba]
					if !written {
						continue
					}
					got, err := c.Read(p, c.PickBlade(), "vol", lba, 1, 0)
					if err != nil || got[0] != val {
						t.Errorf("seed %d batched=%v: block %d after killing blade %d = %d (%v), want last acked %d",
							seed, batched, lba, dead, got[0], err, val)
					}
				}
			})
			c.Stop()
		}
	}
}

// A cold, stripe-aligned 64-block read is 64 blocks to every layer that
// works per block — 64 directory requests, 64 blocks the coherence layer
// has the backing store supply, no cache hit — and one I/O to each member
// disk of the one RAID group under its extents.
func TestCold64BlockReadIsOneIOPerMemberDisk(t *testing.T) {
	for _, batched := range []bool{false, true} {
		c, k := newTestCluster(t, 1, func(cfg *Config) {
			cfg.ExtentBlocks = 64
			cfg.FabricBatch = batched
		})
		vol, err := c.Pool.CreateDMSD("vol", 8)
		if err != nil {
			t.Fatal(err)
		}
		sum := func(pattern string) (n int64) {
			for _, name := range c.Reg.Match(pattern) {
				v, _ := c.Reg.Value(name)
				n += int64(v)
			}
			return n
		}
		data := pattern(64*512, 9)
		run(k, func(p *sim.Proc) {
			if err := vol.Write(p, 64, data); err != nil { // below the caches: they stay cold
				t.Fatalf("prefill: %v", err)
			}
			diskReads, cohDisk, dirReqs, hits := sum("disk/*/reads"), sum("blade/*/coh/disk_reads"), sum("blade/*/coh/dir_requests"), sum("blade/*/cache/hits")
			got, err := c.Read(p, c.Blade(1), "vol", 64, 64, 0)
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("batched=%v: cold read: err %v, data equal %v", batched, err, bytes.Equal(got, data))
			}
			if n := sum("disk/*/reads") - diskReads; n != int64(c.Cfg.DisksPerGroup) {
				t.Errorf("batched=%v: %d disk reads, want one per member disk = %d", batched, n, c.Cfg.DisksPerGroup)
			}
			if n := sum("blade/*/coh/disk_reads") - cohDisk; n != 64 {
				t.Errorf("batched=%v: coh/disk_reads moved by %d, want 64", batched, n)
			}
			if n := sum("blade/*/coh/dir_requests") - dirReqs; n != 64 {
				t.Errorf("batched=%v: coh/dir_requests moved by %d, want 64", batched, n)
			}
			if n := sum("blade/*/cache/hits") - hits; n != 0 {
				t.Errorf("batched=%v: %d cache hits on a cold read", batched, n)
			}
		})
		c.Stop()
	}
}

func TestRAID6ClusterConfig(t *testing.T) {
	c, k := newTestCluster(t, 1, func(cfg *Config) {
		cfg.RAIDLevel = raid.RAID6
	})
	defer c.Stop()
	c.Pool.CreateDMSD("vol", 32)
	data := pattern(512*8, 4)
	run(k, func(p *sim.Proc) {
		c.Write(p, c.Blade(0), "vol", 0, data, 0)
		c.FlushAll(p)
		// RAID6 tolerates two disk failures in one group.
		c.Groups[0].Disks()[0].Fail()
		c.Groups[0].Disks()[1].Fail()
		got, err := c.Read(p, c.Blade(1), "vol", 0, 8, 0)
		if err != nil {
			t.Errorf("read with 2 disk failures: %v", err)
			return
		}
		if !bytes.Equal(got, data) {
			t.Error("RAID6 double-failure read wrong")
		}
	})
}

func TestDistributedClone(t *testing.T) {
	c, k := newTestCluster(t, 1, nil)
	defer c.Stop()
	c.Pool.CreateDMSD("src", 64)
	data := pattern(512*64, 23)
	run(k, func(p *sim.Proc) {
		if err := c.Write(p, c.Blade(0), "src", 0, data, 0); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		n, err := c.DistributedClone(p, "default", "src", "copy")
		if err != nil {
			t.Errorf("clone: %v", err)
			return
		}
		if n == 0 {
			t.Error("nothing cloned")
		}
		got, err := c.Read(p, c.Blade(1), "copy", 0, 64, 0)
		if err != nil {
			t.Errorf("read clone: %v", err)
			return
		}
		if !bytes.Equal(got, data) {
			t.Error("clone content mismatch")
		}
		// The clone is independent: writing the source must not change it.
		if err := c.Write(p, c.Blade(0), "src", 0, pattern(512, 99), 0); err != nil {
			t.Errorf("post-clone write: %v", err)
			return
		}
		got2, _ := c.Read(p, c.Blade(2), "copy", 0, 1, 0)
		if !bytes.Equal(got2, data[:512]) {
			t.Error("clone not independent of source")
		}
	})
}

func TestDistributedCloneFasterWithMoreBlades(t *testing.T) {
	elapsed := func(blades int) sim.Duration {
		k := sim.NewKernel(1)
		cfg := smallConfig()
		cfg.Blades = blades
		c, err := New(k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Stop()
		c.Pool.CreateDMSD("src", 128)
		var dur sim.Duration
		run(k, func(p *sim.Proc) {
			c.Write(p, c.Blade(0), "src", 0, pattern(512*512, 1), 0)
			c.FlushAll(p)
			t0 := p.Now()
			if _, err := c.DistributedClone(p, "default", "src", "copy"); err != nil {
				t.Errorf("clone: %v", err)
				return
			}
			dur = p.Now().Sub(t0)
		})
		return dur
	}
	one := elapsed(1)
	four := elapsed(4)
	if four >= one {
		t.Fatalf("4-blade clone (%v) not faster than 1-blade (%v)", four, one)
	}
}

func TestDistributedScrub(t *testing.T) {
	c, k := newTestCluster(t, 1, nil)
	defer c.Stop()
	c.Pool.CreateDMSD("vol", 64)
	run(k, func(p *sim.Proc) {
		c.Write(p, c.Blade(0), "vol", 0, pattern(512*64, 7), 0)
		c.FlushAll(p)
		// Corrupt one block on each group behind the system's back.
		for _, g := range c.Groups {
			g.Disks()[0].CorruptBlock(1, pattern(512, 0xBB))
		}
		bad, err := c.DistributedScrub(p)
		if err != nil {
			t.Errorf("scrub: %v", err)
			return
		}
		if bad == 0 {
			t.Error("scrub missed injected corruption")
		}
		again, err := c.DistributedScrub(p)
		if err != nil || again != 0 {
			t.Errorf("second scrub: bad=%d err=%v", again, err)
		}
	})
}

func TestFaultPlanCountersSurface(t *testing.T) {
	c, k := newTestCluster(t, 1, func(cfg *Config) {
		cfg.FabricRetry = simnet.RetryPolicy{
			Timeout:    20 * sim.Millisecond,
			Attempts:   6,
			Backoff:    sim.Millisecond,
			MaxBackoff: 4 * sim.Millisecond,
			Jitter:     sim.Millisecond,
		}
		cfg.FabricFaults = &simnet.FaultPlan{DropProb: 0.05, MaxExtraDelay: sim.Millisecond}
	})
	defer c.Stop()
	c.Pool.CreateDMSD("v", 1<<16)
	if !c.Net.FaultsActive() {
		t.Fatal("FabricFaults config did not activate fault injection")
	}
	blk := make([]byte, c.BlockSize())
	run(k, func(p *sim.Proc) {
		for i := 0; i < 128; i++ {
			if err := c.Write(p, c.Blade(i%len(c.Blades)), "v", int64(i), blk, 0); err != nil {
				t.Errorf("write %d: %v", i, err)
			}
		}
		for i := 0; i < 128; i++ {
			if _, err := c.Read(p, c.PickBlade(), "v", int64(i), 1, 0); err != nil {
				t.Errorf("read %d: %v", i, err)
			}
		}
	})
	if c.Net.Faults.Dropped == 0 {
		t.Fatal("no drops injected at 5%; test is vacuous")
	}
	tot := c.FabricTotals()
	if tot.RPC.Retries == 0 {
		t.Fatalf("drops injected but FabricTotals records no retries: %+v", tot)
	}
	// Per-blade stats must sum to the totals.
	var retries int64
	for _, bs := range c.FabricStats() {
		retries += bs.RPC.Retries
	}
	if retries != tot.RPC.Retries {
		t.Fatalf("per-blade retries %d != total %d", retries, tot.RPC.Retries)
	}
	// Disabling the plan stops injection.
	c.SetFaultPlan(simnet.FaultPlan{})
	if c.Net.FaultsActive() {
		t.Fatal("zero plan left fault injection active")
	}
}

// Eight blades each own dirty blocks in the same stripe rows (the four-block
// write at 4j+1 is blade j%8's: three blocks of row j and the first of row
// j+1) and destage them at once. A flusher issues each write's blocks as one
// run, which the group cuts at the row, so every row takes a reconstruct-
// write from one blade and a read-modify-write from the next, and the
// writers of a row must not lose each other's update. Afterwards no row may
// be inconsistent, and with a disk of each group gone every block must read
// back through the parity.
func TestConcurrentDestageKeepsParity(t *testing.T) {
	c, k := newTestCluster(t, 1, func(cfg *Config) {
		cfg.Blades = 8
		cfg.FlushInterval = 10 * sim.Second // only the test destages
	})
	defer c.Stop()
	vol, err := c.Pool.CreateDMSD("vol", 64)
	if err != nil {
		t.Fatal(err)
	}
	const blocks, writes = 128, 31
	want := pattern(blocks*512, 0)
	run(k, func(p *sim.Proc) {
		// Map the extents first: a first write to one fills the whole extent
		// under the volume's allocation lock, not block by block.
		if err := vol.Write(p, 0, want); err != nil {
			t.Errorf("prefill: %v", err)
			return
		}
		for j := int64(0); j < writes; j++ {
			lba := 4*j + 1
			run := pattern(4*512, byte(lba))
			copy(want[lba*512:], run)
			if err := c.Write(p, c.Blade(int(j%8)), "vol", lba, run, 0); err != nil {
				t.Errorf("write %d: %v", lba, err)
				return
			}
		}
		grp := sim.NewGroup(k)
		for _, b := range c.Blades {
			grp.Add(1)
			k.Go("flush", func(q *sim.Proc) {
				defer grp.Done()
				b.Engine.FlushOnce(q, 0)
			})
		}
		grp.Wait(p)
		var destaged, runs int64
		for _, b := range c.Blades {
			st := b.Engine.Stats()
			destaged, runs = destaged+st.Writebacks, runs+st.WritebackRuns
		}
		if destaged != 4*writes || runs != writes {
			t.Errorf("%d blocks destaged in %d runs, want %d in %d", destaged, runs, 4*writes, writes)
		}
		for gi, g := range c.Groups {
			if bad, err := g.ScrubRange(p, 0, g.Stripes()); err != nil || bad != 0 {
				t.Errorf("group %d after concurrent destage: %d inconsistent rows, err %v", gi, bad, err)
			}
			g.Disks()[0].Fail()
		}
		got, err := vol.Read(p, 0, blocks)
		if err != nil {
			t.Errorf("degraded read: %v", err)
			return
		}
		for lba := 0; lba < blocks; lba++ {
			if !bytes.Equal(got[lba*512:(lba+1)*512], want[lba*512:(lba+1)*512]) {
				t.Errorf("block %d reads back wrong with a disk of its group failed", lba)
			}
		}
	})
}

// Every client op runs under one skeleton, so an op it rejects — a write
// whose length is not whole blocks, any op on a blade that is down — is
// counted once in cluster/errors, whichever entry point it came through, and
// leaves the blade's Ops and the latency histogram alone.
func TestRejectedOpsCountOnceInClusterErrors(t *testing.T) {
	c, k := newTestCluster(t, 1, nil)
	defer c.Stop()
	if _, err := c.Pool.CreateDMSD("vol", 64); err != nil {
		t.Fatal(err)
	}
	tier := c.NewHotCache(hotcache.Config{})
	errors := func() int64 {
		v, _ := c.Reg.Value("cluster/errors")
		return int64(v)
	}
	run(k, func(p *sim.Proc) {
		if err := c.Write(p, c.Blade(0), "vol", 0, make([]byte, 512+7), 0); err == nil {
			t.Error("a write of 519 bytes was accepted")
		}
		if got := errors(); got != 1 {
			t.Errorf("cluster/errors = %d after a misaligned write, want 1", got)
		}
		c.Blade(1).Down = true
		_, rerr := c.Read(p, c.Blade(1), "vol", 0, 1, 0)
		werr := c.Write(p, c.Blade(1), "vol", 0, make([]byte, 512), 0)
		_, cerr := c.ReadCached(p, tier, c.Blade(1), "vol", 0, 1, 0)
		for _, err := range []error{rerr, werr, cerr} {
			if err == nil || err.Error() != "controller: blade unavailable" {
				t.Errorf("op on a down blade: %v, want \"controller: blade unavailable\"", err)
			}
		}
		if got := errors(); got != 4 {
			t.Errorf("cluster/errors = %d after three more rejected ops, want 4", got)
		}
	})
	if ops := c.Blade(0).Ops + c.Blade(1).Ops; ops != 0 {
		t.Errorf("rejected ops counted %d blocks in blade Ops", ops)
	}
	if n := c.opLatency.Count(); n != 0 {
		t.Errorf("rejected ops left %d latency observations", n)
	}
}
