package main

import (
	"flag"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/controller"
	"repro/internal/critpath"
	"repro/internal/disk"
	"repro/internal/gateway"
	"repro/internal/metrics"
	"repro/internal/pfs"
	"repro/internal/qos"
	"repro/internal/raid"
	"repro/internal/replication"
	"repro/internal/security"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/virt"
)

// The layer drivers measure each layer's ceiling alone (Kukol & Gray: the
// ceilings first, then the end-to-end gap): testing.Benchmark over public
// constructors and calls only, with every set-up outside the timed loop.
// Host numbers are sandbox measurements; *_sim_* numbers are the virtual
// latency the model charges and repeat exactly.

// layerBenchTime is each driver's testing benchtime. The smoke test
// shortens it.
var layerBenchTime = "100ms"

// driven is one driver's result.
type driven struct {
	ns, allocs float64 // host ns and heap allocations per iteration
	extra      map[string]float64
}

func drive(fn func(b *testing.B)) driven {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		fn(b)
	})
	if r.N == 0 {
		panic("bench: a layer driver failed (see its log above)")
	}
	return driven{
		ns:     float64(r.T.Nanoseconds()) / float64(r.N),
		allocs: float64(r.MemAllocs) / float64(r.N),
		extra:  r.Extra,
	}
}

// timedProc runs body(p, b.N) on a proc of k with the benchmark timer
// covering exactly the body, and reports the virtual time one iteration
// took as the extra metric "sim_ns".
func timedProc(b *testing.B, k *sim.Kernel, body func(p *sim.Proc, n int)) {
	b.Helper()
	err := runProc(k, "driver", func(p *sim.Proc) error {
		v0 := p.Now()
		b.ResetTimer()
		body(p, b.N)
		b.StopTimer()
		b.ReportMetric(float64(p.Now().Sub(v0))/float64(b.N), "sim_ns")
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("bench: layer driver set-up: %v", err))
	}
}

// driverCluster is a small real cluster for the coherence and controller
// drivers: 4 blades over one 6-wide RAID-5 group of lab disks, with a
// prefilled volume larger than one blade's cache.
const driverVolBlocks = 2048

func driverCluster(cacheBlocks int) (*controller.Cluster, *virt.Volume) {
	k := sim.NewKernel(1)
	cfg := controller.DefaultConfig()
	cfg.CacheBlocksPerBlade = cacheBlocks
	cfg.DiskSpec = labDisk()
	cfg.Disks, cfg.DisksPerGroup, cfg.RAIDLevel = 6, 6, raid.RAID5
	cfg.ExtentBlocks = 64
	c, err := controller.New(k, cfg)
	must(err)
	vol, err := c.Pool.CreateDMSD("v", 1<<16)
	must(err)
	must(runProc(k, "prefill", func(p *sim.Proc) error {
		return vol.Write(p, 0, make([]byte, driverVolBlocks*c.BlockSize()))
	}))
	return c, vol
}

// closeCluster ends a driver's cluster like a workload's system.
func closeCluster(c *controller.Cluster) {
	c.Stop()
	c.K.Close()
}

func key(lba int) cache.Key { return cache.Key{Vol: "v", LBA: int64(lba)} }

// memIO is an instant in-memory pfs.BlockIO: it charges no virtual time, so
// the tiers above the controller (pfs, gateway) are timed alone.
type memIO struct {
	bs     int
	blocks map[cache.Key][]byte
}

func newMemIO() *memIO { return &memIO{bs: 4096, blocks: make(map[cache.Key][]byte)} }

func (m *memIO) BlockSize() int { return m.bs }

func (m *memIO) ReadBlocks(_ *sim.Proc, vol string, lba int64, count int, _ int) ([]byte, error) {
	out := make([]byte, count*m.bs)
	for i := 0; i < count; i++ {
		copy(out[i*m.bs:], m.blocks[cache.Key{Vol: vol, LBA: lba + int64(i)}])
	}
	return out, nil
}

func (m *memIO) WriteBlocks(_ *sim.Proc, vol string, lba int64, data []byte, _, _ int) error {
	for i := 0; i*m.bs < len(data); i++ {
		m.blocks[cache.Key{Vol: vol, LBA: lba + int64(i)}] = append([]byte(nil), data[i*m.bs:(i+1)*m.bs]...)
	}
	return nil
}

func memFS(k *sim.Kernel) *pfs.FS {
	fs, err := pfs.New(k, pfs.Config{IO: newMemIO(), Classes: map[string]string{"default": "vol"}, DefaultClass: "default"})
	must(err)
	return fs
}

// runLayerDrivers runs every layer driver and returns the layerDefs metrics.
func runLayerDrivers() values {
	testing.Init()
	must(flag.Set("test.benchtime", layerBenchTime))
	v := values{}

	// ---- sim ----
	d := drive(func(b *testing.B) {
		k := sim.NewKernel(1)
		n := 0
		var tick func()
		tick = func() {
			if n++; n < b.N {
				k.After(sim.Microsecond, tick)
			}
		}
		b.ResetTimer()
		k.After(sim.Microsecond, tick)
		k.Run()
	})
	v["sim.event_ns"], v["sim.event_allocs"] = d.ns, d.allocs
	d = drive(func(b *testing.B) {
		k := sim.NewKernel(1)
		k.Go("switch", func(p *sim.Proc) {
			for i := 0; i < b.N; i++ {
				p.Sleep(sim.Microsecond)
			}
		})
		b.ResetTimer()
		k.Run()
	})
	v["sim.switch_ns"], v["sim.switch_allocs"] = d.ns, d.allocs
	v["sim.spawn_ns"] = drive(func(b *testing.B) {
		k := sim.NewKernel(1)
		k.Go("spawner", func(p *sim.Proc) {
			for i := 0; i < b.N; i++ {
				k.Go("child", func(*sim.Proc) {})
				p.Yield()
			}
		})
		b.ResetTimer()
		k.Run()
	}).ns
	v["sim.mailbox_rtt_ns"] = drive(func(b *testing.B) {
		k := sim.NewKernel(1)
		ping, pong := sim.NewMailbox[int](k), sim.NewMailbox[int](k)
		k.Go("echo", func(p *sim.Proc) {
			for i := 0; i < b.N; i++ {
				pong.Send(ping.Recv(p))
			}
		})
		k.Go("caller", func(p *sim.Proc) {
			for i := 0; i < b.N; i++ {
				ping.Send(i)
				pong.Recv(p)
			}
		})
		b.ResetTimer()
		k.Run()
	}).ns

	// ---- simnet ----
	rpc := func(batched bool, callers int) driven {
		return drive(func(b *testing.B) {
			k := sim.NewKernel(1)
			net := simnet.New(k)
			net.Connect("a", "b", simnet.FC2G)
			ca, cb := simnet.NewConn(net, "a"), simnet.NewConn(net, "b")
			cb.Register("echo", func(*sim.Proc, simnet.Addr, any) (any, int) { return nil, 64 })
			if batched {
				ca.SetBatching(true, simnet.BatchPolicy{})
				cb.SetBatching(true, simnet.BatchPolicy{})
			}
			for c := 0; c < callers; c++ {
				share := b.N / callers
				if c == 0 {
					share += b.N % callers
				}
				k.Go("caller", func(p *sim.Proc) {
					for i := 0; i < share; i++ {
						if _, err := ca.Call(p, "b", "echo", nil, 64); err != nil {
							panic(err)
						}
					}
				})
			}
			b.ResetTimer()
			k.Run()
			b.ReportMetric(float64(k.Now())/float64(b.N), "sim_ns")
		})
	}
	d = rpc(false, 1)
	v["simnet.rpc_host_ns"], v["simnet.rpc_allocs"], v["simnet.rpc_sim_us"] = d.ns, d.allocs, d.extra["sim_ns"]/1e3
	// Sixteen concurrent callers, so frames have something to coalesce.
	v["simnet.rpc_batched_host_ns"] = rpc(true, 16).ns

	// ---- cache ----
	blk := make([]byte, 4096)
	fullCache := func() *cache.Cache {
		c := cache.New(4096)
		for i := 0; i < 4096; i++ {
			c.Put(key(i), blk, cache.Shared, false, 0)
		}
		return c
	}
	v["cache.get_ns"] = drive(func(b *testing.B) {
		c := fullCache()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Get(key(i & 4095))
		}
	}).ns
	v["cache.put_evict_ns"] = drive(func(b *testing.B) {
		c := fullCache()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Evict(c.Victim())
			c.Put(key(4096+i), blk, cache.Shared, false, 0)
		}
	}).ns

	// ---- coherence ----
	d = drive(func(b *testing.B) {
		c, _ := driverCluster(256)
		defer closeCluster(c)
		e := c.Blades[0].Engine
		timedProc(b, c.K, func(p *sim.Proc, n int) {
			for i := 0; i < n; i++ {
				if _, err := e.ReadBlock(p, key(1), 0); err != nil {
					panic(err)
				}
			}
		})
	})
	v["coherence.local_hit_host_ns"], v["coherence.local_hit_allocs"] = d.ns, d.allocs
	// A 256-block cache under a strided walk of 2048 blocks: every read is
	// a miss that goes to the directory home and then seeks on a disk.
	v["coherence.read_miss_sim_ms"] = drive(func(b *testing.B) {
		c, _ := driverCluster(256)
		defer closeCluster(c)
		e := c.Blades[0].Engine
		timedProc(b, c.K, func(p *sim.Proc, n int) {
			for i := 0; i < n; i++ {
				if _, err := e.ReadBlock(p, key(i*331%driverVolBlocks), 0); err != nil {
					panic(err)
				}
			}
		})
	}).extra["sim_ns"] / 1e6
	// Blade 0 reads a batch from disk (untimed), blade 1 then reads the
	// same blocks: served cache to cache.
	d = drive(func(b *testing.B) {
		c, _ := driverCluster(256)
		defer closeCluster(c)
		var virt sim.Duration
		must(runProc(c.K, "driver", func(p *sim.Proc) error {
			b.ResetTimer()
			for done := 0; done < b.N; done += 128 {
				b.StopTimer()
				batch := min(128, b.N-done)
				for i := 0; i < batch; i++ {
					if _, err := c.Blades[0].Engine.ReadBlock(p, key((done+i)%driverVolBlocks), 0); err != nil {
						return err
					}
				}
				v0 := p.Now()
				b.StartTimer()
				for i := 0; i < batch; i++ {
					if _, err := c.Blades[1].Engine.ReadBlock(p, key((done+i)%driverVolBlocks), 0); err != nil {
						return err
					}
				}
				virt += p.Now().Sub(v0)
			}
			b.StopTimer()
			return nil
		}))
		b.ReportMetric(float64(virt)/float64(b.N), "sim_ns")
	})
	v["coherence.peer_fetch_host_ns"], v["coherence.peer_fetch_sim_us"] = d.ns, d.extra["sim_ns"]/1e3
	v["coherence.write_owned_host_ns"] = drive(func(b *testing.B) {
		c, _ := driverCluster(256)
		defer closeCluster(c)
		e := c.Blades[0].Engine
		timedProc(b, c.K, func(p *sim.Proc, n int) {
			for i := 0; i < n; i++ {
				if err := e.WriteBlock(p, key(1), blk, 0); err != nil {
					panic(err)
				}
			}
		})
	}).ns
	// Two blades write one block in turn: every write finds the other
	// blade owning it dirty (ROADMAP item 3's target).
	d = drive(func(b *testing.B) {
		c, _ := driverCluster(256)
		defer closeCluster(c)
		timedProc(b, c.K, func(p *sim.Proc, n int) {
			for i := 0; i < n; i++ {
				if err := c.Blades[i%2].Engine.WriteBlock(p, key(1), blk, 0); err != nil {
					panic(err)
				}
			}
		})
	})
	v["coherence.xfer_dirty_host_ns"], v["coherence.xfer_dirty_sim_ms"] = d.ns, d.extra["sim_ns"]/1e6

	// ---- replication ----
	d = drive(func(b *testing.B) {
		k := sim.NewKernel(1)
		net := simnet.New(k)
		peers := []simnet.Addr{"blade0", "blade1"}
		var mgr [2]*replication.Manager
		for i, a := range peers {
			net.Connect(a, "fabric", simnet.FC2G)
			mgr[i] = replication.New(k, simnet.NewConn(net, a), peers, i, 2)
		}
		timedProc(b, k, func(p *sim.Proc, n int) {
			for i := 0; i < n; i++ {
				if err := mgr[0].ReplicateDirty(p, key(i&255), blk, uint64(i), 0); err != nil {
					panic(err)
				}
			}
		})
	})
	v["replication.push_host_ns"], v["replication.push_sim_us"] = d.ns, d.extra["sim_ns"]/1e3

	// ---- disk ----
	d = drive(func(b *testing.B) {
		k := sim.NewKernel(1)
		dk := disk.New(k, "d", labDisk())
		rng := rand.New(rand.NewSource(1))
		timedProc(b, k, func(p *sim.Proc, n int) {
			for i := 0; i < n; i++ {
				if _, err := dk.Read(p, rng.Int63n(1<<16), 1); err != nil {
					panic(err)
				}
			}
		})
	})
	v["disk.io_host_ns"], v["disk.rand_read_sim_ms"] = d.ns, d.extra["sim_ns"]/1e6
	d = drive(func(b *testing.B) {
		k := sim.NewKernel(1)
		dk := disk.New(k, "d", labDisk())
		timedProc(b, k, func(p *sim.Proc, n int) {
			for i := 0; i < n; i++ {
				if _, err := dk.Read(p, int64(i%1024)*64, 64); err != nil {
					panic(err)
				}
			}
		})
	})
	v["disk.seq_read_sim_mb_s"] = 64 * 4096 / 1e6 / (d.extra["sim_ns"] / 1e9)

	// ---- raid ----
	group := func() (*sim.Kernel, *raid.Group) {
		k := sim.NewKernel(1)
		g, err := raid.NewGroup(k, raid.RAID5, disk.NewFarm(k, "d", 6, labDisk()).Disks)
		must(err)
		return k, g
	}
	raidWrite := func(blocks int) driven {
		return drive(func(b *testing.B) {
			k, g := group()
			data := make([]byte, blocks*4096)
			timedProc(b, k, func(p *sim.Proc, n int) {
				for i := 0; i < n; i++ {
					if err := g.Write(p, int64(i*331%4096)*5, data); err != nil {
						panic(err)
					}
				}
			})
		})
	}
	d = raidWrite(1) // one block of a 5-data-block stripe: read-modify-write
	v["raid.rmw_host_ns"], v["raid.rmw_sim_ms"] = d.ns, d.extra["sim_ns"]/1e6
	d = raidWrite(5) // a whole aligned stripe: parity computed, nothing read
	v["raid.full_stripe_host_ns"], v["raid.full_stripe_sim_ms"] = d.ns, d.extra["sim_ns"]/1e6
	d = drive(func(b *testing.B) {
		stripe := make([][]byte, 5)
		for i := range stripe {
			stripe[i] = make([]byte, 4096)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			raid.XORParity(stripe)
		}
	})
	v["raid.xor_host_mb_s"] = 5 * 4096 / 1e6 / (d.ns / 1e9)

	// ---- virt ----
	pool := func() (*sim.Kernel, *virt.Volume) {
		k, g := group()
		pl, err := virt.NewPool(k, 64, g)
		must(err)
		vol, err := pl.CreateDMSD("v", 1<<16)
		must(err)
		return k, vol
	}
	v["virt.mapped_rw_host_ns"] = drive(func(b *testing.B) {
		k, vol := pool()
		must(runProc(k, "prefill", func(p *sim.Proc) error { return vol.Write(p, 0, make([]byte, 64*4096)) }))
		timedProc(b, k, func(p *sim.Proc, n int) {
			for i := 0; i < n; i++ {
				var err error
				if i%2 == 0 {
					err = vol.Write(p, int64(i%64), blk)
				} else {
					_, err = vol.Read(p, int64(i%64), 1)
				}
				if err != nil {
					panic(err)
				}
			}
		})
	}).ns
	// The first write to an unmapped extent allocates it; the trim hands
	// it back, so the pool never runs dry.
	v["virt.first_write_host_ns"] = drive(func(b *testing.B) {
		k, vol := pool()
		timedProc(b, k, func(p *sim.Proc, n int) {
			for i := 0; i < n; i++ {
				lba := int64(i%1024) * 64
				if err := vol.Write(p, lba, blk); err != nil {
					panic(err)
				}
				must(vol.Trim(lba, 64))
			}
		})
	}).ns

	// ---- controller ----
	ctlRead := func(blocks int) float64 {
		return drive(func(b *testing.B) {
			c, _ := driverCluster(4096)
			defer closeCluster(c)
			must(runProc(c.K, "warm", func(p *sim.Proc) error {
				_, err := c.Read(p, c.Blades[0], "v", 0, 64, 0)
				return err
			}))
			timedProc(b, c.K, func(p *sim.Proc, n int) {
				for i := 0; i < n; i++ {
					if _, err := c.Read(p, c.Blades[0], "v", 0, blocks, 0); err != nil {
						panic(err)
					}
				}
			})
		}).ns
	}
	v["controller.read4_hit_host_ns"] = ctlRead(4)
	v["controller.read64_hit_host_ns"] = ctlRead(64)

	// ---- pfs (over the instant BlockIO) ----
	v["pfs.lookup_host_ns"] = drive(func(b *testing.B) {
		fs := memFS(sim.NewKernel(1))
		must(fs.MkdirAll("/a/b/c"))
		_, err := fs.Create("/a/b/c/file", pfs.Policy{})
		must(err)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := fs.Stat("/a/b/c/file"); err != nil {
				b.Fatal(err)
			}
		}
	}).ns
	pfsIO := func(write bool) float64 {
		return drive(func(b *testing.B) {
			k := sim.NewKernel(1)
			fs := memFS(k)
			buf := make([]byte, 256<<10)
			must(runProc(k, "prefill", func(p *sim.Proc) error { return fs.WriteFile(p, "/f", buf, pfs.Policy{}) }))
			timedProc(b, k, func(p *sim.Proc, n int) {
				for i := 0; i < n; i++ {
					var err error
					if write {
						_, err = fs.WriteAt(p, "/f", 0, buf)
					} else {
						_, err = fs.ReadAt(p, "/f", 0, buf)
					}
					if err != nil {
						panic(err)
					}
				}
			})
		}).ns
	}
	v["pfs.read_256k_host_ns"] = pfsIO(false)
	v["pfs.write_256k_host_ns"] = pfsIO(true)

	// ---- gateway and security (over pfs over the instant BlockIO) ----
	type gwRig struct {
		k    *sim.Kernel
		gw   *gateway.Gateway
		auth *security.Authority
		tok  string
	}
	newGateway := func() gwRig {
		k := sim.NewKernel(1)
		auth := security.NewAuthority(k)
		toks, err := auth.CreateTenants("u", 1, 24*3600*sim.Second)
		must(err)
		gw, err := gateway.New(k, gateway.Config{FS: memFS(k), Auth: auth})
		must(err)
		must(runProc(k, "mkbucket", func(p *sim.Proc) error {
			if err := gw.CreateBucket(p, toks[0], "b", gateway.BucketOptions{Priority: -1}); err != nil {
				return err
			}
			_, err := gw.PutObject(p, toks[0], "b", "k", blk)
			return err
		}))
		return gwRig{k, gw, auth, toks[0]}
	}
	gwOp := func(op func(r gwRig, p *sim.Proc) error) driven {
		return drive(func(b *testing.B) {
			r := newGateway()
			timedProc(b, r.k, func(p *sim.Proc, n int) {
				for i := 0; i < n; i++ {
					if err := op(r, p); err != nil {
						panic(err)
					}
				}
			})
		})
	}
	put := gwOp(func(r gwRig, p *sim.Proc) error {
		_, err := r.gw.PutObject(p, r.tok, "b", "k", blk)
		return err
	})
	get := gwOp(func(r gwRig, p *sim.Proc) error {
		_, _, err := r.gw.GetObject(p, r.tok, "b", "k")
		return err
	})
	v["gateway.put_4k_host_ns"], v["gateway.get_4k_host_ns"] = put.ns, get.ns
	// The virtual cost of the IAM and index tiers alone: the mean of one
	// PUT (auth + two index ops) and one GET (auth + one).
	v["gateway.op_4k_sim_us"] = (put.extra["sim_ns"] + get.extra["sim_ns"]) / 2 / 1e3
	v["gateway.auth_host_ns"] = gwOp(func(r gwRig, p *sim.Proc) error {
		_, err := r.gw.Authorize(p, r.tok, "b", false)
		return err
	}).ns
	v["gateway.plan_layout_host_ns"] = drive(func(b *testing.B) {
		var cur gateway.SegCursor
		for i := 0; i < b.N; i++ {
			var err error
			if _, cur, err = gateway.PlanLayout(gateway.LayoutConfig{}, "u0", "b", uint64(i+1), 4096, cur); err != nil {
				b.Fatal(err)
			}
		}
	}).ns
	v["security.token_check_host_ns"] = drive(func(b *testing.B) {
		r := newGateway()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := r.auth.Authenticate(r.tok); err != nil {
				b.Fatal(err)
			}
		}
	}).ns

	// ---- qos ----
	v["qos.wfq_host_ns"] = drive(func(b *testing.B) {
		k := sim.NewKernel(1)
		q := qos.NewFairQueue(k, 1, qos.DefaultWeights())
		q.SetEnabled(true)
		timedProc(b, k, func(p *sim.Proc, n int) {
			for i := 0; i < n; i++ {
				q.Acquire(p, i&3, 1)
				q.Release()
			}
		})
	}).ns
	v["qos.admit_host_ns"] = drive(func(b *testing.B) {
		k := sim.NewKernel(1)
		a := qos.NewAdmission(k, map[string]qos.TenantSpec{"t": {Rate: 1e12, Burst: 1e12}})
		a.SetEnabled(true)
		timedProc(b, k, func(p *sim.Proc, n int) {
			for i := 0; i < n; i++ {
				if err := a.Admit(p, "t", 1); err != nil {
					panic(err)
				}
			}
		})
	}).ns

	// ---- trace, critpath, metrics, telemetry ----
	v["trace.span_host_ns"] = drive(func(b *testing.B) {
		k := sim.NewKernel(1)
		var root *trace.Active
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i&0xffff == 0 { // a fresh tracer well inside the span cap
				tr := trace.NewTracer(k)
				tr.SetEnabled(true)
				root = tr.StartTrace("op", trace.Op, "blade0")
			}
			root.Child("io", trace.Disk, "disk0").End()
		}
	}).ns
	spans := syntheticTraces(256)
	v["critpath.analyze_host_ns_per_span"] = drive(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if a := critpath.Analyze(spans, nil); len(a.Ops) != 256 {
				b.Fatalf("analysed %d of 256 ops", len(a.Ops))
			}
		}
	}).ns / float64(len(spans))
	v["metrics.observe_host_ns"] = drive(func(b *testing.B) {
		h := metrics.NewHistogram()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Observe(sim.Duration(1000 + i&0xfffff))
		}
	}).ns
	v["telemetry.scrape_host_us"] = drive(func(b *testing.B) {
		c, _ := driverCluster(256)
		defer closeCluster(c)
		s := telemetry.NewScraper(c.K, c.Reg, 10*sim.Millisecond)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.ScrapeNow()
		}
	}).ns / 1e3
	return v
}

// syntheticTraces builds n op traces of the shape the controller emits for
// a read miss: a root with a queue wait, a coherence exchange that nests a
// fabric call, and a disk read. Spans are in end order, as a tracer logs them.
func syntheticTraces(n int) []trace.Span {
	var spans []trace.Span
	for t := 0; t < n; t++ {
		base := sim.Time(t) * 1000
		root := uint64(t*5 + 1)
		at := func(off int) sim.Time { return base + sim.Time(off) }
		spans = append(spans,
			trace.Span{Trace: root, ID: root + 1, Parent: root, Name: "cpu", Phase: trace.Queue, Start: at(0), End: at(100)},
			trace.Span{Trace: root, ID: root + 3, Parent: root + 2, Name: "rpc", Phase: trace.Fabric, Start: at(150), End: at(400)},
			trace.Span{Trace: root, ID: root + 2, Parent: root, Name: "gets", Phase: trace.Coherence, Start: at(100), End: at(500)},
			trace.Span{Trace: root, ID: root + 4, Parent: root, Name: "read", Phase: trace.Disk, Start: at(500), End: at(900)},
			trace.Span{Trace: root, ID: root, Name: "read", Phase: trace.Op, Start: at(0), End: at(900)},
		)
	}
	return spans
}
