package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/disk"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// TestFileSurvivesBladeFailure drives the full stack: files written through
// the PFS, a blade killed before any flush, and the data recovered from
// cache replicas (§6.1 end to end).
func TestFileSurvivesBladeFailure(t *testing.T) {
	sys := newTestSystem(t, Options{DiskSpec: fastDisks(), ReplicationN: 2})
	data := bytes.Repeat([]byte("irreplaceable "), 200)
	err := sys.Run(0, func(p *sim.Proc) error {
		if err := sys.FS.WriteFile(p, "/results.dat", data, pfs.Policy{}); err != nil {
			return err
		}
		// Kill half the blades immediately (no flush interval elapsed).
		if err := sys.Cluster.FailBlade(p, 0); err != nil {
			return err
		}
		if err := sys.Cluster.FailBlade(p, 1); err != nil {
			return err
		}
		got, err := sys.FS.ReadFile(p, "/results.dat")
		if err != nil {
			return err
		}
		if !bytes.Equal(got, data) {
			t.Error("file corrupted by blade failures")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFileSurvivesDiskFailureAndRebuild exercises PFS → virt → RAID
// degraded reads and a distributed rebuild under the whole stack.
func TestFileSurvivesDiskFailureAndRebuild(t *testing.T) {
	sys := newTestSystem(t, Options{DiskSpec: fastDisks()})
	data := bytes.Repeat([]byte("raid"), 4096)
	err := sys.Run(0, func(p *sim.Proc) error {
		if err := sys.FS.WriteFile(p, "/big.bin", data, pfs.Policy{}); err != nil {
			return err
		}
		sys.Cluster.FlushAll(p)
		// Fail a drive in every group the file could touch; reads must
		// come back degraded but correct.
		sys.Cluster.Groups[0].Disks()[2].Fail()
		got, err := sys.FS.ReadFile(p, "/big.bin")
		if err != nil {
			return err
		}
		if !bytes.Equal(got, data) {
			t.Error("degraded read corrupted file")
		}
		if err := sys.Cluster.DistributedRebuild(p, 0, 2); err != nil {
			return err
		}
		got, err = sys.FS.ReadFile(p, "/big.bin")
		if err != nil {
			return err
		}
		if !bytes.Equal(got, data) {
			t.Error("post-rebuild read corrupted file")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestManyFilesManyClients is a smoke-scale full-stack workout: concurrent
// writers and readers over a shared directory tree.
func TestManyFilesManyClients(t *testing.T) {
	sys := newTestSystem(t, Options{DiskSpec: fastDisks()})
	const nClients = 8
	const filesPer = 6
	err := sys.Run(0, func(p *sim.Proc) error {
		if err := sys.FS.MkdirAll("/work"); err != nil {
			return err
		}
		grp := sim.NewGroup(sys.K)
		errs := make([]error, nClients)
		for c := 0; c < nClients; c++ {
			c := c
			grp.Add(1)
			sys.K.Go("client", func(q *sim.Proc) {
				defer grp.Done()
				for f := 0; f < filesPer; f++ {
					path := fmt.Sprintf("/work/c%d-f%d", c, f)
					payload := bytes.Repeat([]byte{byte(c*16 + f)}, 2048)
					if err := sys.FS.WriteFile(q, path, payload, pfs.Policy{}); err != nil {
						errs[c] = err
						return
					}
					got, err := sys.FS.ReadFile(q, path)
					if err != nil || !bytes.Equal(got, payload) {
						errs[c] = fmt.Errorf("verify %s: %v", path, err)
						return
					}
				}
			})
		}
		grp.Wait(p)
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		names, err := sys.FS.List("/work")
		if err != nil {
			return err
		}
		if len(names) != nClients*filesPer {
			t.Errorf("files = %d, want %d", len(names), nClients*filesPer)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGeoSiteDisasterEndToEnd: full-stack site failover with per-file
// policies (sync file survives, unreplicated file is lost).
func TestGeoSiteDisasterEndToEnd(t *testing.T) {
	gs, err := NewGeoSystem(1, GeoOptions{
		Sites:     []string{"east", "west"},
		WANOneWay: 10 * sim.Millisecond,
		SiteOptions: func(string) Options {
			return Options{DiskSpec: fastDisks()}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gs.K.Close()
	key := bytes.Repeat([]byte("key"), 1000)
	err = gs.Run(0, func(p *sim.Proc) error {
		east := gs.Site("east")
		syncPol := pfs.Policy{Geo: pfs.GeoPolicy{Mode: pfs.GeoSync, Sites: []string{"west"}}}
		if err := east.Create(p, "/critical", syncPol); err != nil {
			return err
		}
		if err := east.WriteAt(p, "/critical", 0, key); err != nil {
			return err
		}
		if err := east.Create(p, "/scratch", pfs.Policy{}); err != nil {
			return err
		}
		if err := east.WriteAt(p, "/scratch", 0, []byte("ephemeral")); err != nil {
			return err
		}
		gs.Fed.FailSite("east")
		recovered, lost := gs.Fed.Failover("east")
		if recovered != 1 || lost != 1 {
			t.Errorf("failover recovered=%d lost=%d, want 1/1", recovered, lost)
		}
		west := gs.Site("west")
		got := make([]byte, len(key))
		if _, err := west.ReadAt(p, "/critical", 0, got); err != nil {
			return err
		}
		if !bytes.Equal(got, key) {
			t.Error("sync-replicated file damaged by site disaster")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDeterminism: two identical systems with the same seed produce
// identical virtual-time traces — the property every experiment rests on.
func TestDeterminism(t *testing.T) {
	runOnce := func() sim.Time {
		sys := newTestSystem(t, Options{Seed: 77, DiskSpec: fastDisks()})
		var end sim.Time
		sys.Run(0, func(p *sim.Proc) error {
			for i := 0; i < 10; i++ {
				path := fmt.Sprintf("/f%d", i)
				sys.FS.WriteFile(p, path, bytes.Repeat([]byte{byte(i)}, 1024), pfs.Policy{})
				sys.FS.ReadFile(p, path)
			}
			end = p.Now()
			return nil
		})
		return end
	}
	if a, b := runOnce(), runOnce(); a != b {
		t.Fatalf("same seed, different virtual end times: %v vs %v", a, b)
	}
}

// TestStreamsOverTailFirstFilesStayInStep is the seed-to-seed steadiness of
// the streaming read path, end to end: eight clients each stream their own
// file in 256 KiB reads over four RAID groups, every block a miss. A run read
// is one positioning time per member disk, so the rate is the groups' service
// rate times the share of time none of them stands empty — and none does when
// every file rotates over the groups alike, which virt guarantees by placing
// a demand-mapped extent by its address. The files here are allocated tail
// first, as a writer that sets the length before the data does; placed in
// order of arrival each had a kink in its rotation where the streams met, and
// the same reads delivered four fifths of the ceiling, by an amount that
// depended on where they started.
func TestStreamsOverTailFirstFilesStayInStep(t *testing.T) {
	if testing.Short() {
		t.Skip("three full-stack systems")
	}
	const (
		files, fileBytes, readBytes = 8, 8 << 20, 256 << 10
		warm, ops                   = 480, 800 // the streams take a few rotations to fall into step
	)
	spec := disk.Spec{BlockSize: 4096, Blocks: 1 << 16,
		Seek: 5 * sim.Millisecond, Rotation: 3 * sim.Millisecond, TransferBps: 400_000_000}
	rate := func(seed int64) float64 {
		sys := newTestSystem(t, Options{Seed: seed, Blades: 8, Disks: 24, DisksPerGroup: 6,
			DiskSpec: spec, CacheBlocksPerBlade: 256})
		path := func(f int) string { return fmt.Sprintf("/f%d", f) }
		var elapsed sim.Duration
		err := sys.Run(0, func(p *sim.Proc) error {
			chunk := bytes.Repeat([]byte{0xA5}, 1<<20)
			for f := 0; f < files; f++ {
				if _, err := sys.FS.Create(path(f), pfs.Policy{}); err != nil {
					return err
				}
				if _, err := sys.FS.WriteAt(p, path(f), fileBytes-4096, chunk[:4096]); err != nil {
					return err
				}
				for off := int64(0); off < fileBytes; off += int64(len(chunk)) {
					if _, err := sys.FS.WriteAt(p, path(f), off, chunk); err != nil {
						return err
					}
				}
			}
			sys.Cluster.FlushAll(p)
			rng := rand.New(rand.NewSource(seed))
			next, done := 0, 0
			var start, end sim.Time
			grp := sim.NewGroup(sys.K)
			errs := make([]error, files)
			for c := 0; c < files; c++ {
				c, off := c, int64(rng.Intn(fileBytes/readBytes))*readBytes
				grp.Add(1)
				sys.K.Go("stream", func(q *sim.Proc) {
					defer grp.Done()
					buf := make([]byte, readBytes)
					for next < warm+ops && errs[c] == nil {
						next++
						_, errs[c] = sys.FS.ReadAt(q, path(c), off, buf)
						off = (off + readBytes) % fileBytes
						switch done++; done {
						case warm:
							start = q.Now()
						case warm + ops:
							end = q.Now()
						}
					}
				})
			}
			grp.Wait(p)
			elapsed = end.Sub(start)
			for _, err := range errs {
				if err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return ops / elapsed.Seconds()
	}
	// An op's 64 blocks are 13 stripe rows (one in six of them parity) on
	// each of a group's six disks: one positioning time and their transfer.
	ceiling := 4 / (spec.Seek + spec.Rotation + spec.TransferTime(13)).Seconds()
	lo, hi := ceiling, 0.0
	for seed := int64(1); seed <= 3; seed++ {
		r := rate(seed)
		t.Logf("seed %d: %.1f ops/s (ceiling %.1f)", seed, r, ceiling)
		lo, hi = min(lo, r), max(hi, r)
	}
	if lo < 0.96*ceiling {
		t.Errorf("slowest seed %.1f ops/s: under 96%% of the four groups' %.1f", lo, ceiling)
	}
	if hi-lo > 0.02*ceiling {
		t.Errorf("seeds spread %.1f-%.1f ops/s: over 2%% of %.1f", lo, hi, ceiling)
	}
}
