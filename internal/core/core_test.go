package core

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/disk"
	"repro/internal/pfs"
	"repro/internal/qos"
	"repro/internal/raid"
	"repro/internal/sim"
)

// newTestSystem is NewSystem for a test: its kernel closes when the test
// ends.
func newTestSystem(t *testing.T, opts Options) *System {
	t.Helper()
	sys, err := NewSystem(opts)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	t.Cleanup(sys.K.Close)
	return sys
}

// fastDisks keeps unit-test systems small and quick.
func fastDisks() disk.Spec {
	return disk.Spec{
		BlockSize:   512,
		Blocks:      8192,
		Seek:        sim.Millisecond,
		Rotation:    sim.Millisecond,
		TransferBps: 800_000_000,
	}
}

func TestSystemEndToEndFile(t *testing.T) {
	sys := newTestSystem(t, Options{DiskSpec: fastDisks()})
	data := []byte("a single storage pool for the whole lab")
	err := sys.Run(0, func(p *sim.Proc) error {
		if err := sys.FS.MkdirAll("/projects/alpha"); err != nil {
			return err
		}
		if err := sys.FS.WriteFile(p, "/projects/alpha/run1.dat", data, pfs.Policy{}); err != nil {
			return err
		}
		got, err := sys.FS.ReadFile(p, "/projects/alpha/run1.dat")
		if err != nil {
			return err
		}
		if !bytes.Equal(got, data) {
			t.Error("file round trip mismatch")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSystemExtraClassesEndToEnd(t *testing.T) {
	// §4 / F4: a file whose policy names the mirror class lands on RAID-1
	// groups, end to end.
	sys := newTestSystem(t, Options{
		DiskSpec: fastDisks(),
		ExtraClasses: []Class{
			{Name: "mirror", Level: raid.RAID1, Disks: 4, DisksPerGroup: 2},
		},
	})
	data := bytes.Repeat([]byte("precious"), 512)
	err := sys.Run(0, func(p *sim.Proc) error {
		if err := sys.FS.WriteFile(p, "/critical.db", data, pfs.Policy{Class: "mirror", ReplicationN: 3}); err != nil {
			return err
		}
		got, err := sys.FS.ReadFile(p, "/critical.db")
		if err != nil {
			return err
		}
		if !bytes.Equal(got, data) {
			t.Error("mirror-class round trip mismatch")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The mirror pool physically holds the file's extents.
	pool, err := sys.Cluster.PoolFor("mirror")
	if err != nil {
		t.Fatal(err)
	}
	if pool.AllocatedExtents() == 0 {
		t.Fatal("mirror class pool untouched; class routing broken")
	}
}

func TestExtraClassDrivesJoinQoSAndTelemetry(t *testing.T) {
	// An extra class's drives and groups are the cluster's like any other:
	// each drive is registered and sits behind a QoS fair queue, and each
	// group is registered.
	sys := newTestSystem(t, Options{
		DiskSpec: fastDisks(),
		Blades:   2,
		QoS:      &qos.Config{},
		ExtraClasses: []Class{
			{Name: "mirror", Level: raid.RAID1, Disks: 4, DisksPerGroup: 2},
		},
	})
	c := sys.Cluster
	if got, want := len(sys.Registry.Match("disk/*/queue_depth")), len(c.Farm.Disks); got != want {
		t.Errorf("%d drives registered, want %d", got, want)
	}
	if got, want := len(sys.Registry.Match("raid/*/row_writes_full")), len(c.Groups); got != want {
		t.Errorf("%d groups registered, want %d", got, want)
	}
	want := fmt.Sprintf("queues: %d installed\n", len(c.Farm.Disks)+len(c.Blades))
	if rep := sys.QoS.Report(); !strings.Contains(rep, want) {
		t.Errorf("QoS report lacks %q:\n%s", want, rep)
	}
}

func TestSystemSecurityIntegration(t *testing.T) {
	sys := newTestSystem(t, Options{DiskSpec: fastDisks(), EncryptAtRest: true})
	if _, err := sys.Cluster.CreateDMSD("default", "tenant1-lun", 64); err != nil {
		t.Fatal(err)
	}
	sys.BlockGateway.ExportLUN("lun1", "tenant1-lun")
	sys.Auth.CreateTenant("hep")
	tok, _ := sys.Auth.Issue("hep", 3600*sim.Second)
	sys.Mask.Allow("lun1", "hep", 2) // ReadWrite
	payload := bytes.Repeat([]byte{0xAA}, 512)
	err := sys.Run(0, func(p *sim.Proc) error {
		if err := sys.BlockGateway.Write(p, tok, "lun1", 0, payload, 0, 0); err != nil {
			return err
		}
		got, err := sys.BlockGateway.Read(p, tok, "lun1", 0, 1, 0)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, payload) {
			t.Error("gateway round trip mismatch")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestVolumeTarget(t *testing.T) {
	sys := newTestSystem(t, Options{DiskSpec: fastDisks()})
	if _, err := sys.Cluster.CreateDMSD("default", "bench", 256); err != nil {
		t.Fatal(err)
	}
	target := &VolumeTarget{Cluster: sys.Cluster, Vol: "bench"}
	err := sys.Run(0, func(p *sim.Proc) error {
		if err := target.Write(p, 0, 4); err != nil {
			return err
		}
		return target.Read(p, 0, 4)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGeoSystem(t *testing.T) {
	gs, err := NewGeoSystem(1, GeoOptions{
		Sites:     []string{"east", "west"},
		WANOneWay: 20 * sim.Millisecond,
		SiteOptions: func(string) Options {
			return Options{DiskSpec: fastDisks()}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gs.K.Close()
	data := bytes.Repeat([]byte("geo"), 700)
	err = gs.Run(0, func(p *sim.Proc) error {
		east := gs.Site("east")
		west := gs.Site("west")
		if err := east.Create(p, "/shared/data.bin", pfs.Policy{}); err != nil {
			return err
		}
		if err := east.WriteAt(p, "/shared/data.bin", 0, data); err != nil {
			return err
		}
		got := make([]byte, len(data))
		if _, err := west.ReadAt(p, "/shared/data.bin", 0, got); err != nil {
			return err
		}
		if !bytes.Equal(got, data) {
			t.Error("cross-site read mismatch")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if gs.Site("west").Stats.RemoteReads == 0 {
		t.Fatal("west read did not traverse the WAN")
	}
}

// A warm aligned read lands in the caller's buffer: 256 KiB FS.ReadAts the
// blade caches serve allocate far less than the bytes they return.
func TestWarmAlignedReadAllocatesLittle(t *testing.T) {
	spec := fastDisks()
	spec.BlockSize = 4096
	sys := newTestSystem(t, Options{DiskSpec: spec})
	const size, files, reads = 256 << 10, 4, 64
	data := make([]byte, files*size)
	for i := range data {
		data[i] = byte(i * 31)
	}
	buf := make([]byte, size)
	read := func(p *sim.Proc, f int) error {
		off := int64(f) * size
		if _, err := sys.FS.ReadAt(p, "/f", off, buf); err != nil {
			return err
		}
		if !bytes.Equal(buf, data[off:off+size]) {
			return fmt.Errorf("read at %d: wrong bytes", off)
		}
		return nil
	}
	// Reads go to the blades round-robin: each part is read once by every
	// blade before the count starts.
	err := sys.Run(0, func(p *sim.Proc) error {
		if err := sys.FS.WriteFile(p, "/f", data, pfs.Policy{}); err != nil {
			return err
		}
		for f := 0; f < files; f++ {
			for range sys.Cluster.Blades {
				if err := read(p, f); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = sys.Run(0, func(p *sim.Proc) error {
		for i := 0; i < reads; i++ {
			if err := read(p, i%files); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / reads; per >= 64<<10 {
		t.Fatalf("a warm 256 KiB read allocates %d KiB, want < 64", per>>10)
	}
}
