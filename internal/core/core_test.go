package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/disk"
	"repro/internal/pfs"
	"repro/internal/qos"
	"repro/internal/raid"
	"repro/internal/sim"
)

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
	sys, err := NewSystem(Options{DiskSpec: fastDisks()})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()
	data := []byte("a single storage pool for the whole lab")
	err = sys.Run(0, func(p *sim.Proc) error {
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
	sys, err := NewSystem(Options{
		DiskSpec: fastDisks(),
		ExtraClasses: []Class{
			{Name: "mirror", Level: raid.RAID1, Disks: 4, DisksPerGroup: 2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()
	data := bytes.Repeat([]byte("precious"), 512)
	err = sys.Run(0, func(p *sim.Proc) error {
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
	sys, err := NewSystem(Options{
		DiskSpec: fastDisks(),
		Blades:   2,
		QoS:      &qos.Config{},
		ExtraClasses: []Class{
			{Name: "mirror", Level: raid.RAID1, Disks: 4, DisksPerGroup: 2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()
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
	sys, err := NewSystem(Options{DiskSpec: fastDisks(), EncryptAtRest: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()
	if _, err := sys.Cluster.CreateDMSD("default", "tenant1-lun", 64); err != nil {
		t.Fatal(err)
	}
	sys.BlockGateway.ExportLUN("lun1", "tenant1-lun")
	sys.Auth.CreateTenant("hep")
	tok, _ := sys.Auth.Issue("hep", 3600*sim.Second)
	sys.Mask.Allow("lun1", "hep", 2) // ReadWrite
	payload := bytes.Repeat([]byte{0xAA}, 512)
	err = sys.Run(0, func(p *sim.Proc) error {
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
	sys, err := NewSystem(Options{DiskSpec: fastDisks()})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()
	if _, err := sys.Cluster.CreateDMSD("default", "bench", 256); err != nil {
		t.Fatal(err)
	}
	target := &VolumeTarget{Cluster: sys.Cluster, Vol: "bench"}
	err = sys.Run(0, func(p *sim.Proc) error {
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
	defer gs.Stop()
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
