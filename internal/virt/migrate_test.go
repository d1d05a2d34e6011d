package virt

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"slices"
	"testing"

	"repro/internal/sim"
)

func TestMigrateExtentPreservesData(t *testing.T) {
	k := sim.NewKernel(1)
	pl := newTestPool(t, k, 64, 2)
	v, _ := pl.CreateDMSD("m", 100)
	data := pattern(512*8, 9)
	run(k, func(p *sim.Proc) {
		v.Write(p, 0, data)
		from := v.ExtentDevice(0)
		to := 1 - from
		if err := v.MigrateExtent(p, 0, to); err != nil {
			t.Errorf("migrate: %v", err)
			return
		}
		if v.ExtentDevice(0) != to {
			t.Error("mapping not updated")
		}
		got, err := v.Read(p, 0, 8)
		if err != nil || !bytes.Equal(got, data) {
			t.Error("data changed by migration")
		}
	})
	if pl.AllocatedExtents() != 1 {
		t.Fatalf("allocated = %d after migration, want 1 (old freed)", pl.AllocatedExtents())
	}
}

func TestMigrateToSameDeviceIsNoOp(t *testing.T) {
	k := sim.NewKernel(1)
	pl := newTestPool(t, k, 64, 2)
	v, _ := pl.CreateDMSD("m", 10)
	run(k, func(p *sim.Proc) {
		v.Write(p, 0, pattern(512, 1))
		d := v.ExtentDevice(0)
		if err := v.MigrateExtent(p, 0, d); err != nil {
			t.Errorf("noop migrate: %v", err)
		}
	})
}

func TestMigrateUnmappedFails(t *testing.T) {
	k := sim.NewKernel(1)
	pl := newTestPool(t, k, 64, 2)
	v, _ := pl.CreateDMSD("m", 10)
	run(k, func(p *sim.Proc) {
		if err := v.MigrateExtent(p, 5, 0); err == nil {
			t.Error("migrating unmapped extent succeeded")
		}
	})
}

func TestMigrateSharedExtentLeavesSnapshotIntact(t *testing.T) {
	k := sim.NewKernel(1)
	pl := newTestPool(t, k, 64, 2)
	v, _ := pl.CreateDMSD("m", 10)
	orig := pattern(512*8, 3)
	run(k, func(p *sim.Proc) {
		v.Write(p, 0, orig)
	})
	snap, _ := v.SnapshotAs("s")
	run(k, func(p *sim.Proc) {
		from := v.ExtentDevice(0)
		if err := v.MigrateExtent(p, 0, 1-from); err != nil {
			t.Errorf("migrate shared: %v", err)
			return
		}
		got, err := snap.Read(p, 0, 8)
		if err != nil || !bytes.Equal(got, orig) {
			t.Error("snapshot content changed by source migration")
		}
	})
	// Both the snapshot's original extent and the migrated copy are live.
	if pl.AllocatedExtents() != 2 {
		t.Fatalf("allocated = %d, want 2", pl.AllocatedExtents())
	}
}

func TestEvacuateDrainsDevice(t *testing.T) {
	k := sim.NewKernel(1)
	pl := newTestPool(t, k, 512, 3)
	v, _ := pl.CreateDMSD("m", 1000)
	run(k, func(p *sim.Proc) {
		for i := int64(0); i < 12; i++ {
			v.Write(p, i*8, pattern(512, byte(i)))
		}
		moved, err := pl.Evacuate(p, 0)
		if err != nil {
			t.Errorf("evacuate: %v", err)
			return
		}
		if moved == 0 {
			t.Error("nothing moved")
		}
	})
	if load := pl.DeviceLoad(); load[0] != 0 {
		t.Fatalf("device 0 still holds %d extents after evacuation", load[0])
	}
	// All data still readable.
	run(k, func(p *sim.Proc) {
		for i := int64(0); i < 12; i++ {
			got, err := v.Read(p, i*8, 1)
			if err != nil || got[0] != pattern(1, byte(i))[0] {
				t.Errorf("extent %d unreadable after evacuation: %v", i, err)
			}
		}
	})
}

func TestRebalanceEvensLoad(t *testing.T) {
	k := sim.NewKernel(1)
	pl := newTestPool(t, k, 512, 2)
	v, _ := pl.CreateDMSD("m", 1000)
	run(k, func(p *sim.Proc) {
		for i := int64(0); i < 16; i++ {
			v.Write(p, i*8, pattern(512, byte(i)))
		}
		// Skew: pull everything onto device 0.
		for i := int64(0); i < 16; i++ {
			if v.ExtentDevice(i) == 1 {
				if err := v.MigrateExtent(p, i, 0); err != nil {
					t.Errorf("skew: %v", err)
					return
				}
			}
		}
		if load := pl.DeviceLoad(); load[0] != 16 {
			t.Errorf("skew failed: %v", load)
			return
		}
		moved, err := pl.Rebalance(p, 2)
		if err != nil {
			t.Errorf("rebalance: %v", err)
			return
		}
		if moved < 6 {
			t.Errorf("moved only %d extents", moved)
		}
	})
	load := pl.DeviceLoad()
	if diff := load[0] - load[1]; diff > 2 || diff < -2 {
		t.Fatalf("unbalanced after rebalance: %v", load)
	}
}

func TestEvacuateFullPoolFails(t *testing.T) {
	k := sim.NewKernel(1)
	pl := newTestPool(t, k, 64, 1) // single device: nowhere to go
	v, _ := pl.CreateDMSD("m", 10)
	run(k, func(p *sim.Proc) {
		v.Write(p, 0, pattern(512, 1))
		if _, err := pl.Evacuate(p, 0); !errors.Is(err, ErrPoolExhausted) {
			t.Errorf("err = %v, want ErrPoolExhausted", err)
		}
	})
}

// migrationLayout builds a pool of three devices holding two thick
// volumes, runs migrate on it, and returns the device of every extent.
func migrationLayout(t *testing.T, migrate func(p *sim.Proc, pl *Pool) error) string {
	t.Helper()
	k := sim.NewKernel(1)
	pl := newTestPool(t, k, 256, 3)
	for _, name := range []string{"a", "b"} {
		if _, err := pl.CreateVolume(name, 8*8); err != nil {
			t.Fatal(err)
		}
	}
	run(k, func(p *sim.Proc) {
		if err := migrate(p, pl); err != nil {
			t.Errorf("migrate: %v", err)
		}
	})
	var layout []byte
	for _, name := range slices.Sorted(maps.Keys(pl.Volumes())) {
		v := pl.Volumes()[name]
		layout = fmt.Appendf(layout, "%s:", name)
		for ext := int64(0); ext < v.VirtExtents(); ext++ {
			layout = fmt.Appendf(layout, " %d", v.ExtentDevice(ext))
		}
		layout = append(layout, '\n')
	}
	return fmt.Sprintf("%s%v", layout, pl.DeviceLoad())
}

// TestMigrationSameSeedSameLayout: evacuating a device and rebalancing
// the pool place every extent on the same device on every same-seed run.
func TestMigrationSameSeedSameLayout(t *testing.T) {
	for name, migrate := range map[string]func(p *sim.Proc, pl *Pool) error{
		"evacuate": func(p *sim.Proc, pl *Pool) error {
			_, err := pl.Evacuate(p, 0)
			return err
		},
		"rebalance": func(p *sim.Proc, pl *Pool) error {
			if _, err := pl.Evacuate(p, 0); err != nil {
				return err
			}
			_, err := pl.Rebalance(p, 1)
			return err
		},
	} {
		first := migrationLayout(t, migrate)
		for run := 1; run < 30; run++ {
			if got := migrationLayout(t, migrate); got != first {
				t.Fatalf("%s: run %d layout differs from run 0:\n%s\nvs\n%s", name, run, got, first)
			}
		}
	}
}
