package virt

import (
	"errors"
	"fmt"

	"repro/internal/sim"
)

// ErrNoSpaceOn is returned when a target device has no free extents.
var ErrNoSpaceOn = errors.New("virt: no free extents on target device")

// allocOn pops a free extent living on device dev.
func (pl *Pool) allocOn(dev int) (extentRef, error) {
	for i := len(pl.free) - 1; i >= 0; i-- {
		if pl.free[i].dev == dev {
			e := pl.free[i]
			pl.free = append(pl.free[:i], pl.free[i+1:]...)
			pl.refcount[e] = 1
			return e, nil
		}
	}
	return extentRef{}, fmt.Errorf("%w: device %d", ErrNoSpaceOn, dev)
}

// ExtentDevice reports which backing device holds virtual extent ext
// (-1 when unmapped) — the observability side of §3's virtualization.
func (v *Volume) ExtentDevice(ext int64) int {
	if e, ok := v.mapping[ext]; ok {
		return e.dev
	}
	return -1
}

// MigrateExtent moves one mapped virtual extent onto device toDev: the
// data is copied and only the virtual-to-real mapping changes — hosts
// keep addressing the same virtual blocks throughout ("changes in the
// physical location of storage blocks … accommodated by a simple update
// of the virtual-to-real mappings", §3). Extents shared with snapshots
// are copied away; the snapshot keeps the original.
func (v *Volume) MigrateExtent(p *sim.Proc, ext int64, toDev int) error {
	if v.deleted {
		return fmt.Errorf("virt: volume %q deleted", v.name)
	}
	if v.kind == Snapshot {
		return ErrReadOnly
	}
	if toDev < 0 || toDev >= len(v.pool.devices) {
		return fmt.Errorf("virt: no device %d", toDev)
	}
	if v.cowMu == nil {
		v.cowMu = sim.NewMutex(v.pool.k)
	}
	v.cowMu.Lock(p)
	defer v.cowMu.Unlock()
	old, ok := v.mapping[ext]
	if !ok {
		return fmt.Errorf("virt: extent %d not mapped", ext)
	}
	if old.dev == toDev {
		return nil
	}
	ne, err := v.pool.allocOn(toDev)
	if err != nil {
		return err
	}
	data := make([]byte, v.pool.ExtentBytes())
	if err := v.pool.devices[old.dev].ReadInto(p, old.start, data); err != nil {
		v.pool.unref(ne)
		return err
	}
	if err := v.pool.devices[ne.dev].Write(p, ne.start, data); err != nil {
		v.pool.unref(ne)
		return err
	}
	v.pool.unref(old)
	v.mapping[ext] = ne
	return nil
}

// DeviceLoad reports how many allocated extents live on each device.
func (pl *Pool) DeviceLoad() []int64 {
	load := make([]int64, len(pl.devices))
	for e, rc := range pl.refcount {
		if rc > 0 {
			load[e.dev]++
		}
	}
	return load
}

// Evacuate migrates every writable volume's extents off device dev —
// the online decommissioning that lets the system be upgraded
// "incrementally … never taken down for maintenance" (§6.3). Snapshots
// pin their shared extents; those stay (the caller deletes or ages out
// snapshots first for a full drain). Returns the number of extents moved.
func (pl *Pool) Evacuate(p *sim.Proc, dev int) (int, error) {
	if dev < 0 || dev >= len(pl.devices) {
		return 0, fmt.Errorf("virt: no device %d", dev)
	}
	moved := 0
	for _, v := range pl.volumes {
		if v.kind == Snapshot {
			continue
		}
		for ext, e := range v.mapping {
			if e.dev != dev {
				continue
			}
			target := pl.pickTargetAvoiding(dev)
			if target < 0 {
				return moved, fmt.Errorf("%w: nowhere to evacuate", ErrPoolExhausted)
			}
			if err := v.MigrateExtent(p, ext, target); err != nil {
				return moved, err
			}
			moved++
		}
	}
	return moved, nil
}

// pickTargetAvoiding returns the least-loaded device with free space,
// excluding avoid (-1 if none).
func (pl *Pool) pickTargetAvoiding(avoid int) int {
	freeByDev := make([]int64, len(pl.devices))
	for _, e := range pl.free {
		freeByDev[e.dev]++
	}
	load := pl.DeviceLoad()
	best, bestLoad := -1, int64(1<<62)
	for d := range pl.devices {
		if d == avoid || freeByDev[d] == 0 {
			continue
		}
		if load[d] < bestLoad {
			best, bestLoad = d, load[d]
		}
	}
	return best
}

// Rebalance migrates extents from the most-loaded to the least-loaded
// devices until the spread (max-min) is at most tolerance extents.
// Returns the number of extents moved.
func (pl *Pool) Rebalance(p *sim.Proc, tolerance int64) (int, error) {
	if tolerance < 1 {
		tolerance = 1
	}
	moved := 0
	for iter := 0; iter < 10000; iter++ {
		load := pl.DeviceLoad()
		maxD, minD := 0, 0
		for d := range load {
			if load[d] > load[maxD] {
				maxD = d
			}
			if load[d] < load[minD] {
				minD = d
			}
		}
		if load[maxD]-load[minD] <= tolerance {
			return moved, nil
		}
		// Find one migratable extent on maxD.
		migrated := false
		for _, v := range pl.volumes {
			if v.kind == Snapshot {
				continue
			}
			for ext, e := range v.mapping {
				if e.dev != maxD {
					continue
				}
				if err := v.MigrateExtent(p, ext, minD); err != nil {
					return moved, err
				}
				moved++
				migrated = true
				break
			}
			if migrated {
				break
			}
		}
		if !migrated {
			return moved, nil // only snapshot-pinned extents remain
		}
	}
	return moved, nil
}
