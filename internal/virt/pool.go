// Package virt implements the paper's storage virtualization layer (§3):
// a shared pool of physical extents carved from backing devices (RAID
// groups), classic fully-provisioned virtual volumes, demand-mapped storage
// devices (DMSDs) whose virtual-to-real mappings are created on first write
// and freed on trim, and copy-on-write snapshots (§7.2).
package virt

import (
	"errors"
	"fmt"

	"repro/internal/sim"
)

// BlockDevice is the abstraction the pool carves extents from — in the full
// system a raid.Group, in unit tests any in-memory implementation.
type BlockDevice interface {
	BlockSize() int
	Capacity() int64
	// ReadInto fills dst, a whole number of blocks that may hold anything,
	// from lba on; what the device never stored reads as zeros.
	ReadInto(p *sim.Proc, lba int64, dst []byte) error
	Write(p *sim.Proc, lba int64, data []byte) error
}

// ErrPoolExhausted is returned when no free extents remain.
var ErrPoolExhausted = errors.New("virt: pool exhausted")

// ErrOutOfRange is returned for I/O beyond a volume's virtual size.
var ErrOutOfRange = errors.New("virt: access out of volume range")

// ErrReadOnly is returned for writes to snapshots.
var ErrReadOnly = errors.New("virt: volume is read-only")

// extentRef locates one physical extent.
type extentRef struct {
	dev   int
	start int64 // starting block on the device
}

// Pool manages physical extents across backing devices and the volumes
// mapped onto them.
type Pool struct {
	k            *sim.Kernel
	devices      []BlockDevice
	extentBlocks int64
	blockSize    int
	free         []extentRef
	refcount     map[extentRef]int
	volumes      map[string]*Volume
	nextAlloc    int // round-robin cursor over devices at build time
	totalExtents int64
}

// NewPool builds a pool over devices, dividing each into extents of
// extentBlocks blocks. All devices must share a block size.
func NewPool(k *sim.Kernel, extentBlocks int64, devices ...BlockDevice) (*Pool, error) {
	if len(devices) == 0 {
		return nil, errors.New("virt: pool needs at least one device")
	}
	if extentBlocks <= 0 {
		return nil, errors.New("virt: extent size must be positive")
	}
	bs := devices[0].BlockSize()
	pl := &Pool{
		k:            k,
		devices:      devices,
		extentBlocks: extentBlocks,
		blockSize:    bs,
		refcount:     make(map[extentRef]int),
		volumes:      make(map[string]*Volume),
	}
	// Interleave extents across devices so consecutive allocations land on
	// different spindle groups — the pool-wide load spreading of §2.
	perDev := make([][]extentRef, len(devices))
	for i, d := range devices {
		if d.BlockSize() != bs {
			return nil, errors.New("virt: mixed block sizes in pool")
		}
		n := d.Capacity() / extentBlocks
		for e := int64(0); e < n; e++ {
			perDev[i] = append(perDev[i], extentRef{dev: i, start: e * extentBlocks})
		}
	}
	for round := 0; ; round++ {
		added := false
		for i := range perDev {
			if round < len(perDev[i]) {
				pl.free = append(pl.free, perDev[i][round])
				added = true
			}
		}
		if !added {
			break
		}
	}
	// Allocate from the front: reverse so pop-from-end yields interleaved order.
	for i, j := 0, len(pl.free)-1; i < j; i, j = i+1, j-1 {
		pl.free[i], pl.free[j] = pl.free[j], pl.free[i]
	}
	pl.totalExtents = int64(len(pl.free))
	return pl, nil
}

// BlockSize returns the pool's block size in bytes.
func (pl *Pool) BlockSize() int { return pl.blockSize }

// ExtentBlocks returns the extent size in blocks.
func (pl *Pool) ExtentBlocks() int64 { return pl.extentBlocks }

// ExtentBytes returns the extent size in bytes.
func (pl *Pool) ExtentBytes() int64 { return pl.extentBlocks * int64(pl.blockSize) }

// TotalExtents returns the pool's physical extent count.
func (pl *Pool) TotalExtents() int64 { return pl.totalExtents }

// FreeExtents returns the number of unallocated extents.
func (pl *Pool) FreeExtents() int64 { return int64(len(pl.free)) }

// AllocatedExtents returns extents currently referenced by volumes or
// snapshots.
func (pl *Pool) AllocatedExtents() int64 { return pl.totalExtents - int64(len(pl.free)) }

// AllocatedBytes returns the physically consumed capacity.
func (pl *Pool) AllocatedBytes() int64 { return pl.AllocatedExtents() * pl.ExtentBytes() }

// Volumes returns the live volumes by name.
func (pl *Pool) Volumes() map[string]*Volume { return pl.volumes }

func (pl *Pool) alloc() (extentRef, error) {
	if len(pl.free) == 0 {
		return extentRef{}, ErrPoolExhausted
	}
	e := pl.free[len(pl.free)-1]
	pl.free = pl.free[:len(pl.free)-1]
	pl.refcount[e] = 1
	return e, nil
}

func (pl *Pool) ref(e extentRef) { pl.refcount[e]++ }

func (pl *Pool) unref(e extentRef) {
	pl.refcount[e]--
	if pl.refcount[e] < 0 {
		panic("virt: extent refcount negative")
	}
	if pl.refcount[e] == 0 {
		delete(pl.refcount, e)
		pl.free = append(pl.free, e)
	}
}

// Kind distinguishes volume provisioning models.
type Kind int

const (
	// Thick volumes allocate their full size at creation — the
	// "traditional virtual disk" the paper contrasts against.
	Thick Kind = iota
	// Demand volumes (DMSDs) map extents on first write (§3).
	Demand
	// Snapshot volumes are read-only point-in-time images (§7.2).
	Snapshot
)

func (k Kind) String() string {
	switch k {
	case Thick:
		return "thick"
	case Demand:
		return "dmsd"
	case Snapshot:
		return "snapshot"
	default:
		return "unknown"
	}
}

// CreateVolume creates a fully provisioned volume of sizeBlocks blocks
// (rounded up to whole extents), failing if the pool lacks space.
func (pl *Pool) CreateVolume(name string, sizeBlocks int64) (*Volume, error) {
	if _, exists := pl.volumes[name]; exists {
		return nil, fmt.Errorf("virt: volume %q exists", name)
	}
	extents := (sizeBlocks + pl.extentBlocks - 1) / pl.extentBlocks
	if extents > int64(len(pl.free)) {
		return nil, fmt.Errorf("%w: need %d extents, %d free", ErrPoolExhausted, extents, len(pl.free))
	}
	v := &Volume{pool: pl, name: name, kind: Thick, virtExtents: extents, mapping: make(map[int64]extentRef)}
	for i := int64(0); i < extents; i++ {
		e, err := pl.alloc()
		if err != nil {
			v.release()
			return nil, err
		}
		v.mapping[i] = e
	}
	pl.volumes[name] = v
	return v, nil
}

// CreateDMSD creates a demand-mapped device with a virtual size of
// virtExtents extents (each ExtentBytes() long) and no physical allocation.
// Virtual sizes up to the paper's 1.5 yottabytes are representable
// (1.5 YB at 1 MiB extents ≈ 1.4×10¹⁸ extents).
func (pl *Pool) CreateDMSD(name string, virtExtents int64) (*Volume, error) {
	if _, exists := pl.volumes[name]; exists {
		return nil, fmt.Errorf("virt: volume %q exists", name)
	}
	if virtExtents <= 0 {
		return nil, errors.New("virt: DMSD size must be positive")
	}
	v := &Volume{pool: pl, name: name, kind: Demand, virtExtents: virtExtents, mapping: make(map[int64]extentRef)}
	v.cowMu = sim.NewMutex(pl.k)
	pl.volumes[name] = v
	return v, nil
}

// Delete removes a volume and releases its extents (shared COW extents
// survive while snapshots still reference them).
func (pl *Pool) Delete(name string) error {
	v, ok := pl.volumes[name]
	if !ok {
		return fmt.Errorf("virt: no volume %q", name)
	}
	v.release()
	delete(pl.volumes, name)
	return nil
}
