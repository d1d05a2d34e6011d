package controller

import (
	"fmt"

	"repro/internal/qos"
	"repro/internal/raid"
	"repro/internal/sim"
	"repro/internal/virt"
)

// StorageClass describes one redundancy tier of the farm (§4: file
// metadata can "override the automatic selection of RAID type" — each
// class is a set of RAID groups of one level, carved into its own pool).
type StorageClass struct {
	Name          string
	Level         raid.Level
	Disks         int
	DisksPerGroup int
}

// AddClass carves a new storage class out of additional drives: it builds
// the class's RAID groups and pool and registers them with the cluster.
func (c *Cluster) AddClass(sc StorageClass) error {
	if _, exists := c.classPools[sc.Name]; exists {
		return fmt.Errorf("controller: class %q exists", sc.Name)
	}
	pool, err := c.addFarm("disk."+sc.Name, sc.Level, sc.Disks, sc.DisksPerGroup)
	if err != nil {
		return err
	}
	c.classPools[sc.Name] = pool
	return nil
}

// PoolFor returns the pool backing a storage class ("" or "default" = the
// cluster's primary pool).
func (c *Cluster) PoolFor(class string) (*virt.Pool, error) {
	if class == "" || class == "default" {
		return c.Pool, nil
	}
	p, ok := c.classPools[class]
	if !ok {
		return nil, fmt.Errorf("controller: no storage class %q", class)
	}
	return p, nil
}

// CreateDMSD creates a demand-mapped device in the named class.
func (c *Cluster) CreateDMSD(class, name string, virtExtents int64) (*virt.Volume, error) {
	pool, err := c.PoolFor(class)
	if err != nil {
		return nil, err
	}
	if c.findVolume(name) != nil {
		return nil, fmt.Errorf("controller: volume %q exists", name)
	}
	return pool.CreateDMSD(name, virtExtents)
}

// CreateVolume creates a thick volume in the named class.
func (c *Cluster) CreateVolume(class, name string, sizeBlocks int64) (*virt.Volume, error) {
	pool, err := c.PoolFor(class)
	if err != nil {
		return nil, err
	}
	if c.findVolume(name) != nil {
		return nil, fmt.Errorf("controller: volume %q exists", name)
	}
	return pool.CreateVolume(name, sizeBlocks)
}

// findVolume resolves a volume name across every pool.
func (c *Cluster) findVolume(name string) *virt.Volume {
	if v, ok := c.Pool.Volumes()[name]; ok {
		return v
	}
	for _, pool := range c.classPools {
		if v, ok := pool.Volumes()[name]; ok {
			return v
		}
	}
	return nil
}

// ReadBlocks serves a block read through a load-balanced blade — the
// pfs.BlockIO shape (see ClusterIO).
func (c *Cluster) ReadBlocks(p *sim.Proc, vol string, lba int64, count int, priority int) ([]byte, error) {
	return c.Read(p, c.PickBlade(), vol, lba, count, priority)
}

// ReadBlocksInto is ReadBlocks into the caller's dst, a whole number of
// blocks: pfs reads through it.
func (c *Cluster) ReadBlocksInto(p *sim.Proc, vol string, lba int64, dst []byte, priority int) error {
	return c.ReadInto(p, c.PickBlade(), vol, lba, dst, priority)
}

// WriteBlocks serves a block write through a load-balanced blade.
func (c *Cluster) WriteBlocks(p *sim.Proc, vol string, lba int64, data []byte, priority, replFactor int) error {
	return c.WriteR(p, c.PickBlade(), vol, lba, data, priority, replFactor)
}

// CloneComputePerExtent is the per-extent copy CPU charged to the blade
// performing it (checksum + move engine), the §2.4 "mirror creation" cost
// that distributing over blades parallelizes.
const CloneComputePerExtent = 2 * sim.Millisecond

// DistributedClone creates dstName in the named class as a full physical
// copy of srcVol (§2.4: mirror creation and point-in-time copy run as
// distributed storage services). Dirty cache data is destaged first so the
// copy is crash-consistent; extent copies are then spread over every live
// blade. Returns the number of extents copied.
func (c *Cluster) DistributedClone(p *sim.Proc, class, srcVol, dstName string) (int, error) {
	src := c.findVolume(srcVol)
	if src == nil {
		return 0, fmt.Errorf("controller: no volume %q", srcVol)
	}
	dst, err := c.CreateDMSD(class, dstName, src.VirtExtents())
	if err != nil {
		return 0, err
	}
	c.FlushAll(p)
	pool, err := c.PoolFor(class)
	if err != nil {
		return 0, err
	}
	extents := src.MappedExtentIndexes()
	eb := pool.ExtentBlocks()
	next := 0
	failed := false
	live := c.Alive()
	err = sim.Fork(p, "clone", len(live), func(q *sim.Proc, i int) error {
		b := c.Blades[live[i]]
		// Point-in-time copy is background service traffic (§2.4).
		qos.TagBackground(q)
		for !b.Down && next < len(extents) && !failed {
			ext := extents[next]
			next++
			b.Engine.Busy(q, CloneComputePerExtent)
			data, err := src.Read(q, ext*eb, int(eb))
			if err == nil {
				err = dst.Write(q, ext*eb, data)
			}
			if err != nil {
				failed = true
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return len(extents), nil
}
