// Package baseline implements the storage architecture the paper argues
// against: a traditional monolithic array with a fixed pair of controllers
// (active-active write-cache mirroring, §6.1), private per-controller
// caches with no inter-controller coherence, and volumes statically owned
// by one controller. Hot volumes therefore saturate one controller while
// the other idles (§2: "hot spots in cache and processors on controllers"),
// and aggregate performance stops scaling at two controllers.
package baseline

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/disk"
	"repro/internal/raid"
	"repro/internal/sim"
	"repro/internal/virt"
)

// Config sizes the array.
type Config struct {
	// CacheBlocksPerController sizes each private cache.
	CacheBlocksPerController int
	// Disks and DisksPerGroup shape the RAID groups.
	Disks         int
	DisksPerGroup int
	RAIDLevel     raid.Level
	DiskSpec      disk.Spec
	ExtentBlocks  int64
	// OpDelay and CPUSlots model each controller's processor.
	OpDelay  sim.Duration
	CPUSlots int
	// FlushInterval drives write-back destaging (0 = 20 ms).
	FlushInterval sim.Duration
}

// DefaultConfig mirrors the cluster's default disk complement.
func DefaultConfig() Config {
	return Config{
		CacheBlocksPerController: 4096,
		Disks:                    20,
		DisksPerGroup:            5,
		RAIDLevel:                raid.RAID5,
		ExtentBlocks:             256,
		OpDelay:                  10 * sim.Microsecond,
		CPUSlots:                 4,
	}
}

// controller is one of the array's two brains.
type controller struct {
	id    int
	cache *cache.Cache
	cpu   *sim.Semaphore
	Ops   int64
}

// Array is the traditional dual-controller system.
type Array struct {
	K      *sim.Kernel
	Cfg    Config
	Farm   *disk.Farm
	Groups []*raid.Group
	Pool   *virt.Pool

	ctrls    [2]*controller
	volOwner map[string]int
	Errors   int64

	stopFlush func()
}

// New builds the array.
func New(k *sim.Kernel, cfg Config) (*Array, error) {
	if cfg.DiskSpec.BlockSize == 0 {
		cfg.DiskSpec = disk.DefaultSpec()
	}
	if cfg.FlushInterval == 0 {
		cfg.FlushInterval = 20 * sim.Millisecond
	}
	if cfg.ExtentBlocks == 0 {
		cfg.ExtentBlocks = 256
	}
	if cfg.CPUSlots == 0 {
		cfg.CPUSlots = 4
	}
	if cfg.DisksPerGroup <= 0 || cfg.Disks%cfg.DisksPerGroup != 0 {
		return nil, fmt.Errorf("baseline: %d disks not divisible by group width %d", cfg.Disks, cfg.DisksPerGroup)
	}
	a := &Array{K: k, Cfg: cfg, volOwner: make(map[string]int)}
	a.Farm = disk.NewFarm(k, "bdisk", cfg.Disks, cfg.DiskSpec)
	var devices []virt.BlockDevice
	for g := 0; g < cfg.Disks/cfg.DisksPerGroup; g++ {
		grp, err := raid.NewGroup(k, cfg.RAIDLevel, a.Farm.Disks[g*cfg.DisksPerGroup:(g+1)*cfg.DisksPerGroup])
		if err != nil {
			return nil, err
		}
		a.Groups = append(a.Groups, grp)
		devices = append(devices, grp)
	}
	pool, err := virt.NewPool(k, cfg.ExtentBlocks, devices...)
	if err != nil {
		return nil, err
	}
	a.Pool = pool
	for i := 0; i < 2; i++ {
		a.ctrls[i] = &controller{
			id:    i,
			cache: cache.New(cfg.CacheBlocksPerController),
			cpu:   sim.NewSemaphore(k, cfg.CPUSlots),
		}
	}
	a.startFlusher()
	return a, nil
}

// CreateVolume provisions a thick volume and assigns it a controller owner
// (round-robin by count — the static partitioning of traditional arrays).
func (a *Array) CreateVolume(name string, blocks int64) error {
	if _, err := a.Pool.CreateVolume(name, blocks); err != nil {
		return err
	}
	a.volOwner[name] = len(a.volOwner) % 2
	return nil
}

// SetOwner pins a volume to a controller (for experiments).
func (a *Array) SetOwner(vol string, ctrl int) { a.volOwner[vol] = ctrl % 2 }

// Owner reports which controller serves vol.
func (a *Array) Owner(vol string) int { return a.volOwner[vol] }

// ControllerOps returns per-controller served operation counts.
func (a *Array) ControllerOps() [2]int64 {
	return [2]int64{a.ctrls[0].Ops, a.ctrls[1].Ops}
}

// owner resolves the volume's serving controller.
func (a *Array) owner(vol string) (*controller, error) {
	id, ok := a.volOwner[vol]
	if !ok {
		return nil, fmt.Errorf("baseline: no volume %q", vol)
	}
	return a.ctrls[id], nil
}

func (a *Array) volume(vol string) (*virt.Volume, error) {
	v, ok := a.Pool.Volumes()[vol]
	if !ok {
		return nil, fmt.Errorf("baseline: no volume %q", vol)
	}
	return v, nil
}

func (c *controller) busy(p *sim.Proc, d sim.Duration) {
	c.cpu.Acquire(p, 1)
	p.Sleep(d)
	c.cpu.Release(1)
}

// Read serves count blocks through the volume's owning controller.
func (a *Array) Read(p *sim.Proc, vol string, lba int64, count int) ([]byte, error) {
	c, err := a.owner(vol)
	if err != nil {
		a.Errors++
		return nil, err
	}
	v, err := a.volume(vol)
	if err != nil {
		a.Errors++
		return nil, err
	}
	bs := a.Pool.BlockSize()
	out := make([]byte, count*bs)
	for i := 0; i < count; i++ {
		c.busy(p, a.Cfg.OpDelay)
		key := cache.Key{Vol: vol, LBA: lba + int64(i)}
		if ent, ok := c.cache.Get(key); ok {
			copy(out[i*bs:], ent.Data)
			continue
		}
		data, err := v.Read(p, lba+int64(i), 1)
		if err != nil {
			a.Errors++
			return nil, err
		}
		a.makeRoom(p, c, v)
		c.cache.Put(key, data, cache.Shared, false, 0)
		copy(out[i*bs:], data)
	}
	c.Ops += int64(count)
	return out, nil
}

// Write stores block-aligned data through the owning controller,
// write-back with every dirty block mirrored to the partner.
func (a *Array) Write(p *sim.Proc, vol string, lba int64, data []byte) error {
	c, err := a.owner(vol)
	if err != nil {
		a.Errors++
		return err
	}
	v, err := a.volume(vol)
	if err != nil {
		a.Errors++
		return err
	}
	bs := a.Pool.BlockSize()
	if len(data)%bs != 0 {
		return fmt.Errorf("baseline: unaligned write of %d bytes", len(data))
	}
	partner := a.ctrls[1-c.id]
	for i := 0; i < len(data)/bs; i++ {
		c.busy(p, a.Cfg.OpDelay)
		key := cache.Key{Vol: vol, LBA: lba + int64(i)}
		blk := append([]byte(nil), data[i*bs:(i+1)*bs]...)
		a.makeRoom(p, c, v)
		ent := c.cache.Put(key, blk, cache.Modified, true, 0)
		ent.Version++
		// Cache-mirror copy over the controllers' internal bus;
		// modeled as a CPU charge on the partner.
		partner.busy(p, a.Cfg.OpDelay/2)
	}
	c.Ops += int64(len(data) / bs)
	return nil
}

// makeRoom evicts from c's cache, destaging dirty victims.
func (a *Array) makeRoom(p *sim.Proc, c *controller, v *virt.Volume) {
	for c.cache.NeedsRoom(1) {
		victim := c.cache.Victim()
		if victim == nil {
			return
		}
		if victim.Dirty {
			if err := a.destage(p, c, victim); err != nil {
				return
			}
		}
		c.cache.Evict(victim)
	}
}

// destage writes one dirty block to its volume.
func (a *Array) destage(p *sim.Proc, c *controller, ent *cache.Entry) error {
	v, err := a.volume(ent.Key.Vol)
	if err != nil {
		return err
	}
	ver := ent.Version
	ent.Pinned = true
	err = v.Write(p, ent.Key.LBA, ent.Data)
	ent.Pinned = false
	if err != nil {
		return err
	}
	if ent.Version == ver {
		c.cache.SetDirty(ent, false)
	}
	return nil
}

// startFlusher runs one destager per controller.
func (a *Array) startFlusher() {
	stopped := false
	a.stopFlush = func() { stopped = true }
	for i := 0; i < 2; i++ {
		c := a.ctrls[i]
		a.K.Go(fmt.Sprintf("baseline.flusher%d", i), func(p *sim.Proc) {
			for {
				p.Sleep(a.Cfg.FlushInterval)
				if stopped {
					return
				}
				flushed := 0
				for _, ent := range c.cache.DirtyEntries() {
					if flushed >= 64 {
						break
					}
					if ent.Pinned || !ent.Dirty {
						continue
					}
					if a.destage(p, c, ent) == nil {
						flushed++
					}
				}
			}
		})
	}
}

// Stop halts background flushers.
func (a *Array) Stop() {
	if a.stopFlush != nil {
		a.stopFlush()
	}
}
