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
	"repro/internal/controller"
	"repro/internal/disk"
	"repro/internal/raid"
	"repro/internal/sim"
	"repro/internal/virt"
)

// head is one of the array's two controllers.
type head struct {
	id    int
	cache *cache.Cache
	cpu   *sim.Semaphore
	Ops   int64
}

// Array is the traditional dual-controller system.
type Array struct {
	K      *sim.Kernel
	Cfg    controller.Config
	Farm   *disk.Farm
	Groups []*raid.Group
	Pool   *virt.Pool

	heads    [2]*head
	volOwner map[string]int
	Errors   int64
}

// New builds the array from the blade cluster's Config, so the two are
// compared on the same drives, groups, extents and per-controller costs.
// It reads Disks, DisksPerGroup, RAIDLevel, DiskSpec and ExtentBlocks for
// the storage, and CacheBlocksPerBlade, OpDelay, CPUSlots and
// FlushInterval for each of its two controllers.
func New(k *sim.Kernel, cfg controller.Config) (*Array, error) {
	cfg = cfg.WithDefaults()
	farm, groups, pool, err := controller.BuildPool(k, cfg, "bdisk", cfg.RAIDLevel, cfg.Disks, cfg.DisksPerGroup)
	if err != nil {
		return nil, err
	}
	a := &Array{K: k, Cfg: cfg, Farm: farm, Groups: groups, Pool: pool, volOwner: make(map[string]int)}
	for i := range a.heads {
		a.heads[i] = &head{
			id:    i,
			cache: cache.New(cfg.CacheBlocksPerBlade),
			cpu:   sim.NewSemaphore(k, cfg.CPUSlots),
		}
	}
	a.startFlusher()
	return a, nil
}

// MirrorCharge is the CPU time the partner controller spends on one
// block's cache-mirror copy: half the owner's per-block charge.
func (a *Array) MirrorCharge() sim.Duration { return a.Cfg.OpDelay / 2 }

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

// ControllerOps returns per-controller served operation counts.
func (a *Array) ControllerOps() [2]int64 {
	return [2]int64{a.heads[0].Ops, a.heads[1].Ops}
}

// owner resolves the volume's serving controller.
func (a *Array) owner(vol string) (*head, error) {
	id, ok := a.volOwner[vol]
	if !ok {
		return nil, fmt.Errorf("baseline: no volume %q", vol)
	}
	return a.heads[id], nil
}

func (a *Array) volume(vol string) (*virt.Volume, error) {
	v, ok := a.Pool.Volumes()[vol]
	if !ok {
		return nil, fmt.Errorf("baseline: no volume %q", vol)
	}
	return v, nil
}

func (c *head) busy(p *sim.Proc, d sim.Duration) {
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
	partner := a.heads[1-c.id]
	for i := 0; i < len(data)/bs; i++ {
		c.busy(p, a.Cfg.OpDelay)
		key := cache.Key{Vol: vol, LBA: lba + int64(i)}
		blk := append([]byte(nil), data[i*bs:(i+1)*bs]...)
		a.makeRoom(p, c, v)
		ent := c.cache.Put(key, blk, cache.Modified, true, 0)
		ent.Version++
		// Cache-mirror copy over the controllers' internal bus;
		// modeled as a CPU charge on the partner.
		partner.busy(p, a.MirrorCharge())
	}
	c.Ops += int64(len(data) / bs)
	return nil
}

// makeRoom evicts from c's cache, destaging dirty victims.
func (a *Array) makeRoom(p *sim.Proc, c *head, v *virt.Volume) {
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
func (a *Array) destage(p *sim.Proc, c *head, ent *cache.Entry) error {
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
	for i := 0; i < 2; i++ {
		c := a.heads[i]
		a.K.Go(fmt.Sprintf("baseline.flusher%d", i), func(p *sim.Proc) {
			for {
				p.Sleep(a.Cfg.FlushInterval)
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
