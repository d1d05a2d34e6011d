// Package experiments implements the reproduction of every quantitative
// claim in the paper, one function per experiment (E1–E16, CP1–CP2 and
// A1–A4 in DESIGN.md). Each function builds its own simulated system(s),
// runs the workload, closes every kernel it made, and returns the result
// table; cmd/benchrunner's table is the one list of them.
package experiments

import (
	"fmt"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/raid"
	"repro/internal/sim"
	"repro/internal/workload"
)

// labDisk is the drive model used across experiments: 4 KiB blocks,
// 256 MiB per drive (kept small so rebuild experiments finish quickly),
// 5 ms seek + 3 ms rotation, 50 MB/s media.
func labDisk() disk.Spec {
	return disk.Spec{
		BlockSize:   4096,
		Blocks:      1 << 16,
		Seek:        5 * sim.Millisecond,
		Rotation:    3 * sim.Millisecond,
		TransferBps: 400_000_000,
	}
}

// clusterConfig is the shared blade-cluster shape.
func clusterConfig(blades int) controller.Config {
	cfg := controller.DefaultConfig()
	cfg.Blades = blades
	cfg.DiskSpec = labDisk()
	cfg.Disks = 24
	cfg.DisksPerGroup = 6
	cfg.RAIDLevel = raid.RAID5
	cfg.ExtentBlocks = 64
	cfg.CacheBlocksPerBlade = 4096
	cfg.OpDelay = 50 * sim.Microsecond // models early-2000s controller CPUs
	cfg.CPUSlots = 4
	return cfg
}

// runWorkload drives a closed-loop population against a target and returns
// the runner for inspection.
func runWorkload(k *sim.Kernel, clients int, dur sim.Duration, target workload.Target, pat func(int) workload.Pattern) *workload.Runner {
	r := &workload.Runner{
		K:        k,
		Clients:  clients,
		Pattern:  pat,
		Target:   target,
		Duration: dur,
	}
	r.Run()
	return r
}

// prefillVolume writes [0, blocks) of a cluster volume directly through
// the pool — large sequential full-stripe writes that bypass the blade
// caches, so experiments start with clean caches over allocated,
// parity-consistent storage.
func prefillVolume(k *sim.Kernel, c *controller.Cluster, vol string, blocks int64) error {
	v, err := c.PoolFor("default")
	if err != nil {
		return err
	}
	target, ok := v.Volumes()[vol]
	if !ok {
		return fmt.Errorf("experiments: no volume %q", vol)
	}
	return core.RunBody(k, prefillHorizon, func(p *sim.Proc) error {
		bs := int64(c.BlockSize())
		const chunk = int64(256)
		buf := make([]byte, chunk*bs)
		for i := range buf {
			buf[i] = byte(i)
		}
		for lba := int64(0); lba < blocks; lba += chunk {
			n := chunk
			if lba+n > blocks {
				n = blocks - lba
			}
			if err := target.Write(p, lba, buf[:n*bs]); err != nil {
				return err
			}
		}
		return nil
	})
}

// prefillHorizon bounds a prefill — writing the working set so reads hit
// allocated, parity-consistent storage rather than DMSD zero-fill.
const prefillHorizon = 600 * sim.Second

// fmtDur renders a duration in ms with two decimals for tables.
func fmtDur(d sim.Duration) string { return fmt.Sprintf("%.2f", d.Millis()) }

// fmtF renders a float with two decimals.
func fmtF(v float64) string { return fmt.Sprintf("%.2f", v) }

// ramDevice is an instant block device for capacity-accounting experiments
// (E5), where service time is irrelevant.
type ramDevice struct {
	bs     int
	blocks int64
	data   map[int64][]byte
}

func newRAMDevice(bs int, blocks int64) *ramDevice {
	return &ramDevice{bs: bs, blocks: blocks, data: make(map[int64][]byte)}
}

func (d *ramDevice) BlockSize() int  { return d.bs }
func (d *ramDevice) Capacity() int64 { return d.blocks }

func (d *ramDevice) ReadInto(p *sim.Proc, lba int64, dst []byte) error {
	for i := 0; i < len(dst)/d.bs; i++ {
		blk := dst[i*d.bs : (i+1)*d.bs]
		clear(blk)
		copy(blk, d.data[lba+int64(i)])
	}
	return nil
}

func (d *ramDevice) Write(p *sim.Proc, lba int64, data []byte) error {
	for i := 0; i < len(data)/d.bs; i++ {
		b := make([]byte, d.bs)
		copy(b, data[i*d.bs:])
		d.data[lba+int64(i)] = b
	}
	return nil
}
