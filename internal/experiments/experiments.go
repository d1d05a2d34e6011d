// Package experiments implements the reproduction of every quantitative
// claim in the paper, one function per experiment (E1–E16, CP1–CP2 and
// A1–A4 in DESIGN.md). Each function builds its own simulated system(s),
// runs the workload, closes every kernel it made, and returns the result
// table; cmd/benchrunner's table is the one list of them. Every arm that
// drives one blade cluster is a lab (internal/lab), built by lab.New and
// ended by its Close.
package experiments

import (
	"fmt"

	"repro/internal/controller"
	"repro/internal/disk"
	"repro/internal/raid"
	"repro/internal/sim"
)

// clusterConfig is the shared blade-cluster shape.
func clusterConfig(blades int) controller.Config {
	cfg := controller.DefaultConfig()
	cfg.Blades = blades
	cfg.DiskSpec = disk.LabSpec()
	cfg.Disks = 24
	cfg.DisksPerGroup = 6
	cfg.RAIDLevel = raid.RAID5
	cfg.ExtentBlocks = 64
	cfg.CacheBlocksPerBlade = 4096
	cfg.OpDelay = 50 * sim.Microsecond // models early-2000s controller CPUs
	cfg.CPUSlots = 4
	return cfg
}

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
