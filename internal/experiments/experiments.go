// Package experiments implements the reproduction of every quantitative
// claim in the paper, one function per experiment (E1–E16, CP1–CP2 and
// A1–A4 in DESIGN.md). Each function builds its own simulated system(s),
// runs the workload, closes every kernel it made, and returns the result
// table; cmd/benchrunner's table is the one list of them. Every arm that
// drives one blade cluster is a lab (below).
package experiments

import (
	"fmt"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/raid"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
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

// lab is one experiment arm on one blade cluster: a fresh kernel, the
// cluster built from the arm's Config, a tracer that is always attached
// and starts disabled (an arm turns it on around the windows it
// attributes), and one DMSD volume with the closed-loop target over it.
// Every single-cluster arm is built by newLab and ends with close, after
// it has read what it needs from the tracer: Close unwinds the ops still
// in flight, and their span ends land in the span log.
type lab struct {
	k  *sim.Kernel
	c  *controller.Cluster
	tr *trace.Tracer
	// target drives the volume; an arm sets its Pick, Tenant, Priority or
	// ReadVia before the first loop.
	target *core.VolumeTarget
}

// newLab builds an arm whose volume vol is prefilled over [0, ws). The
// name is part of the arm: it feeds the directory-home hash. ws 0 skips
// the prefill, which would otherwise still advance the clock one 100 ms
// step.
func newLab(seed int64, cfg controller.Config, vol string, ws int64) *lab {
	k := sim.NewKernel(seed)
	tr := trace.NewTracer(k)
	cfg.Tracer = tr
	c, err := controller.New(k, cfg)
	if err != nil {
		panic(err)
	}
	if _, err := c.Pool.CreateDMSD(vol, 1<<20); err != nil {
		panic(err)
	}
	if ws > 0 {
		if err := prefillVolume(k, c, vol, ws); err != nil {
			panic(err)
		}
	}
	return &lab{k: k, c: c, tr: tr, target: &core.VolumeTarget{Cluster: c, Vol: vol}}
}

// loop returns a closed-loop population of clients over the arm's target
// for dur, not yet started.
func (l *lab) loop(clients int, dur sim.Duration, pat func(int) workload.Pattern) *workload.Runner {
	return &workload.Runner{K: l.k, Clients: clients, Pattern: pat, Target: l.target, Duration: dur}
}

// run drives a closed loop to its deadline and returns it for inspection.
func (l *lab) run(clients int, dur sim.Duration, pat func(int) workload.Pattern) *workload.Runner {
	r := l.loop(clients, dur, pat)
	r.Run()
	return r
}

// do runs body as one proc through core.RunBody, bounded by bodyHorizon,
// and panics naming the experiment step if it fails or does not finish.
func (l *lab) do(name string, body func(p *sim.Proc) error) {
	if err := core.RunBody(l.k, bodyHorizon, body); err != nil {
		panic(fmt.Sprintf("%s: %v", name, err))
	}
}

// await runs the kernel until g drains, bounded like do. A group that
// has already drained costs no virtual time.
func (l *lab) await(name string, g *sim.Group) {
	if g.Pending() > 0 {
		l.do(name, func(p *sim.Proc) error { g.Wait(p); return nil })
	}
}

func (l *lab) close() { l.k.Close() }

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
	return core.RunBody(k, bodyHorizon, func(p *sim.Proc) error {
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

// bodyHorizon bounds every body an experiment runs to completion through
// core.RunBody: a prefill (writing the working set so reads hit
// allocated, parity-consistent storage rather than DMSD zero-fill), an
// acknowledged-write burst, a rebuild, a scan.
const bodyHorizon = 600 * sim.Second

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
