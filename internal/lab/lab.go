// Package lab builds one experiment arm on one blade cluster. Every
// single-cluster arm of internal/experiments is a Lab.
package lab

import (
	"fmt"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Lab is one arm: a fresh kernel, the cluster built from the arm's
// Config, a tracer that is always attached and starts disabled (an arm
// turns it on around the windows it attributes), and one DMSD volume with
// the closed-loop target over it. Every arm is built by New and ends with
// Close, after it has read what it needs from the tracer: Close unwinds
// the ops still in flight, and their span ends land in the span log.
type Lab struct {
	K  *sim.Kernel
	C  *controller.Cluster
	Tr *trace.Tracer
	// Target drives the volume; an arm sets its Pick, Tenant, Priority or
	// ReadVia before the first loop.
	Target *core.VolumeTarget
}

// New builds an arm whose volume vol is prefilled over [0, ws). The name
// is part of the arm: it feeds the directory-home hash. ws 0 skips the
// prefill, which would otherwise still advance the clock one 100 ms step.
func New(seed int64, cfg controller.Config, vol string, ws int64) *Lab {
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
		if err := Prefill(k, c, vol, ws); err != nil {
			panic(err)
		}
	}
	return &Lab{K: k, C: c, Tr: tr, Target: &core.VolumeTarget{Cluster: c, Vol: vol}}
}

// Loop returns a closed-loop population of clients over the arm's target
// for dur, not yet started.
func (l *Lab) Loop(clients int, dur sim.Duration, pat func(int) workload.Pattern) *workload.Runner {
	return &workload.Runner{K: l.K, Clients: clients, Pattern: pat, Target: l.Target, Duration: dur}
}

// Run drives a closed loop to its deadline and returns it for inspection.
func (l *Lab) Run(clients int, dur sim.Duration, pat func(int) workload.Pattern) *workload.Runner {
	r := l.Loop(clients, dur, pat)
	r.Run()
	return r
}

// Do runs body as one proc through core.RunBody, bounded by BodyHorizon,
// and panics naming the experiment step if it fails or does not finish.
func (l *Lab) Do(name string, body func(p *sim.Proc) error) {
	if err := core.RunBody(l.K, BodyHorizon, body); err != nil {
		panic(fmt.Sprintf("%s: %v", name, err))
	}
}

// Await runs the kernel until g drains, bounded like Do. A group that
// has already drained costs no virtual time.
func (l *Lab) Await(name string, g *sim.Group) {
	if g.Pending() > 0 {
		l.Do(name, func(p *sim.Proc) error { g.Wait(p); return nil })
	}
}

// Close ends the arm: it closes the kernel, which kills every proc on it.
func (l *Lab) Close() { l.K.Close() }

// Prefill writes [0, blocks) of a cluster volume directly through the
// pool — large sequential full-stripe writes that bypass the blade caches,
// so an arm starts with clean caches over allocated, parity-consistent
// storage.
func Prefill(k *sim.Kernel, c *controller.Cluster, vol string, blocks int64) error {
	v, err := c.PoolFor("default")
	if err != nil {
		return err
	}
	target, ok := v.Volumes()[vol]
	if !ok {
		return fmt.Errorf("lab: no volume %q", vol)
	}
	return core.RunBody(k, BodyHorizon, func(p *sim.Proc) error {
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

// BodyHorizon bounds every body an arm runs to completion through
// core.RunBody: a prefill (writing the working set so reads hit
// allocated, parity-consistent storage rather than DMSD zero-fill), an
// acknowledged-write burst, a rebuild, a scan.
const BodyHorizon = 600 * sim.Second
