package experiments

import (
	"repro/internal/sim"
	"repro/internal/stripe"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// tracedE1Stream repeats E1's 4-blade point with tracing and telemetry
// attached and returns both: one trace per 256 KiB chunk (fc-ingest and
// egress child spans) plus a registry carrying per-link byte counters. The
// breakdown shows where a striped stream's time goes (ingest serialization
// on the 2 Gb/s FC links vs queueing for the shared 10 Gb/s port); the
// registry's net/link/farm-*/bytes skew shows the round-robin striping
// spreading the stream evenly over the eight FC ingest links. Spans and
// samplers ride virtual time, so the same seed yields byte-identical
// exports — asserted by TestE1TraceDeterministic.
func tracedE1Stream(seed int64) (*trace.Tracer, *telemetry.Registry) {
	k := sim.NewKernel(seed)
	defer k.Close() // the stream has finished: k.Run drained the queue
	tr := trace.NewTracer(k)
	tr.SetEnabled(true)
	reg := telemetry.NewRegistry()
	s, err := stripe.New(k, stripe.Config{Blades: 4, Tracer: tr, Telemetry: reg})
	if err != nil {
		panic(err)
	}
	var serr error
	k.Go("traced-stream", func(p *sim.Proc) {
		_, serr = s.Stream(p, 64<<20)
	})
	k.Run()
	if serr != nil {
		panic(serr)
	}
	return tr, reg
}
