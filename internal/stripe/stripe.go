// Package stripe implements Figure 1 of the paper: driving a high-speed
// network link by striping a large read, round robin, over several
// controller blades. Each blade ingests from the disk farm over two Fibre
// Channel connections and the blades take turns feeding one high-speed
// port. With 2 Gb/s FC, one blade sustains ~4 Gb/s, two ~8 Gb/s, and four
// saturate a 10 Gb/s port — the paper's arithmetic.
//
// The chain for every chunk is
//
//	farm --FC link--> blade FC port --enc engine--> switch --10GbE--> port
//
// where the encryption stage is an optional per-blade bandwidth (§8.1);
// with it disabled the stage is free.
package stripe

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// The Figure-1 shape every stream has: two 2 Gb/s Fibre Channel ingest
// links per blade (the paper's blades have two) and 256 KiB striping units,
// into one 10 GbE egress port.
const (
	fcPerBlade = 2
	chunkBytes = 256 << 10
)

// Config describes the Figure-1 topology.
type Config struct {
	// Blades is the number of controller blades striped over.
	Blades int
	// EncBps, when nonzero, inserts a per-blade encryption engine of this
	// rate into the path (§5.1/§8.1). Zero = no encryption stage.
	EncBps int64
	// Tracer, when non-nil and enabled, records one trace per chunk:
	// an op root with fc-ingest (farm→FC link) and egress (FC→port)
	// child spans, giving E1 a per-phase latency breakdown.
	Tracer *trace.Tracer
	// Telemetry, when non-nil, registers the topology's counters (notably
	// net/link/<from>-<to>/bytes for every FC ingest link and the shared
	// egress port) into the registry at construction, so a streamed
	// transfer's link balance is observable (E1's skew table).
	Telemetry *telemetry.Registry
}

// Result summarizes one streamed transfer.
type Result struct {
	Bytes   int64
	Elapsed sim.Duration
	Chunks  int
	// MaxReorder is the largest distance between a chunk's arrival rank
	// and its stripe index — what a port-side reassembly buffer absorbs.
	MaxReorder int
}

// Gbps returns the achieved stream rate.
func (r Result) Gbps() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Bytes*8) / r.Elapsed.Seconds() / 1e9
}

// Streamer owns a Figure-1 topology on its own network.
type Streamer struct {
	k   *sim.Kernel
	cfg Config
	net *simnet.Network
	fcs []simnet.Addr // one address per (blade, FC link)
}

// New builds the topology.
func New(k *sim.Kernel, cfg Config) (*Streamer, error) {
	if cfg.Blades <= 0 {
		return nil, fmt.Errorf("stripe: need ≥1 blade")
	}
	s := &Streamer{k: k, cfg: cfg, net: simnet.New(k)}
	s.net.Connect("switch", "port", simnet.GbE10)
	for b := 0; b < cfg.Blades; b++ {
		enc := simnet.Addr(fmt.Sprintf("blade%d.enc", b))
		// One encryption engine per blade: both FC ports funnel through it.
		engineLink := simnet.LinkSpec{Latency: sim.Microsecond}
		if cfg.EncBps > 0 {
			engineLink.BandwidthBps = cfg.EncBps
		}
		for l := 0; l < fcPerBlade; l++ {
			fc := simnet.Addr(fmt.Sprintf("blade%d.fc%d", b, l))
			s.net.Connect("farm", fc, simnet.FC2G)
			s.net.Connect(fc, enc, simnet.LinkSpec{Latency: sim.Microsecond})
			s.fcs = append(s.fcs, fc)
		}
		s.net.Connect(enc, "switch", engineLink)
	}
	if cfg.Telemetry != nil {
		s.net.RegisterTelemetry(cfg.Telemetry.Sub("net"))
	}
	return s, nil
}

// chunkTag carries the stripe index through the pipeline.
type chunkTag struct{ idx int }

// Stream pushes totalBytes through the striped pipeline, blocking p until
// the last byte reaches the port, and returns the achieved rate.
func (s *Streamer) Stream(p *sim.Proc, totalBytes int64) (Result, error) {
	if totalBytes <= 0 {
		return Result{}, fmt.Errorf("stripe: nothing to stream")
	}
	chunk := int64(chunkBytes)
	nChunks := int((totalBytes + chunk - 1) / chunk)
	done := sim.NewFuture[sim.Time](s.k)
	arrived := 0
	maxReorder := 0
	var delivered int64

	// Per-chunk span handles, indexed by stripe index. Handlers run as
	// kernel callbacks in deterministic delivery order, so span start/end
	// order is reproducible per seed.
	var roots, ingests, egresses []*trace.Active
	if s.cfg.Tracer.Enabled() {
		roots = make([]*trace.Active, nChunks)
		ingests = make([]*trace.Active, nChunks)
		egresses = make([]*trace.Active, nChunks)
	}

	s.net.Node("port").Handle(func(m simnet.Message) {
		tag := m.Payload.(chunkTag)
		if roots != nil {
			egresses[tag.idx].End()
			roots[tag.idx].End()
		}
		if d := tag.idx - arrived; d > maxReorder {
			maxReorder = d
		}
		if d := arrived - tag.idx; d > maxReorder {
			maxReorder = d
		}
		arrived++
		delivered += int64(m.Size)
		if arrived == nChunks {
			done.Set(s.k.Now())
		}
	})

	// Each FC endpoint forwards ingested chunks toward the port.
	for _, fc := range s.fcs {
		fc := fc
		s.net.Node(fc).Handle(func(m simnet.Message) {
			if roots != nil {
				tag := m.Payload.(chunkTag)
				ingests[tag.idx].End()
				egresses[tag.idx] = roots[tag.idx].Child("egress", trace.Queue, "port")
			}
			s.net.Send(simnet.Message{From: fc, To: "port", Payload: m.Payload, Size: m.Size})
		})
	}

	start := s.k.Now()
	// The farm supplies chunks round-robin across every FC link; link
	// serialization (busyUntil queueing) is the natural 2 Gb/s throttle.
	rem := totalBytes
	for i := 0; i < nChunks; i++ {
		size := chunk
		if rem < size {
			size = rem
		}
		rem -= size
		fc := s.fcs[i%len(s.fcs)]
		if roots != nil {
			roots[i] = s.cfg.Tracer.StartTrace("chunk", trace.Op, "farm")
			ingests[i] = roots[i].Child("fc-ingest", trace.Fabric, string(fc))
		}
		if _, ok := s.net.Send(simnet.Message{From: "farm", To: fc, Payload: chunkTag{idx: i}, Size: int(size)}); !ok {
			return Result{}, fmt.Errorf("stripe: send to %s failed", fc)
		}
	}
	end := done.Wait(p)
	return Result{
		Bytes:      delivered,
		Elapsed:    end.Sub(start),
		Chunks:     nChunks,
		MaxReorder: maxReorder,
	}, nil
}

// Sweep streams totalBytes for each blade count in counts (rebuilding the
// topology each time) and returns one Result per count — the E1 series.
func Sweep(k *sim.Kernel, base Config, counts []int, totalBytes int64) ([]Result, error) {
	var out []Result
	for _, n := range counts {
		cfg := base
		cfg.Blades = n
		s, err := New(k, cfg)
		if err != nil {
			return nil, err
		}
		var res Result
		var serr error
		k.Go(fmt.Sprintf("stream%d", n), func(p *sim.Proc) {
			res, serr = s.Stream(p, totalBytes)
		})
		k.Run()
		if serr != nil {
			return nil, serr
		}
		out = append(out, res)
	}
	return out, nil
}

// Table renders a Sweep as the E1 table.
func Table(counts []int, results []Result, fcBps int64, portBps int64) *metrics.Table {
	tab := metrics.NewTable("E1 — Figure 1: single-stream rate vs striped blades",
		"blades", "disk-side Gb/s", "achieved Gb/s", "port limit Gb/s", "reorder depth")
	for i, n := range counts {
		diskSide := float64(n) * fcPerBlade * float64(fcBps) / 1e9
		tab.AddRow(n, diskSide, results[i].Gbps(), float64(portBps)/1e9, results[i].MaxReorder)
	}
	return tab
}
