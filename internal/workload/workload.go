// Package workload generates the I/O patterns the paper's evaluation
// needs: sequential streams that feed "heavy iron", uniform random access
// from clustered clients, and the Zipf-skewed "hot data" pattern whose hot
// spots gate traditional controllers (§2). Clients are closed-loop: each
// issues its next operation when the previous completes, so measured
// throughput reflects system capacity, not an open-loop overload.
package workload

import (
	"math/rand"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// Op is one generated operation.
type Op struct {
	LBA    int64
	Blocks int
	Write  bool
}

// Pattern produces a stream of operations.
type Pattern interface {
	Next(rng *rand.Rand) Op
}

// Uniform picks block addresses uniformly over [0, Range).
type Uniform struct {
	Range     int64
	Blocks    int
	WriteFrac float64
}

// Next returns a uniformly random operation.
func (u Uniform) Next(rng *rand.Rand) Op {
	blocks := u.Blocks
	if blocks <= 0 {
		blocks = 1
	}
	lba := rng.Int63n(max64(u.Range-int64(blocks), 1))
	return Op{LBA: lba, Blocks: blocks, Write: rng.Float64() < u.WriteFrac}
}

// Zipf skews accesses so a small set of blocks is hit extremely hard —
// the paper's "hot data" (§2). S > 1 controls the skew.
//
// Prefer NewZipf: a literal Zipf binds its value generator to whatever rng
// the *first* Next call happens to pass, so the generator's stream state
// silently depends on who touched the pattern first and never re-binds if
// a different rng is passed later.
type Zipf struct {
	Range     int64
	S         float64
	Blocks    int
	WriteFrac float64
	z         *rand.Zipf
}

// NewZipf builds a Zipf pattern bound to rng from construction, so the
// op stream is fully determined by rng's seed starting at op 0.
func NewZipf(rng *rand.Rand, rangeBlocks int64, s float64, blocks int, writeFrac float64) *Zipf {
	z := &Zipf{Range: rangeBlocks, S: s, Blocks: blocks, WriteFrac: writeFrac}
	z.bind(rng)
	return z
}

// bind attaches the Zipf value generator to rng.
func (z *Zipf) bind(rng *rand.Rand) {
	s := z.S
	if s <= 1 {
		s = 1.1
	}
	z.z = rand.NewZipf(rng, s, 1, uint64(max64(z.Range-1, 1)))
}

// Next returns a Zipf-distributed operation.
func (z *Zipf) Next(rng *rand.Rand) Op {
	if z.z == nil {
		z.bind(rng) // literal construction: bind on first use (see type doc)
	}
	blocks := z.Blocks
	if blocks <= 0 {
		blocks = 1
	}
	return Op{LBA: int64(z.z.Uint64()), Blocks: blocks, Write: rng.Float64() < z.WriteFrac}
}

// ShiftingZipf is Zipf whose hot set rotates: every RotateEvery ops the
// whole rank→block mapping shifts by Stride, so yesterday's hottest
// blocks go cold and a fresh set heats up. This is the adversarial case
// for home migration — by the time the balancer has observed, planned,
// and moved a hot home, the heat has already moved on — and the friendly
// case for a cache tier that fills in one miss.
//
// Rotation counts this pattern instance's ops (each client owns its own
// instance), so phase boundaries land on exact op indices: ops
// [0, RotateEvery) use phase 0, [RotateEvery, 2·RotateEvery) phase 1, …
// Like Zipf, construct with NewShiftingZipf so the value generator binds
// to one rng from op 0.
type ShiftingZipf struct {
	Range     int64
	S         float64
	Blocks    int
	WriteFrac float64
	// RotateEvery is the hot-set lifetime in ops (default 1024).
	RotateEvery int64
	// Stride is the per-phase shift of the rank→block mapping. Pick it
	// co-prime with Range so successive hot sets don't overlap (default
	// a fixed prime).
	Stride int64

	z   *rand.Zipf
	ops int64
}

// NewShiftingZipf builds a ShiftingZipf bound to rng from construction.
func NewShiftingZipf(rng *rand.Rand, rangeBlocks int64, s float64, blocks int, writeFrac float64, rotateEvery, stride int64) *ShiftingZipf {
	z := &ShiftingZipf{Range: rangeBlocks, S: s, Blocks: blocks, WriteFrac: writeFrac,
		RotateEvery: rotateEvery, Stride: stride}
	z.bind(rng)
	return z
}

func (z *ShiftingZipf) bind(rng *rand.Rand) {
	s := z.S
	if s <= 1 {
		s = 1.1
	}
	z.z = rand.NewZipf(rng, s, 1, uint64(max64(z.Range-1, 1)))
}

// Next returns the next operation; the Zipf rank is drawn first, then
// displaced by the current phase's rotation.
func (z *ShiftingZipf) Next(rng *rand.Rand) Op {
	if z.z == nil {
		z.bind(rng) // literal construction: bind on first use (see Zipf doc)
	}
	rotate := z.RotateEvery
	if rotate <= 0 {
		rotate = 1024
	}
	stride := z.Stride
	if stride <= 0 {
		stride = 2999
	}
	phase := z.ops / rotate
	z.ops++
	blocks := z.Blocks
	if blocks <= 0 {
		blocks = 1
	}
	rank := int64(z.z.Uint64())
	lba := (rank + phase*stride) % z.Range
	if lba < 0 {
		lba += z.Range
	}
	return Op{LBA: lba, Blocks: blocks, Write: rng.Float64() < z.WriteFrac}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Target is what a client drives — an adapter over a cluster volume, a
// baseline array volume, or a gateway LUN.
type Target interface {
	BlockSize() int
	Read(p *sim.Proc, lba int64, blocks int) error
	Write(p *sim.Proc, lba int64, blocks int) error
}

// Runner drives a closed-loop client population against a Target.
type Runner struct {
	K        *sim.Kernel
	Clients  int
	Pattern  func(client int) Pattern // per-client pattern factory
	Target   Target
	Duration sim.Duration
	// ThinkTime inserts idle time between a completion and the next
	// issue (0 = saturating clients).
	ThinkTime sim.Duration

	// Results
	Latency *metrics.Histogram
	Bytes   *metrics.Meter
	// Series, when non-nil, receives per-completion byte counts for
	// throughput-over-time rendering.
	Series *metrics.TimeSeries
	Ops    int64
	Errs   int64
}

// Start spawns the client processes. The caller then advances the kernel
// (RunFor); clients stop at the deadline.
func (r *Runner) Start() {
	if r.Latency == nil {
		r.Latency = metrics.NewHistogram()
	}
	if r.Bytes == nil {
		r.Bytes = metrics.NewMeter(r.K.Now())
	}
	deadline := r.K.Now().Add(r.Duration)
	bs := int64(r.Target.BlockSize())
	for c := 0; c < r.Clients; c++ {
		pattern := r.Pattern(c)
		rng := rand.New(rand.NewSource(r.K.Rand().Int63()))
		r.K.Go("client", func(p *sim.Proc) {
			for p.Now() < deadline {
				op := pattern.Next(rng)
				start := p.Now()
				var err error
				if op.Write {
					err = r.Target.Write(p, op.LBA, op.Blocks)
				} else {
					err = r.Target.Read(p, op.LBA, op.Blocks)
				}
				if err != nil {
					r.Errs++
					// Back off briefly rather than hot-looping on a
					// failed component.
					p.Sleep(sim.Millisecond)
					continue
				}
				r.Ops++
				r.Latency.Observe(p.Now().Sub(start))
				r.Bytes.Record(p.Now(), int64(op.Blocks)*bs)
				if r.Series != nil {
					r.Series.Record(p.Now(), float64(int64(op.Blocks)*bs))
				}
				if r.ThinkTime > 0 {
					p.Sleep(r.ThinkTime)
				}
			}
		})
	}
}

// Run starts the clients and advances the kernel through the full
// duration, then closes the throughput meter.
func (r *Runner) Run() {
	r.Start()
	r.K.RunFor(r.Duration)
	r.Bytes.CloseAt(r.K.Now())
}
