package workload

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// fakeTarget counts operations with a fixed service time.
type fakeTarget struct {
	bs      int
	svc     sim.Duration
	reads   int64
	writes  int64
	maxLBA  int64
	failAll bool
}

func (f *fakeTarget) BlockSize() int { return f.bs }

func (f *fakeTarget) Read(p *sim.Proc, lba int64, blocks int) error {
	if f.failAll {
		return errTest
	}
	if lba > f.maxLBA {
		f.maxLBA = lba
	}
	p.Sleep(f.svc)
	f.reads++
	return nil
}

func (f *fakeTarget) Write(p *sim.Proc, lba int64, blocks int) error {
	if f.failAll {
		return errTest
	}
	p.Sleep(f.svc)
	f.writes++
	return nil
}

var errTest = errString("test failure")

type errString string

func (e errString) Error() string { return string(e) }

func TestUniformInRange(t *testing.T) {
	u := Uniform{Range: 1000, Blocks: 4, WriteFrac: 0.3}
	rng := rand.New(rand.NewSource(2))
	writes := 0
	for i := 0; i < 2000; i++ {
		op := u.Next(rng)
		if op.LBA < 0 || op.LBA+int64(op.Blocks) > 1000 {
			t.Fatalf("op out of range: %+v", op)
		}
		if op.Write {
			writes++
		}
	}
	if writes < 450 || writes > 750 {
		t.Fatalf("writes = %d/2000, want ~600 (30%%)", writes)
	}
}

func TestZipfIsSkewed(t *testing.T) {
	z := &Zipf{Range: 10000, S: 1.2}
	rng := rand.New(rand.NewSource(3))
	counts := make(map[int64]int)
	const n = 20000
	for i := 0; i < n; i++ {
		counts[z.Next(rng).LBA]++
	}
	// The hottest block should carry far more than a uniform share.
	maxC := 0
	for _, c := range counts {
		if c > maxC {
			maxC = c
		}
	}
	if maxC < n/100 {
		t.Fatalf("hottest block only %d/%d accesses; not skewed", maxC, n)
	}
}

// Property: Zipf never exceeds its range.
func TestZipfRangeProperty(t *testing.T) {
	f := func(seed int64, rangeRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		r := int64(rangeRaw) + 2
		z := &Zipf{Range: r, S: 1.5}
		for i := 0; i < 50; i++ {
			if op := z.Next(rng); op.LBA < 0 || op.LBA >= r {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRunnerClosedLoop(t *testing.T) {
	k := sim.NewKernel(1)
	target := &fakeTarget{bs: 512, svc: sim.Millisecond}
	r := &Runner{
		K:        k,
		Clients:  4,
		Pattern:  func(int) Pattern { return Uniform{Range: 1000, Blocks: 1} },
		Target:   target,
		Duration: sim.Second,
	}
	r.Run()
	// 4 closed-loop clients at 1 ms service ≈ 4000 ops per second.
	if r.Ops < 3800 || r.Ops > 4100 {
		t.Fatalf("ops = %d, want ~4000", r.Ops)
	}
	if r.Latency.Count() != r.Ops {
		t.Fatalf("latency samples %d != ops %d", r.Latency.Count(), r.Ops)
	}
	if got := r.Latency.Mean(); got < sim.Millisecond || got > 2*sim.Millisecond {
		t.Fatalf("mean latency %v, want ~1ms", got)
	}
	if got, want := r.Bytes.PerSecond()*r.Bytes.Window().Seconds(), float64(r.Ops*512); math.Abs(got-want) > 0.5 {
		t.Fatalf("bytes = %v, want %v", got, want)
	}
}

func TestRunnerThinkTime(t *testing.T) {
	k := sim.NewKernel(1)
	target := &fakeTarget{bs: 512, svc: sim.Millisecond}
	r := &Runner{
		K:         k,
		Clients:   1,
		Pattern:   func(int) Pattern { return Uniform{Range: 100, Blocks: 1} },
		Target:    target,
		Duration:  sim.Second,
		ThinkTime: 9 * sim.Millisecond,
	}
	r.Run()
	// 1 ms service + 9 ms think = 100 ops/s.
	if r.Ops < 95 || r.Ops > 105 {
		t.Fatalf("ops = %d, want ~100", r.Ops)
	}
}

func TestRunnerCountsErrors(t *testing.T) {
	k := sim.NewKernel(1)
	target := &fakeTarget{bs: 512, svc: sim.Millisecond, failAll: true}
	r := &Runner{
		K:        k,
		Clients:  2,
		Pattern:  func(int) Pattern { return Uniform{Range: 100, Blocks: 1} },
		Target:   target,
		Duration: 100 * sim.Millisecond,
	}
	r.Run()
	if r.Errs == 0 || r.Ops != 0 {
		t.Fatalf("errs=%d ops=%d, want all errors", r.Errs, r.Ops)
	}
}

func TestRunnerDeterministic(t *testing.T) {
	runOnce := func() int64 {
		k := sim.NewKernel(42)
		target := &fakeTarget{bs: 512, svc: 500 * sim.Microsecond}
		r := &Runner{
			K:        k,
			Clients:  3,
			Pattern:  func(int) Pattern { return &Zipf{Range: 500, S: 1.1, WriteFrac: 0.2} },
			Target:   target,
			Duration: 200 * sim.Millisecond,
		}
		r.Run()
		return r.Ops
	}
	if a, b := runOnce(), runOnce(); a != b {
		t.Fatalf("nondeterministic runner: %d vs %d", a, b)
	}
}

// TestShiftingZipfSameSeedIdentical: same seed → byte-identical op
// stream, including the rotation schedule (it counts the instance's own
// ops, not any shared clock).
func TestShiftingZipfSameSeedIdentical(t *testing.T) {
	const seed, ops = 42, 5000
	mk := func() []Op {
		rng := rand.New(rand.NewSource(seed))
		z := NewShiftingZipf(rng, 8192, 1.1, 1, 0.2, 512, 2999)
		out := make([]Op, ops)
		for i := range out {
			out[i] = z.Next(rng)
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestShiftingZipfRotationBoundaries: the phase displacement changes at
// exactly op RotateEvery, 2·RotateEvery, … — never one op early or late.
// Verified by replaying the identical rank stream through an unshifted
// Zipf twin and checking lba == (rank + phase·stride) mod range with the
// phase derived from the op index alone.
func TestShiftingZipfRotationBoundaries(t *testing.T) {
	const (
		seed   = 7
		rng64  = 4096
		rotate = 256
		stride = 997
		ops    = 5 * rotate
	)
	rngA := rand.New(rand.NewSource(seed))
	shifting := NewShiftingZipf(rngA, rng64, 1.2, 1, 0, rotate, stride)
	rngB := rand.New(rand.NewSource(seed))
	plain := NewZipf(rngB, rng64, 1.2, 1, 0)
	for i := 0; i < ops; i++ {
		got := shifting.Next(rngA).LBA
		rank := plain.Next(rngB).LBA
		phase := int64(i / rotate)
		want := (rank + phase*stride) % rng64
		if got != want {
			t.Fatalf("op %d (phase %d): lba=%d, want (rank %d + %d*%d) mod %d = %d",
				i, phase, got, rank, phase, stride, rng64, want)
		}
	}
}

// TestShiftingZipfHotSetMoves: within one phase the top-k blocks carry a
// Zipf-sized share of the mass, and consecutive phases' top-k sets are
// (nearly) disjoint — the whole point of the rotation.
func TestShiftingZipfHotSetMoves(t *testing.T) {
	const (
		rotate = 4096
		stride = 2999
		rng64  = 1 << 14
		topK   = 8
	)
	rng := rand.New(rand.NewSource(11))
	z := NewShiftingZipf(rng, rng64, 1.2, 1, 0, rotate, stride)
	topSet := func() (map[int64]bool, float64) {
		counts := make(map[int64]int)
		for i := 0; i < rotate; i++ {
			counts[z.Next(rng).LBA]++
		}
		type kc struct {
			lba int64
			n   int
		}
		ranked := make([]kc, 0, len(counts))
		for l, n := range counts {
			ranked = append(ranked, kc{l, n})
		}
		sort.Slice(ranked, func(i, j int) bool {
			if ranked[i].n != ranked[j].n {
				return ranked[i].n > ranked[j].n
			}
			return ranked[i].lba < ranked[j].lba
		})
		top := make(map[int64]bool)
		mass := 0
		for i := 0; i < topK && i < len(ranked); i++ {
			top[ranked[i].lba] = true
			mass += ranked[i].n
		}
		return top, float64(mass) / rotate
	}
	top0, mass0 := topSet()
	top1, mass1 := topSet()
	// Zipf s=1.2: the top-8 of 16k blocks must dominate the phase.
	if mass0 < 0.25 || mass1 < 0.25 {
		t.Fatalf("top-%d mass %.2f/%.2f, want ≥0.25 each phase", topK, mass0, mass1)
	}
	overlap := 0
	for l := range top1 {
		if top0[l] {
			overlap++
		}
	}
	if overlap > topK/2 {
		t.Fatalf("phase 0 and 1 top-%d sets overlap in %d blocks; hot set did not move", topK, overlap)
	}
}

func TestMeterIntegration(t *testing.T) {
	k := sim.NewKernel(1)
	target := &fakeTarget{bs: 4096, svc: sim.Millisecond}
	m := metrics.NewMeter(0)
	r := &Runner{
		K:        k,
		Clients:  1,
		Pattern:  func(int) Pattern { return Uniform{Range: 1 << 20, Blocks: 8} },
		Target:   target,
		Duration: sim.Second,
		Bytes:    m,
	}
	r.Run()
	if m.MBps() <= 0 {
		t.Fatal("meter recorded nothing")
	}
}

// TestZipfSameSeedIdentical is the regression test for the lazy-bind bug:
// a Zipf literal used to attach its value generator to whichever rng the
// first Next call happened to pass, so two "same seed" runs could diverge
// from op 0 if construction order differed. NewZipf binds at construction;
// two generators built from equally-seeded rngs must emit byte-identical
// op streams from the very first draw.
func TestZipfSameSeedIdentical(t *testing.T) {
	const seed, ops = 42, 2000
	mk := func() []Op {
		rng := rand.New(rand.NewSource(seed))
		z := NewZipf(rng, 8192, 1.1, 4, 0.3)
		out := make([]Op, ops)
		for i := range out {
			out[i] = z.Next(rng)
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
	// The stream must also be insensitive to *when* the generator is built
	// relative to other draws on a different rng — the constructor, not the
	// first Next caller, owns the binding.
	rng1 := rand.New(rand.NewSource(seed))
	z1 := NewZipf(rng1, 8192, 1.1, 4, 0)
	rng2 := rand.New(rand.NewSource(seed))
	other := rand.New(rand.NewSource(99))
	other.Uint64() // unrelated traffic before z2 is ever used
	z2 := NewZipf(rng2, 8192, 1.1, 4, 0)
	for i := 0; i < ops; i++ {
		if l1, l2 := z1.Next(rng1).LBA, z2.Next(rng2).LBA; l1 != l2 {
			t.Fatalf("op %d LBA diverged with bystander rng traffic: %d vs %d", i, l1, l2)
		}
	}
}
