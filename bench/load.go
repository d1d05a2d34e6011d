package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/sim"
)

// opResult is what one closed-loop operation reports back to the loop:
// the outermost call's name (for its span), the payload bytes it moved,
// and an error for a failed call or a wrong result.
type opResult struct {
	name  string
	bytes int
	err   error
}

// opFunc issues one operation from client on p and verifies its output.
type opFunc func(p *sim.Proc, client int) opResult

// hostChunks is how many equal-op slices the measure phase is timed in, each
// between two yardstick readings of its own, so a burst of slowness on the
// box is taken out of the slice it hit; host_us_per_op is the sum of the
// normalised slices over the ops. (The median slice is steadier on the
// stationary workloads but twice as noisy on block-mixed, whose stalls make
// slices cost anything from 0.5 to 2 times the mean.) The smoke test cuts
// fewer.
var hostChunks = 64

// jitter bounds two seeded virtual pauses of every caller: one before it
// takes a ticket, and one between the ticket and the call, so an op's
// latency (ticket to reply) includes the second. This deterministic system
// has no noise of its own, and a median of identical samples reads the same
// on every seed: callers of a saturated all-hit workload phase-lock onto the
// blades' 50 µs service grid (the first pause varies when they join the
// queue), and an uncontended all-hit op costs the same nanoseconds every
// time (the second varies what it costs). One microsecond is 0.5% of the
// shortest op; it keeps the samples continuous and moves nothing else.
const jitter = sim.Microsecond

// This sandbox has slow phases: for a minute or more everything takes 1.3 to
// 2 times as long, so ten runs in a row spread by 30-60% in wall time while
// every count they make repeats exactly. No statistic within a run can take
// that out, so host times are reported relative to a yardstick measured
// beside them: takeYardstick times a fixed piece of single-threaded work
// that uses only the Go runtime (small allocations, map updates and block
// copies, the staple of the simulator), and a host time is scaled by
// calibNominal over the yardstick's time around it. The yardstick shares no
// code with the repository, so no change to the system moves it.
const (
	calibTurns = 50000
	// calibNominal is the yardstick's time on the 2-core box in a fast
	// phase, which keeps normalised times in that box's microseconds.
	calibNominal = 4 * time.Millisecond
)

// yardstick is one reading: how long the fixed work took, and what it
// allocated, which the phase around it must not be charged for.
type yardstick struct {
	took           time.Duration
	mallocs, bytes uint64
}

func takeYardstick() yardstick {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	index := make(map[int]*[64]byte, 1024)
	for i := 0; i < 1024; i++ {
		index[i] = new([64]byte)
	}
	var src, dst [4096]byte
	t0 := time.Now()
	for i := 0; i < calibTurns; i++ {
		b := new([64]byte)
		b[0] = byte(i)
		index[i&1023] = b
		src[i&4095] = index[(i*7)&1023][0]
		copy(dst[:], src[:])
	}
	took := time.Since(t0)
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(dst)
	return yardstick{took, m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc}
}

// speed is how fast the box ran between two yardstick readings, relative to
// nominal: below 1 in a slow phase.
func speed(before, after time.Duration) float64 {
	return float64(calibNominal) / (float64(before+after) / 2)
}

// stopwatch times set-up in laps of about lapEvery, each opened and closed
// by a yardstick reading (whose own time belongs to no lap), and sums the
// laps as read and as normalised. A nil *stopwatch does nothing.
type stopwatch struct {
	opened     time.Time     // when the current lap began
	yard       time.Duration // the reading that opened it
	wall, norm time.Duration
}

const lapEvery = 100 * time.Millisecond

func startStopwatch() *stopwatch {
	y := takeYardstick().took
	return &stopwatch{opened: time.Now(), yard: y}
}

// lap closes the current lap and opens the next.
func (s *stopwatch) lap() {
	if s == nil {
		return
	}
	wall := time.Since(s.opened)
	y := takeYardstick().took
	s.wall += wall
	s.norm += time.Duration(float64(wall) * speed(s.yard, y))
	s.opened, s.yard = time.Now(), y
}

// lapIfDue is lap once the current one has run for lapEvery; set-up calls
// it wherever it is between two steps of the kernel.
func (s *stopwatch) lapIfDue() {
	if s != nil && time.Since(s.opened) >= lapEvery {
		s.lap()
	}
}

// loadResult is one drained closed-loop phase.
type loadResult struct {
	lat      []sim.Duration // per-op virtual latency, in ticket order
	bytes    int64
	failed   int
	firstErr string
	virt     sim.Duration  // first issue to last completion
	host     time.Duration // wall time of the timed slices, as read
	hostNorm time.Duration // the same, each slice normalised by its yardstick
	mallocs  uint64
	allocB   uint64
}

// runLoad issues exactly ops operations from one shared ticket counter
// over clients closed-loop callers (each waits for its reply, then takes
// the next ticket) and returns once every issued op has completed, so the
// sample count is exact and nothing is censored. Callers start staggered
// over one virtual millisecond; stagger and jitter come from seed.
//
// When spans is non-nil every op runs inside an outer span whose op id
// rides on the proc's trace context. probe, when non-nil, runs between
// kernel steps (every 10 virtual ms) to sample instantaneous state. Only a
// timed phase (the measure phase, not the warm-up) reads the host clock, the
// yardstick and the allocation counters.
func runLoad(k *sim.Kernel, seed int64, clients, ops int, op opFunc, spans *spanLog, probe func(), timed bool) loadResult {
	res := loadResult{lat: make([]sim.Duration, ops)}
	chunk := (ops + hostChunks - 1) / hostChunks
	// A mark closes one timed slice and opens the next, with a yardstick
	// reading between the two that belongs to neither.
	type mark struct {
		closed, opened time.Time
		yard           yardstick
	}
	var marks []mark
	cut := func() {
		if !timed {
			return
		}
		m := mark{closed: time.Now()}
		m.yard = takeYardstick()
		m.opened = time.Now()
		marks = append(marks, m)
	}
	next, done := 0, 0
	start := k.Now()
	end := start

	var m0, m1 runtime.MemStats
	if timed {
		runtime.ReadMemStats(&m0)
	}
	for c := 0; c < clients; c++ {
		c := c
		rng := rand.New(rand.NewSource(seed*1000003 + int64(c)))
		k.Go(fmt.Sprintf("bench-client-%d", c), func(p *sim.Proc) {
			defer func() { done++ }()
			p.Sleep(sim.Duration(rng.Int63n(int64(sim.Millisecond))))
			for next < ops {
				t := next
				next++
				if t%chunk == 0 {
					cut()
				}
				issued := p.Now()
				p.Sleep(sim.Duration(rng.Int63n(int64(jitter))))
				sp := spans.beginOp(p)
				r := op(p, c)
				spans.endOp(p, sp, r.name)
				res.lat[t] = p.Now().Sub(issued)
				res.bytes += int64(r.bytes)
				if r.err != nil {
					res.failed++
					if res.firstErr == "" {
						res.firstErr = r.err.Error()
					}
				}
				if p.Now() > end {
					end = p.Now()
				}
				p.Sleep(sim.Duration(rng.Int63n(int64(jitter))))
			}
		})
	}
	for done < clients {
		k.RunFor(10 * sim.Millisecond)
		if probe != nil {
			probe()
		}
	}
	res.virt = end.Sub(start)
	if !timed {
		return res
	}
	cut()
	runtime.ReadMemStats(&m1)
	res.mallocs = m1.Mallocs - m0.Mallocs
	res.allocB = m1.TotalAlloc - m0.TotalAlloc
	for i, m := range marks {
		res.mallocs -= m.yard.mallocs
		res.allocB -= m.yard.bytes
		if i == 0 {
			continue
		}
		wall := m.closed.Sub(marks[i-1].opened)
		res.host += wall
		res.hostNorm += time.Duration(float64(wall) * speed(marks[i-1].yard.took, m.yard.took))
	}
	return res
}

// runProc runs body as one simulation process and advances the kernel
// until it returns. Background daemons (flushers) keep the event queue
// non-empty forever, so the kernel is stepped rather than drained.
func runProc(k *sim.Kernel, name string, body func(p *sim.Proc) error) error {
	return runProcTimed(k, nil, name, body)
}

// runProcTimed is runProc for set-up: sw laps between the kernel's steps.
func runProcTimed(k *sim.Kernel, sw *stopwatch, name string, body func(p *sim.Proc) error) error {
	var err error
	done := false
	k.Go(name, func(p *sim.Proc) {
		err = body(p)
		done = true
	})
	for !done {
		k.RunFor(10 * sim.Millisecond)
		sw.lapIfDue()
	}
	return err
}

// percentile is the nearest-rank q-quantile of sorted (ascending), capped
// at the highest rank that still has at least ten samples beyond it, so a
// short run cannot report its few worst samples as a tail. It returns the
// value and the quantile actually used.
func percentile(sorted []sim.Duration, q float64) (sim.Duration, float64) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if limit := n - 10; rank > limit {
		rank = limit
	}
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], float64(rank) / float64(n)
}

func sortedCopy(d []sim.Duration) []sim.Duration {
	s := append([]sim.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
