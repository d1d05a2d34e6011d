package qos

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// wfqOp is one scripted acquire in the randomized schedules below.
type wfqOp struct {
	lane    int
	arrive  sim.Duration
	cost    float64
	service sim.Duration
}

// runSchedule replays ops against a fresh capacity-1 FairQueue and returns
// the grant order as lane indexes. Each op is its own process: it sleeps
// to its arrival time, competes for the queue in its lane, holds the slot
// for its service time, releases.
func runSchedule(seed int64, enabled bool, ops []wfqOp) (order []int, makespan sim.Duration) {
	k := sim.NewKernel(seed)
	q := NewFairQueue(k, 1, DefaultWeights())
	q.SetEnabled(enabled)
	for i, op := range ops {
		op := op
		k.Go(fmt.Sprintf("op%d", i), func(p *sim.Proc) {
			p.Sleep(op.arrive)
			q.Acquire(p, op.lane, op.cost)
			order = append(order, op.lane)
			p.Sleep(op.service)
			q.Release()
		})
	}
	k.Run()
	return order, sim.Duration(k.Now())
}

// randomSchedule builds a mixed-lane load: perLane ops in every lane, all
// arriving inside a burst window far shorter than total service demand,
// so every lane stays backlogged for most of the run.
func randomSchedule(seed int64, perLane int) []wfqOp {
	rng := rand.New(rand.NewSource(seed))
	var ops []wfqOp
	for lane := 0; lane < NumLanes; lane++ {
		for i := 0; i < perLane; i++ {
			ops = append(ops, wfqOp{
				lane:    lane,
				arrive:  sim.Duration(rng.Intn(500)) * sim.Microsecond,
				cost:    float64(1 + rng.Intn(4)),
				service: sim.Duration(200+rng.Intn(200)) * sim.Microsecond,
			})
		}
	}
	return ops
}

// TestWFQNoStarvation: under sustained mixed-lane backlog, every lane with
// waiters keeps making progress — the gap between a lane's consecutive
// grants stays bounded (FIFO would let a burst of high-weight arrivals
// push the rest out indefinitely; SFQ finish tags cannot).
func TestWFQNoStarvation(t *testing.T) {
	const perLane = 40
	for seed := int64(1); seed <= 6; seed++ {
		order, _ := runSchedule(seed, true, randomSchedule(seed, perLane))
		if len(order) != perLane*NumLanes {
			t.Fatalf("seed %d: %d grants, want %d", seed, len(order), perLane*NumLanes)
		}
		// Worst-case inter-grant gap for the min-weight lane competing with
		// weights 1,2,4,8,1 and max cost 4: roughly sum(w)/min(w) * maxCost
		// dispatches. 80 is a generous deterministic bound.
		const maxGap = 80
		last := map[int]int{}
		granted := map[int]int{}
		for i, lane := range order {
			if prev, seen := last[lane]; seen && granted[lane] < perLane {
				if gap := i - prev; gap > maxGap {
					t.Fatalf("seed %d: lane %d starved for %d dispatches (pos %d)", seed, lane, gap, i)
				}
			}
			last[lane] = i
			granted[lane]++
		}
	}
}

// TestWFQDeterministic: the same seed must replay to the identical grant
// sequence — the property every same-seed experiment rests on.
func TestWFQDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		a, ma := runSchedule(seed, true, randomSchedule(seed, 30))
		b, mb := runSchedule(seed, true, randomSchedule(seed, 30))
		if ma != mb {
			t.Fatalf("seed %d: makespans differ: %v vs %v", seed, ma, mb)
		}
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("seed %d: grant orders differ:\n%v\n%v", seed, a, b)
		}
	}
}

// TestWFQWorkConserving: with only one lane backlogged, weighting must not
// cost any throughput — the makespan equals the plain-FIFO makespan, and
// the slot is never idle while work waits.
func TestWFQWorkConserving(t *testing.T) {
	for lane := 0; lane < NumLanes; lane++ {
		var ops []wfqOp
		for i := 0; i < 50; i++ {
			ops = append(ops, wfqOp{lane: lane, cost: 1, service: 300 * sim.Microsecond})
		}
		_, wfq := runSchedule(1, true, ops)
		_, fifo := runSchedule(1, false, ops)
		if wfq != fifo {
			t.Fatalf("lane %d: WFQ makespan %v != FIFO makespan %v", lane, wfq, fifo)
		}
		if want := 50 * 300 * sim.Microsecond; wfq != want {
			t.Fatalf("lane %d: slot went idle with work queued: makespan %v, want %v", lane, wfq, want)
		}
	}
}

// TestWFQWeightedShares: while every lane is continuously backlogged, the
// grant counts over a window track the lane weights (the defining WFQ
// property, loose tolerance for discretization).
func TestWFQWeightedShares(t *testing.T) {
	const perLane = 60
	var ops []wfqOp
	for lane := 0; lane < NumLanes; lane++ {
		for i := 0; i < perLane; i++ {
			ops = append(ops, wfqOp{lane: lane, cost: 1, service: 100 * sim.Microsecond})
		}
	}
	order, _ := runSchedule(1, true, ops)
	// Judge only the prefix where all lanes still have waiters: stop once
	// any lane is exhausted.
	counts := map[int]int{}
	window := 0
	for _, lane := range order {
		counts[lane]++
		window++
		if counts[lane] == perLane {
			break
		}
	}
	w := DefaultWeights()
	var totalW float64
	for _, x := range w {
		totalW += x
	}
	for lane := 0; lane < NumLanes; lane++ {
		got := float64(counts[lane]) / float64(window)
		want := w[lane] / totalW
		if got < want*0.7-0.02 || got > want*1.3+0.02 {
			t.Errorf("lane %d share %.3f, want ≈%.3f (counts %v over %d)", lane, got, want, counts, window)
		}
	}
}

// weightChange is a scripted SetWeight call at a virtual time, for the
// mid-run weight-change tests below.
type weightChange struct {
	at   sim.Duration
	lane int
	w    float64
}

// fqGrant records one grant with its virtual timestamp so tests can judge
// shares inside a time window.
type fqGrant struct {
	lane int
	at   sim.Duration
}

// runScheduleChanges is runSchedule (enabled mode) plus scripted weight
// changes applied mid-run from their own processes.
func runScheduleChanges(seed int64, ops []wfqOp, changes []weightChange) (grants []fqGrant, makespan sim.Duration) {
	k := sim.NewKernel(seed)
	q := NewFairQueue(k, 1, DefaultWeights())
	q.SetEnabled(true)
	for i, op := range ops {
		op := op
		k.Go(fmt.Sprintf("op%d", i), func(p *sim.Proc) {
			p.Sleep(op.arrive)
			q.Acquire(p, op.lane, op.cost)
			grants = append(grants, fqGrant{lane: op.lane, at: sim.Duration(p.Now())})
			p.Sleep(op.service)
			q.Release()
		})
	}
	for i, ch := range changes {
		ch := ch
		k.Go(fmt.Sprintf("chg%d", i), func(p *sim.Proc) {
			p.Sleep(ch.at)
			q.SetWeight(ch.lane, ch.w)
		})
	}
	k.Run()
	return grants, sim.Duration(k.Now())
}

// laneShare returns lane's fraction of the grants inside [from, to).
func laneShare(grants []fqGrant, lane int, from, to sim.Duration) (share float64, n int) {
	hit := 0
	for _, g := range grants {
		if g.at < from || g.at >= to {
			continue
		}
		n++
		if g.lane == lane {
			hit++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return float64(hit) / float64(n), n
}

// TestWFQSetWeightMidBacklog is the SetWeight retagging regression: a
// governor-style narrow on a deep background backlog must bite on the very
// next grants, not after the pre-change backlog drains. Before retagging,
// the background waiters kept their equal-weight finish tags and held a
// ~50% share until the lane emptied.
func TestWFQSetWeightMidBacklog(t *testing.T) {
	const perLane = 80
	var ops []wfqOp
	for _, lane := range []int{0, LaneBackground} { // both weight 1 by default
		for i := 0; i < perLane; i++ {
			ops = append(ops, wfqOp{lane: lane, cost: 1, service: 100 * sim.Microsecond})
		}
	}
	grants, _ := runScheduleChanges(1, ops, []weightChange{
		{at: 3 * sim.Millisecond, lane: LaneBackground, w: 0.25},
	})
	pre, npre := laneShare(grants, LaneBackground, 0, 3*sim.Millisecond)
	if npre < 20 || pre < 0.4 || pre > 0.6 {
		t.Fatalf("pre-change background share %.3f over %d grants, want ≈0.5", pre, npre)
	}
	// After the narrow, weights are 1 vs 0.25: the background share must
	// drop to ≈0.2 immediately (stale tags would hold it at ≈0.5).
	post, npost := laneShare(grants, LaneBackground, 3500*sim.Microsecond, 10*sim.Millisecond)
	if npost < 40 {
		t.Fatalf("post-change window too thin: %d grants", npost)
	}
	if post < 0.1 || post > 0.3 {
		t.Fatalf("post-change background share %.3f over %d grants, want ≈0.2 under the new weight", post, npost)
	}
}

// TestWFQSharesTrackCurrentWeights: with every lane continuously
// backlogged, a mid-run widen must move the measured shares to the *new*
// weight vector — the satellite property that shares track current
// weights, not the weights ops were stamped under.
func TestWFQSharesTrackCurrentWeights(t *testing.T) {
	const perLane = 80
	var ops []wfqOp
	for lane := 0; lane < NumLanes; lane++ {
		for i := 0; i < perLane; i++ {
			ops = append(ops, wfqOp{lane: lane, cost: 1, service: 100 * sim.Microsecond})
		}
	}
	const newBG = 6.0
	grants, _ := runScheduleChanges(1, ops, []weightChange{
		{at: 8 * sim.Millisecond, lane: LaneBackground, w: newBG},
	})
	w := DefaultWeights()
	w[LaneBackground] = newBG
	var totalW float64
	for _, x := range w {
		totalW += x
	}
	// Judge a settled window after the change; all lanes stay backlogged
	// through 16ms (see the grant budget in the share math above).
	for lane := 0; lane < NumLanes; lane++ {
		got, n := laneShare(grants, lane, 9*sim.Millisecond, 16*sim.Millisecond)
		want := w[lane] / totalW
		if n < 40 {
			t.Fatalf("lane %d: window too thin (%d grants)", lane, n)
		}
		if got < want*0.7-0.02 || got > want*1.3+0.02 {
			t.Errorf("lane %d share %.3f over %d grants, want ≈%.3f under current weights", lane, got, n, want)
		}
	}
}

// TestWFQNoStarvationUnderWeightChanges: randomized schedules with random
// mid-run weight changes still grant every op with bounded inter-grant
// gaps per lane — retagging never strands a waiter.
func TestWFQNoStarvationUnderWeightChanges(t *testing.T) {
	const perLane = 40
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed * 977))
		var changes []weightChange
		steps := []float64{0.5, 1, 2, 4, 8}
		for i := 0; i < 6; i++ {
			changes = append(changes, weightChange{
				at:   sim.Duration(1+rng.Intn(12)) * sim.Millisecond,
				lane: rng.Intn(NumLanes),
				w:    steps[rng.Intn(len(steps))],
			})
		}
		grants, _ := runScheduleChanges(seed, randomSchedule(seed, perLane), changes)
		if len(grants) != perLane*NumLanes {
			t.Fatalf("seed %d: %d grants, want %d", seed, len(grants), perLane*NumLanes)
		}
		// Looser bound than TestWFQNoStarvation: weights may sit at 8:0.5
		// for a stretch, so a min-weight lane can legitimately wait
		// ~sum(w)/min(w)*maxCost ≈ 150 dispatches.
		const maxGap = 150
		last := map[int]int{}
		granted := map[int]int{}
		for i, g := range grants {
			if prev, seen := last[g.lane]; seen && granted[g.lane] < perLane {
				if gap := i - prev; gap > maxGap {
					t.Fatalf("seed %d: lane %d starved for %d dispatches (pos %d)", seed, g.lane, gap, i)
				}
			}
			last[g.lane] = i
			granted[g.lane]++
		}
	}
}

// TestWFQDeterministicUnderWeightChanges: scripted weight changes keep the
// same-seed byte-identical replay property.
func TestWFQDeterministicUnderWeightChanges(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		changes := []weightChange{
			{at: 2 * sim.Millisecond, lane: LaneBackground, w: 0.25},
			{at: 5 * sim.Millisecond, lane: 1, w: 6},
			{at: 9 * sim.Millisecond, lane: LaneBackground, w: 2},
		}
		a, ma := runScheduleChanges(seed, randomSchedule(seed, 30), changes)
		b, mb := runScheduleChanges(seed, randomSchedule(seed, 30), changes)
		if ma != mb {
			t.Fatalf("seed %d: makespans differ: %v vs %v", seed, ma, mb)
		}
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("seed %d: grant orders differ:\n%v\n%v", seed, a, b)
		}
	}
}

// TestWFQDisabledIsFIFO: disabled, grants come in arrival order regardless
// of lane — the pre-QoS semaphore behaviour.
func TestWFQDisabledIsFIFO(t *testing.T) {
	var ops []wfqOp
	for i := 0; i < 30; i++ {
		ops = append(ops, wfqOp{
			lane:    i % NumLanes,
			arrive:  sim.Duration(i) * sim.Microsecond,
			cost:    1,
			service: 500 * sim.Microsecond,
		})
	}
	order, _ := runSchedule(1, false, ops)
	for i, lane := range order {
		if lane != i%NumLanes {
			t.Fatalf("grant %d went to lane %d, want arrival order (lane %d)", i, lane, i%NumLanes)
		}
	}
}

// TestWFQDisabledMatchesSemaphoreAtCapacityOne: a disabled capacity-1
// queue grants the same op at the same virtual time as a plain
// sim.Semaphore of one permit, over random schedules full of same-time
// arrivals, releases and zero-length holds. Only capacity 1 matches: at
// release the queue hands the freed slot to the next waiter at once, where
// the semaphore wakes its head to take it, so with several slots the two
// can interleave other same-time events differently.
func TestWFQDisabledMatchesSemaphoreAtCapacityOne(t *testing.T) {
	type slot struct {
		acquire func(p *sim.Proc, op wfqOp)
		release func()
	}
	replay := func(seed int64, ops []wfqOp, mk func(k *sim.Kernel) slot) []string {
		k := sim.NewKernel(seed)
		s := mk(k)
		var log []string
		for i, op := range ops {
			k.Go(fmt.Sprintf("op%d", i), func(p *sim.Proc) {
				p.Sleep(op.arrive)
				for round := 0; round < 2; round++ {
					log = append(log, fmt.Sprintf("op%d arrives@%v", i, k.Now()))
					s.acquire(p, op)
					log = append(log, fmt.Sprintf("op%d granted@%v", i, k.Now()))
					p.Sleep(op.service)
					s.release()
					p.Yield()
				}
			})
		}
		k.Run()
		return log
	}
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]wfqOp, 60)
		for i := range ops {
			ops[i] = wfqOp{
				lane:    rng.Intn(NumLanes),
				arrive:  sim.Duration(rng.Intn(20)) * 50 * sim.Microsecond,
				cost:    float64(1 + rng.Intn(4)),
				service: sim.Duration(rng.Intn(4)) * 100 * sim.Microsecond,
			}
		}
		fq := replay(seed, ops, func(k *sim.Kernel) slot {
			q := NewFairQueue(k, 1, DefaultWeights())
			return slot{func(p *sim.Proc, op wfqOp) { q.Acquire(p, op.lane, op.cost) }, q.Release}
		})
		sem := replay(seed, ops, func(k *sim.Kernel) slot {
			s := sim.NewSemaphore(k, 1)
			return slot{func(p *sim.Proc, _ wfqOp) { s.Acquire(p, 1) }, func() { s.Release(1) }}
		})
		if fmt.Sprint(fq) != fmt.Sprint(sem) {
			t.Fatalf("seed %d: grants differ:\nqueue     %v\nsemaphore %v", seed, fq, sem)
		}
	}
}
