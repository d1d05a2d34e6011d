package qos

import "repro/internal/sim"

// FairQueue is a start-time fair queueing (SFQ) semaphore: capacity
// service slots shared across NumLanes lanes, each with a weight. Waiters
// are stamped with a virtual finish tag at enqueue (start = max(queue
// virtual time, lane's last finish); finish = start + cost/weight) and
// dispatched in finish-tag order, which gives each backlogged lane
// throughput proportional to its weight while staying work-conserving:
// an idle lane cedes its share instantly because tags only advance with
// real arrivals.
//
// Disabled, tags are ignored and waiters dispatch in global arrival
// order, as the plain sim.Semaphore the queue replaces does. At capacity 1
// the two grant the same waiter at the same time; with more slots they
// can interleave same-time events differently, because a release hands
// the freed slot to the next waiter at once where the semaphore wakes its
// head to take it.
type FairQueue struct {
	k        *sim.Kernel
	capacity int
	avail    int
	enabled  bool

	weights    [NumLanes]float64
	vtime      float64
	lastFinish [NumLanes]float64
	seq        uint64

	queues [NumLanes][]fqWaiter

	depth      [NumLanes]int
	maxDepth   [NumLanes]int
	dispatched [NumLanes]int64
}

type fqWaiter struct {
	f      *sim.Future[struct{}]
	finish float64
	cost   float64
	seq    uint64
}

// LaneStats is one lane's occupancy snapshot: ops currently waiting, the
// high-water waiting depth, and total dispatches.
type LaneStats struct {
	Depth      int
	MaxDepth   int
	Dispatched int64
}

// NewFairQueue returns a queue with capacity service slots and the given
// lane weights (zero entries default to 1). Initially disabled (FIFO).
func NewFairQueue(k *sim.Kernel, capacity int, weights [NumLanes]float64) *FairQueue {
	if capacity < 1 {
		capacity = 1
	}
	for i, w := range weights {
		if w <= 0 {
			weights[i] = 1
		}
	}
	return &FairQueue{k: k, capacity: capacity, avail: capacity, weights: weights}
}

// SetEnabled switches between weighted-fair (true) and global-FIFO
// (false) dispatch. Tags are assigned at enqueue, so already-queued
// waiters keep the order they arrived under.
func (q *FairQueue) SetEnabled(on bool) { q.enabled = on }

// SetWeight updates one lane's weight, effective immediately: waiters
// already stamped under the old weight are re-tagged at the new rate from
// the current virtual time (intra-lane order preserved), because tags
// computed under the old weight would keep charging the old rate until
// the backlog drained — a governor narrow on a deep background lane would
// otherwise not bite until every pre-change waiter dispatched, and stale
// tags can over- or under-penalize the lane against its peers. An empty
// lane just has lastFinish reset to the queue's virtual time so its next
// arrival starts fresh under the new weight.
func (q *FairQueue) SetWeight(lane int, w float64) {
	if w <= 0 {
		w = minBackgroundWeight
	}
	lane = ClampLane(lane)
	if q.weights[lane] == w {
		return
	}
	q.weights[lane] = w
	if !q.enabled {
		// Disabled queues carry no meaningful tags (dispatch is by seq);
		// the new weight applies if and when the queue is re-enabled.
		return
	}
	if len(q.queues[lane]) == 0 {
		q.lastFinish[lane] = q.vtime
		return
	}
	prev := q.vtime
	for i := range q.queues[lane] {
		wt := &q.queues[lane][i]
		wt.finish = prev + wt.cost/w
		prev = wt.finish
	}
	q.lastFinish[lane] = prev
}

// Acquire blocks p until a service slot is free, competing in lane with
// the given cost (cost <= 0 counts as 1). Callers must pair it with
// Release.
func (q *FairQueue) Acquire(p *sim.Proc, lane int, cost float64) {
	lane = ClampLane(lane)
	if cost <= 0 {
		cost = 1
	}
	if q.avail > 0 && q.idle() {
		// Work-conserving fast path: free slot, nobody waiting.
		q.avail--
		q.dispatched[lane]++
		return
	}
	w := fqWaiter{f: sim.NewFuture[struct{}](q.k), cost: cost, seq: q.seq}
	q.seq++
	if q.enabled {
		start := q.lastFinish[lane]
		if q.vtime > start {
			start = q.vtime
		}
		w.finish = start + cost/q.weights[lane]
		q.lastFinish[lane] = w.finish
	}
	q.queues[lane] = append(q.queues[lane], w)
	q.depth[lane]++
	if q.depth[lane] > q.maxDepth[lane] {
		q.maxDepth[lane] = q.depth[lane]
	}
	w.f.Wait(p)
}

// Release frees one service slot and dispatches eligible waiters.
func (q *FairQueue) Release() {
	q.avail++
	if q.avail > q.capacity {
		panic("qos: FairQueue released more than acquired")
	}
	q.dispatch()
}

// idle reports whether no waiter is queued in any lane.
func (q *FairQueue) idle() bool {
	for l := 0; l < NumLanes; l++ {
		if len(q.queues[l]) > 0 {
			return false
		}
	}
	return true
}

// dispatch grants free slots to waiting ops in tag order (arrival order
// when disabled). Each grant schedules the waiter's wake at the current
// virtual time via Future.Set, preserving deterministic event order.
func (q *FairQueue) dispatch() {
	for q.avail > 0 {
		best := -1
		for l := 0; l < NumLanes; l++ {
			if len(q.queues[l]) == 0 {
				continue
			}
			if best < 0 || q.before(q.queues[l][0], q.queues[best][0]) {
				best = l
			}
		}
		if best < 0 {
			return
		}
		w := q.queues[best][0]
		q.queues[best] = q.queues[best][1:]
		q.depth[best]--
		q.avail--
		q.dispatched[best]++
		if q.enabled && w.finish > q.vtime {
			q.vtime = w.finish
		}
		w.f.Set(struct{}{})
	}
}

// before orders two lane heads: by finish tag when enabled (arrival seq
// breaks ties), by arrival seq alone when disabled.
func (q *FairQueue) before(a, b fqWaiter) bool {
	if q.enabled {
		if a.finish != b.finish {
			return a.finish < b.finish
		}
	}
	return a.seq < b.seq
}

// Stats returns per-lane occupancy counters.
func (q *FairQueue) Stats() [NumLanes]LaneStats {
	var out [NumLanes]LaneStats
	for l := 0; l < NumLanes; l++ {
		out[l] = LaneStats{Depth: q.depth[l], MaxDepth: q.maxDepth[l], Dispatched: q.dispatched[l]}
	}
	return out
}
