package qos

import (
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Admission is the front-door token-bucket stage: one GCRA (generic cell
// rate algorithm) bucket per configured tenant, refilled by virtual time.
// A conforming op passes immediately; an over-rate op reserves the next
// emission slot and sleeps until it, up to the tenant's MaxQueue
// outstanding waiters; beyond that arrivals shed with ErrThrottled so the
// wait queue stays bounded.
//
// GCRA keeps one theoretical-arrival-time (TAT) per tenant instead of a
// fractional token count, so refill is exact integer virtual-time
// arithmetic — no float drift, byte-identical same-seed runs.
type Admission struct {
	k       *sim.Kernel
	enabled bool
	names   []string
	buckets map[string]*bucket
}

type bucket struct {
	spec TenantSpec
	// tat is the theoretical arrival time of the next conforming op.
	tat sim.Time
	// waiting counts ops currently sleeping for tokens.
	waiting int

	admitted  int64
	delayed   int64
	throttled int64
	waitTime  sim.Duration
}

// TenantStats is one tenant's admission counters for reports and E13.
type TenantStats struct {
	Tenant    string
	Rate      float64
	Burst     float64
	MaxQueue  int
	Admitted  int64
	Delayed   int64
	Throttled int64
	Waiting   int
	WaitMs    float64
}

// DefaultMaxQueue is the wait-queue bound a rate-limited TenantSpec gets
// when it leaves MaxQueue zero. A spec that only sets Rate/Burst wants
// pacing, not a shed-everything-over-rate cliff; callers that really want
// immediate sheds say so with a negative MaxQueue.
const DefaultMaxQueue = 64

// NewAdmission builds the stage (initially disabled) from the tenant
// specs, validating each one: tenants with Rate <= 0 are pass-through,
// rate-limited specs with MaxQueue left zero get DefaultMaxQueue, and a
// negative MaxQueue normalizes to 0 (no waiting — immediate shed when out
// of tokens). Stats report the effective spec.
func NewAdmission(k *sim.Kernel, specs map[string]TenantSpec) *Admission {
	a := &Admission{k: k, buckets: make(map[string]*bucket), names: sortedTenants(specs)}
	for _, n := range a.names {
		spec := specs[n]
		if spec.Rate > 0 && spec.MaxQueue == 0 {
			spec.MaxQueue = DefaultMaxQueue
		}
		if spec.MaxQueue < 0 {
			spec.MaxQueue = 0
		}
		a.buckets[n] = &bucket{spec: spec}
	}
	return a
}

// SetEnabled flips the stage; disabled, Admit admits everything instantly.
func (a *Admission) SetEnabled(on bool) { a.enabled = on }

// Admit charges cost units (blocks) against tenant's bucket from process
// p. It returns nil once admitted — possibly after sleeping in virtual
// time — or ErrThrottled when the tenant's wait queue is full. Unknown
// and unlimited tenants pass through untouched.
func (a *Admission) Admit(p *sim.Proc, tenant string, cost int) error {
	if !a.enabled {
		return nil
	}
	b, ok := a.buckets[tenant]
	if !ok || b.spec.Rate <= 0 {
		return nil
	}
	if cost < 1 {
		cost = 1
	}
	// Emission interval for this op and the bucket's burst tolerance,
	// both in virtual time.
	t := sim.Duration(float64(cost) / b.spec.Rate * float64(sim.Second))
	tau := sim.Duration(b.spec.Burst / b.spec.Rate * float64(sim.Second))
	now := p.Now()
	earliest := b.tat.Add(-tau)
	if now >= earliest {
		// Conforming: consume and go.
		if now > b.tat {
			b.tat = now
		}
		b.tat = b.tat.Add(t)
		b.admitted++
		return nil
	}
	if b.waiting >= b.spec.MaxQueue {
		b.throttled++
		return ErrThrottled
	}
	// Reserve the next emission slot now so later arrivals queue behind
	// it, then sleep until the slot conforms. A non-positive wait cannot
	// happen here (now < earliest strictly), but guard it anyway so a
	// zero-wait op is counted as a plain admit — never as a Delayed op
	// with zero waitTime, and never a Sleep(0) that would shuffle the
	// event order for nothing.
	b.tat = b.tat.Add(t)
	wait := earliest.Sub(now)
	if wait <= 0 {
		b.admitted++
		return nil
	}
	b.waiting++
	p.Sleep(wait)
	b.waiting--
	b.admitted++
	b.delayed++
	b.waitTime += wait
	return nil
}

// Stats returns per-tenant counters in sorted tenant order.
func (a *Admission) Stats() []TenantStats {
	out := make([]TenantStats, 0, len(a.names))
	for _, n := range a.names {
		b := a.buckets[n]
		out = append(out, TenantStats{
			Tenant:    n,
			Rate:      b.spec.Rate,
			Burst:     b.spec.Burst,
			MaxQueue:  b.spec.MaxQueue,
			Admitted:  b.admitted,
			Delayed:   b.delayed,
			Throttled: b.throttled,
			Waiting:   b.waiting,
			WaitMs:    b.waitTime.Millis(),
		})
	}
	return out
}

// registerTelemetry publishes per-tenant counters under s
// (<tenant>/{admitted,delayed,throttled,waiting}).
func (a *Admission) registerTelemetry(s telemetry.Scope) {
	for _, n := range a.names {
		b := a.buckets[n]
		ts := s.Sub(n)
		ts.Int("admitted", func() int64 { return b.admitted })
		ts.Int("delayed", func() int64 { return b.delayed })
		ts.Int("throttled", func() int64 { return b.throttled })
		ts.Int("waiting", func() int64 { return int64(b.waiting) })
	}
}
