package qos

import (
	"errors"
	"testing"

	"repro/internal/sim"
)

// TestBucketPacesToRate: a single tenant pushing cost units back-to-back
// gets its burst instantly, then is paced to exactly Rate by GCRA's
// virtual-time reservation.
func TestBucketPacesToRate(t *testing.T) {
	k := sim.NewKernel(1)
	a := NewAdmission(k, map[string]TenantSpec{
		"t": {Rate: 1000, Burst: 1, MaxQueue: 32},
	})
	a.SetEnabled(true)
	var end sim.Time
	k.Go("client", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			if err := a.Admit(p, "t", 1); err != nil {
				t.Errorf("op %d: %v", i, err)
			}
		}
		end = p.Now()
	})
	k.Run()
	// Rate 1000/s is a 1ms emission interval; burst 1 lets two ops through
	// at t=0, then every later op waits to its slot: 10 ops end at 8ms.
	if want := sim.Time(0).Add(8 * sim.Millisecond); end != want {
		t.Errorf("10 ops finished at %v, want %v", end, want)
	}
	st := a.Stats()
	if len(st) != 1 || st[0].Admitted != 10 || st[0].Delayed != 8 || st[0].Throttled != 0 {
		t.Errorf("stats = %+v, want admitted 10 delayed 8 throttled 0", st)
	}
}

// TestBucketShedsWhenQueueFull: concurrent arrivals past burst+MaxQueue
// shed with ErrThrottled instead of queueing unboundedly.
func TestBucketShedsWhenQueueFull(t *testing.T) {
	k := sim.NewKernel(1)
	a := NewAdmission(k, map[string]TenantSpec{
		"t": {Rate: 100, Burst: 1, MaxQueue: 2},
	})
	a.SetEnabled(true)
	var admitted, throttled int
	for i := 0; i < 8; i++ {
		k.Go("client", func(p *sim.Proc) {
			err := a.Admit(p, "t", 1)
			switch {
			case err == nil:
				admitted++
			case errors.Is(err, ErrThrottled):
				throttled++
			default:
				t.Errorf("unexpected error: %v", err)
			}
		})
	}
	k.Run()
	// At t=0: burst admits 2 instantly, MaxQueue holds 2 waiters, the
	// remaining 4 shed.
	if admitted != 4 || throttled != 4 {
		t.Errorf("admitted %d throttled %d, want 4/4", admitted, throttled)
	}
	if got := a.Throttled("t"); got != 4 {
		t.Errorf("Throttled(t) = %d, want 4", got)
	}
	if got := a.Throttled("nosuch"); got != 0 {
		t.Errorf("Throttled(nosuch) = %d, want 0", got)
	}
}

// TestBucketPassThrough: disabled stage, unknown tenants and unlimited
// (Rate 0) tenants all admit instantly with no accounting.
func TestBucketPassThrough(t *testing.T) {
	k := sim.NewKernel(1)
	a := NewAdmission(k, map[string]TenantSpec{
		"limited":   {Rate: 1, Burst: 1, MaxQueue: 0},
		"unlimited": {Rate: 0},
	})
	k.Go("client", func(p *sim.Proc) {
		// Disabled: even the limited tenant sails through at any rate.
		for i := 0; i < 5; i++ {
			if err := a.Admit(p, "limited", 1000); err != nil {
				t.Errorf("disabled admit: %v", err)
			}
		}
		a.SetEnabled(true)
		for i := 0; i < 5; i++ {
			if err := a.Admit(p, "unlimited", 1000); err != nil {
				t.Errorf("unlimited admit: %v", err)
			}
			if err := a.Admit(p, "stranger", 1000); err != nil {
				t.Errorf("unknown-tenant admit: %v", err)
			}
		}
		if p.Now() != 0 {
			t.Errorf("pass-through admits consumed virtual time: now %v", p.Now())
		}
	})
	k.Run()
	for _, st := range a.Stats() {
		if st.Tenant == "limited" && st.Admitted != 0 {
			t.Errorf("disabled admits were counted: %+v", st)
		}
	}
}

// TestBucketUnsetMaxQueueQueues is the MaxQueue-default regression: a spec
// that only sets Rate/Burst must pace over-rate ops (DefaultMaxQueue
// waiters), not shed every one of them the way the old zero-means-no-wait
// reading did.
func TestBucketUnsetMaxQueueQueues(t *testing.T) {
	k := sim.NewKernel(1)
	a := NewAdmission(k, map[string]TenantSpec{
		"t": {Rate: 1000, Burst: 1}, // MaxQueue deliberately unset
	})
	a.SetEnabled(true)
	var end sim.Time
	k.Go("client", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			if err := a.Admit(p, "t", 1); err != nil {
				t.Errorf("op %d: %v (unset MaxQueue must queue, not shed)", i, err)
			}
		}
		end = p.Now()
	})
	k.Run()
	if want := sim.Time(0).Add(8 * sim.Millisecond); end != want {
		t.Errorf("10 ops finished at %v, want %v (paced to rate)", end, want)
	}
	st := a.Stats()
	if len(st) != 1 || st[0].Admitted != 10 || st[0].Delayed != 8 || st[0].Throttled != 0 {
		t.Errorf("stats = %+v, want admitted 10 delayed 8 throttled 0", st)
	}
	if st[0].MaxQueue != DefaultMaxQueue {
		t.Errorf("effective MaxQueue = %d, want DefaultMaxQueue %d", st[0].MaxQueue, DefaultMaxQueue)
	}
}

// TestBucketUnsetMaxQueueStillBounded: the default is a bound, not
// unlimited — concurrent arrivals beyond burst+DefaultMaxQueue still shed.
func TestBucketUnsetMaxQueueStillBounded(t *testing.T) {
	k := sim.NewKernel(1)
	a := NewAdmission(k, map[string]TenantSpec{
		"t": {Rate: 100, Burst: 1},
	})
	a.SetEnabled(true)
	var admitted, throttled int
	for i := 0; i < DefaultMaxQueue+6; i++ {
		k.Go("client", func(p *sim.Proc) {
			err := a.Admit(p, "t", 1)
			switch {
			case err == nil:
				admitted++
			case errors.Is(err, ErrThrottled):
				throttled++
			default:
				t.Errorf("unexpected error: %v", err)
			}
		})
	}
	k.Run()
	// Burst admits 2 instantly, DefaultMaxQueue waiters queue, the rest shed.
	if admitted != DefaultMaxQueue+2 || throttled != 4 {
		t.Errorf("admitted %d throttled %d, want %d/4", admitted, throttled, DefaultMaxQueue+2)
	}
}

// TestBucketNegativeMaxQueueShedsImmediately: a negative MaxQueue is the
// explicit opt-in to the old no-wait behaviour.
func TestBucketNegativeMaxQueueShedsImmediately(t *testing.T) {
	k := sim.NewKernel(1)
	a := NewAdmission(k, map[string]TenantSpec{
		"t": {Rate: 100, Burst: 1, MaxQueue: -1},
	})
	a.SetEnabled(true)
	k.Go("client", func(p *sim.Proc) {
		var admitted, throttled int
		for i := 0; i < 5; i++ {
			err := a.Admit(p, "t", 1)
			switch {
			case err == nil:
				admitted++
			case errors.Is(err, ErrThrottled):
				throttled++
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}
		if admitted != 2 || throttled != 3 {
			t.Errorf("admitted %d throttled %d, want 2/3", admitted, throttled)
		}
		if p.Now() != 0 {
			t.Errorf("no-wait sheds consumed virtual time: now %v", p.Now())
		}
	})
	k.Run()
}

// TestBucketDeterministic: same seed, same schedule, byte-identical
// counters — the admission stage adds no nondeterminism.
func TestBucketDeterministic(t *testing.T) {
	run := func() []TenantStats {
		k := sim.NewKernel(7)
		a := NewAdmission(k, map[string]TenantSpec{
			"a": {Rate: 500, Burst: 4, MaxQueue: 3},
			"b": {Rate: 2000, Burst: 2, MaxQueue: 1},
		})
		a.SetEnabled(true)
		for i := 0; i < 24; i++ {
			tenant := "a"
			if i%3 == 0 {
				tenant = "b"
			}
			delay := sim.Duration(i%5) * 300 * sim.Microsecond
			k.Go("client", func(p *sim.Proc) {
				p.Sleep(delay)
				_ = a.Admit(p, tenant, 1+i%2)
			})
		}
		k.Run()
		return a.Stats()
	}
	x, y := run(), run()
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("stats diverged across same-seed runs:\n%+v\n%+v", x[i], y[i])
		}
	}
}

// Throttled returns tenant's shed count (0 for unknown tenants).
func (a *Admission) Throttled(tenant string) int64 {
	if b, ok := a.buckets[tenant]; ok {
		return b.throttled
	}
	return 0
}
