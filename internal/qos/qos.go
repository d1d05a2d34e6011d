// Package qos arbitrates the cluster's shared resources between tenants
// and between foreground and background work — the paper's §2.4 promise
// that storage services "do not impede foreground I/O" and §4's per-file
// policy classes, enforced rather than accidental.
//
// Three mechanisms compose:
//
//   - Admission: per-tenant token buckets (GCRA on virtual time) at the
//     controller front door. A tenant over its rate waits in a bounded
//     queue; when the queue is full the op sheds with ErrThrottled.
//   - FairQueue: weighted-fair queueing with priority lanes replacing the
//     FIFO disk gate and the coherence CPU semaphore. Lanes 0..3 are
//     foreground (from pfs.Policy.CachePriority); lane 4 is background
//     (rebuild, scrub, replication destage, migration).
//   - Governor: a telemetry watchdog whose PI loops set the background
//     lane's weight continuously from the windowed foreground p99 against
//     each SLO and from disk queue depth: squeezed under pressure,
//     released back toward its ceiling as the pressure subsides.
//
// Every op carries a Ctx (tenant + lane) on its sim.Proc; children inherit
// it and simnet carries it across RPC boundaries, so remote coherence CPU
// time and disk service land on the originating tenant's lane.
package qos

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Lane layout: four foreground lanes mapped 1:1 from the documented
// pfs.Policy.CachePriority range 0..3, plus one background lane for
// storage services.
const (
	NumForeground  = 4
	LaneBackground = NumForeground
	NumLanes       = NumForeground + 1
)

// ErrThrottled is returned by Admit when a tenant is over its token-bucket
// rate and its bounded wait queue is already full. It is a by-design
// shed, not a failure: callers surface it to the client without counting
// it against cluster error SLOs.
var ErrThrottled = errors.New("qos: tenant throttled (admission queue full)")

// Ctx tags an op with its tenant and scheduling lane. The zero Ctx is a
// valid default: unknown tenant, foreground lane 0.
type Ctx struct {
	Tenant string
	Lane   int
}

// ClampLane maps any int onto a valid lane index: negatives to lane 0,
// overlarge values to the highest foreground lane (background must be
// requested explicitly via LaneBackground itself).
func ClampLane(lane int) int {
	if lane == LaneBackground {
		return lane
	}
	if lane < 0 {
		return 0
	}
	if lane >= NumForeground {
		return NumForeground - 1
	}
	return lane
}

// FromProc returns the QoS context carried by p (zero Ctx when untagged).
func FromProc(p *sim.Proc) Ctx {
	if c, ok := p.QoSCtx().(Ctx); ok {
		return c
	}
	return Ctx{}
}

// SetCtx installs c as p's QoS context; children spawned from p inherit it.
func SetCtx(p *sim.Proc, c Ctx) {
	c.Lane = ClampLane(c.Lane)
	p.SetQoSCtx(c)
}

// LaneOf returns the (clamped) lane p's current context selects.
func LaneOf(p *sim.Proc) int { return ClampLane(FromProc(p).Lane) }

// TagBackground moves p (and everything it subsequently spawns) onto the
// background lane, preserving any tenant tag. Rebuild, scrub, migration
// and destage workers call this at spawn.
func TagBackground(p *sim.Proc) {
	c := FromProc(p)
	c.Lane = LaneBackground
	p.SetQoSCtx(c)
}

// TenantSpec is one tenant's admission contract.
type TenantSpec struct {
	// Rate is the sustained admission rate in cost units (blocks) per
	// second. 0 means unlimited (no bucket).
	Rate float64
	// Burst is the bucket depth in cost units: how far a tenant may run
	// ahead of its rate before ops start waiting.
	Burst float64
	// MaxQueue bounds how many ops may wait for tokens at once; arrivals
	// beyond it shed with ErrThrottled. 0 takes DefaultMaxQueue on
	// rate-limited specs (a spec that only sets Rate/Burst gets pacing,
	// not a shed cliff); negative means no waiting — immediate shed when
	// out of tokens.
	MaxQueue int
	// SLOP99 is the tenant's p99 latency objective. When set (and QoS
	// telemetry is on), the governor runs a PI loop on this tenant's
	// windowed op p99 against it, squeezing background work as needed.
	// 0 means no per-tenant objective (the cluster-wide P99Target still
	// applies).
	SLOP99 sim.Duration
}

// Config configures the whole subsystem. The zero value is usable: no
// tenant buckets, default governor bounds. Lanes always start at
// DefaultWeights.
type Config struct {
	// Tenants maps tenant name to its admission contract.
	Tenants map[string]TenantSpec
	// Governor tunes the feedback loop; see GovernorConfig.
	Governor GovernorConfig
}

// DefaultWeights returns the per-lane WFQ weights every manager starts
// with: foreground 1,2,4,8 for lanes 0..3, background 1 (the governor's
// to move).
func DefaultWeights() [NumLanes]float64 {
	return [NumLanes]float64{1, 2, 4, 8, 1}
}

// Manager bundles the subsystem for one cluster: the admission stage, every
// installed FairQueue, and the governor's current background share. It is
// the single switch yottactl's `qos on|off` flips.
type Manager struct {
	k        *sim.Kernel
	cfg      Config
	enabled  bool
	adm      *Admission
	queues   []*FairQueue
	weights  [NumLanes]float64
	bgWeight float64
	gov      *Governor

	// sloTenants are the tenants with a per-tenant SLOP99, sorted; each
	// gets its own op-latency histogram the governor's PI loop reads.
	sloTenants []string
	tenantHist map[string]*metrics.Histogram
}

// NewManager builds a manager (initially disabled) from cfg.
func NewManager(k *sim.Kernel, cfg Config) *Manager {
	w := DefaultWeights()
	m := &Manager{
		k:          k,
		cfg:        cfg,
		adm:        NewAdmission(k, cfg.Tenants),
		weights:    w,
		bgWeight:   w[LaneBackground],
		tenantHist: make(map[string]*metrics.Histogram),
	}
	for _, n := range sortedTenants(cfg.Tenants) {
		if cfg.Tenants[n].SLOP99 > 0 {
			m.sloTenants = append(m.sloTenants, n)
			m.tenantHist[n] = metrics.NewHistogram()
		}
	}
	return m
}

// ObserveOp records one completed foreground op's latency against the
// tenant's SLO histogram. Tenants without an SLOP99 (and the unknown
// tenant "") are no-ops — the cluster-wide histogram already covers them.
// The controller calls this wherever it observes cluster/op_latency.
func (m *Manager) ObserveOp(tenant string, d sim.Duration) {
	if h, ok := m.tenantHist[tenant]; ok {
		h.Observe(d)
	}
}

// TenantHistogram returns tenant's SLO op-latency histogram, or nil when
// the tenant has no SLOP99.
func (m *Manager) TenantHistogram(tenant string) *metrics.Histogram {
	return m.tenantHist[tenant]
}

// NewFairQueue creates a FairQueue with capacity slots, registers it with
// the manager (so enable/disable and governor decisions reach it), and
// returns it.
func (m *Manager) NewFairQueue(capacity int) *FairQueue {
	q := NewFairQueue(m.k, capacity, m.weights)
	q.SetEnabled(m.enabled)
	q.SetWeight(LaneBackground, m.bgWeight)
	m.queues = append(m.queues, q)
	return q
}

// SetEnabled flips the whole subsystem: admission buckets and every
// registered queue. Disabled, every queue grants in global arrival order,
// as the plain semaphores did, and Admit is a no-op. A disabled queue's
// event order equals the semaphore's only at capacity 1 (see FairQueue).
func (m *Manager) SetEnabled(on bool) {
	m.enabled = on
	m.adm.SetEnabled(on)
	for _, q := range m.queues {
		q.SetEnabled(on)
	}
}

// Enabled reports the switch state.
func (m *Manager) Enabled() bool { return m.enabled }

// Admission returns the admission stage.
func (m *Manager) Admission() *Admission { return m.adm }

// Admit charges cost units against tenant's bucket, waiting (in virtual
// time) or shedding with ErrThrottled per the tenant's spec. A no-op when
// the subsystem is disabled.
func (m *Manager) Admit(p *sim.Proc, tenant string, cost int) error {
	return m.adm.Admit(p, tenant, cost)
}

// SetBackgroundWeight sets the background lane's WFQ weight on every
// registered queue. The governor calls this; yottactl reports it.
func (m *Manager) SetBackgroundWeight(w float64) {
	if w <= 0 {
		w = minBackgroundWeight
	}
	m.bgWeight = w
	for _, q := range m.queues {
		q.SetWeight(LaneBackground, w)
	}
}

// BackgroundWeight returns the background lane's current weight.
func (m *Manager) BackgroundWeight() float64 { return m.bgWeight }

// Weights returns the per-lane weights (background reflects the
// governor's current setting).
func (m *Manager) Weights() [NumLanes]float64 {
	w := m.weights
	w[LaneBackground] = m.bgWeight
	return w
}

// Governor returns the attached governor, or nil when telemetry is off.
func (m *Manager) Governor() *Governor { return m.gov }

// AttachGovernor builds the feedback governor over this manager and
// remembers it for status reporting. The caller registers the returned
// watchdog with the telemetry scraper.
func (m *Manager) AttachGovernor(cfg GovernorConfig) *Governor {
	g := NewGovernor(cfg, m)
	m.gov = g
	return g
}

// RegisterTelemetry publishes the subsystem's counters under s
// (qos/enabled, qos/bg_weight_milli, qos/tenant/<name>/{admitted,
// throttled, delayed, waiting}, qos/governor/{narrows,widens,
// output_milli,error_milli}, and for every tenant with an SLOP99 the
// qos/tenant/<name>/op_latency histogram plus its governor loop's
// slo_{error,output}_milli gauges).
//
// The governor attaches after telemetry registration (it needs the
// scraper), so every governor-backed gauge is a nil-safe closure read at
// sample time.
func (m *Manager) RegisterTelemetry(s telemetry.Scope) {
	s.Int("enabled", func() int64 {
		if m.enabled {
			return 1
		}
		return 0
	})
	// Weights are floats; exporting milli-units keeps the registry integral
	// and the export byte-stable.
	s.Int("bg_weight_milli", func() int64 { return int64(m.bgWeight * 1000) })
	m.adm.registerTelemetry(s.Sub("tenant"))
	s.Int("governor/narrows", func() int64 {
		if m.gov == nil {
			return 0
		}
		return m.gov.Narrows
	})
	s.Int("governor/widens", func() int64 {
		if m.gov == nil {
			return 0
		}
		return m.gov.Widens
	})
	s.Int("governor/output_milli", func() int64 {
		if m.gov == nil {
			return 0
		}
		return int64(m.gov.Output() * 1000)
	})
	s.Int("governor/error_milli", func() int64 { return m.loopErrMilli("") })
	for _, n := range m.sloTenants {
		n := n
		ts := s.Sub("tenant").Sub(n)
		ts.Histogram("op_latency", m.tenantHist[n])
		ts.Int("slo_error_milli", func() int64 { return m.loopErrMilli(n) })
		ts.Int("slo_output_milli", func() int64 {
			if m.gov == nil {
				return 0
			}
			_, out, _ := m.gov.LoopState(n)
			return int64(out * 1000)
		})
	}
}

// loopErrMilli samples one governor loop's last normalized error in
// milli-units (0 when the governor is detached or has no such loop).
func (m *Manager) loopErrMilli(tenant string) int64 {
	if m.gov == nil {
		return 0
	}
	err, _, ok := m.gov.LoopState(tenant)
	if !ok {
		return 0
	}
	return int64(err * 1000)
}

// LaneTotals aggregates per-lane scheduling stats across every registered
// queue: dispatches and live depth sum; peak depth takes the max.
func (m *Manager) LaneTotals() [NumLanes]LaneStats {
	var out [NumLanes]LaneStats
	for _, q := range m.queues {
		st := q.Stats()
		for l := 0; l < NumLanes; l++ {
			out[l].Dispatched += st[l].Dispatched
			out[l].Depth += st[l].Depth
			if st[l].MaxDepth > out[l].MaxDepth {
				out[l].MaxDepth = st[l].MaxDepth
			}
		}
	}
	return out
}

// LaneName renders a lane index for reports ("fg0".."fg3", "bg").
func LaneName(lane int) string {
	if lane == LaneBackground {
		return "bg"
	}
	return fmt.Sprintf("fg%d", lane)
}

// Report renders a multi-line human-readable status: switch, weights,
// per-tenant bucket counters, governor state, per-queue lane occupancy.
func (m *Manager) Report() string {
	var b strings.Builder
	state := "off"
	if m.enabled {
		state = "on"
	}
	fmt.Fprintf(&b, "qos: %s\n", state)
	w := m.Weights()
	fmt.Fprintf(&b, "lane weights: fg %.3g/%.3g/%.3g/%.3g bg %.3g\n", w[0], w[1], w[2], w[3], w[4])
	if m.gov != nil {
		fmt.Fprintf(&b, "governor: target p99 %.3fms, bg share [%.3g..%.3g], %d narrows, %d widens\n",
			m.gov.cfg.P99Target.Millis(), minBackgroundWeight, m.gov.cfg.bgMax(), m.gov.Narrows, m.gov.Widens)
		fmt.Fprintf(&b, "governor output: u %.3f (bg weight %.3g)\n", m.gov.Output(), m.bgWeight)
		for _, lp := range m.gov.loops {
			name := lp.tenant
			if name == "" {
				name = "(cluster)"
			}
			fmt.Fprintf(&b, "governor loop %-10s target p99 %.3fms: err %+.3f integ %.3f out %.3f\n",
				name, lp.target.Millis(), lp.err, lp.integ, lp.out)
		}
	} else {
		fmt.Fprintf(&b, "governor: detached (telemetry off)\n")
	}
	stats := m.adm.Stats()
	if len(stats) == 0 {
		fmt.Fprintf(&b, "tenants: none configured (admission pass-through)\n")
	}
	for _, t := range stats {
		slo := ""
		if s, ok := m.cfg.Tenants[t.Tenant]; ok && s.SLOP99 > 0 {
			slo = fmt.Sprintf(" slo-p99 %.3fms", s.SLOP99.Millis())
		}
		fmt.Fprintf(&b, "tenant %-10s rate %.0f/s burst %.0f maxq %d%s: admitted %d delayed %d throttled %d wait %.1fms\n",
			t.Tenant, t.Rate, t.Burst, t.MaxQueue, slo, t.Admitted, t.Delayed, t.Throttled, t.WaitMs)
	}
	if n := len(m.queues); n > 0 {
		totals := m.LaneTotals()
		fmt.Fprintf(&b, "queues: %d installed\n", n)
		for l := 0; l < NumLanes; l++ {
			fmt.Fprintf(&b, "lane %-3s dispatched %-8d waiting %-4d peak-wait %d\n",
				LaneName(l), totals[l].Dispatched, totals[l].Depth, totals[l].MaxDepth)
		}
	}
	return b.String()
}

// sortedTenants returns cfg's tenant names sorted, for deterministic
// iteration everywhere.
func sortedTenants(specs map[string]TenantSpec) []string {
	names := make([]string, 0, len(specs))
	for n := range specs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
