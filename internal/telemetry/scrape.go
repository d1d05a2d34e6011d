package telemetry

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// DefaultScrapeCap bounds the number of retained scrapes per scraper; older
// scrapes fall out of the ring. Watchdogs keep working across wraps because
// the previous full snapshot is held separately.
const DefaultScrapeCap = 1 << 10

// Scraper is a simulated process that snapshots a Registry every Interval of
// virtual time into a ring of time series, evaluates watchdogs over
// consecutive snapshots, and exports the retained window as a JSONL
// timeline. Scrapes happen in zero virtual time and draw no randomness, so
// a scraping run is byte-identical to the same seed without one.
type Scraper struct {
	k        *sim.Kernel
	reg      *Registry
	interval sim.Duration
	cap      int

	// Tracer, when non-nil, receives every watchdog event as an instant
	// span (phase trace.Watchdog), interleaving alarms with the per-op
	// spans they explain.
	Tracer *trace.Tracer

	watchdogs []Watchdog

	// Frozen at the first scrape so ring rows stay aligned; register every
	// instrument before starting the scraper.
	names []string

	times   []sim.Time  // ring, capacity cap
	rows    [][]float64 // ring, aligned with times
	head    int         // index of the oldest retained scrape
	n       int         // retained count
	prev    []float64   // last full snapshot (survives ring wrap)
	prevT   sim.Time
	scrapes int64
	events  []Event
	stopped bool
	started bool
}

// NewScraper returns a scraper over reg ticking every interval.
func NewScraper(k *sim.Kernel, reg *Registry, interval sim.Duration) *Scraper {
	if interval <= 0 {
		panic("telemetry: scrape interval must be positive")
	}
	return &Scraper{k: k, reg: reg, interval: interval, cap: DefaultScrapeCap}
}

// SetCap resizes the retained-scrape ring (existing scrapes are dropped).
func (s *Scraper) SetCap(n int) {
	if n <= 0 {
		panic("telemetry: scrape cap must be positive")
	}
	s.cap = n
	s.times, s.rows, s.head, s.n = nil, nil, 0, 0
}

// AddWatchdog attaches w; it is evaluated on every scrape, in attach order.
func (s *Scraper) AddWatchdog(w Watchdog) { s.watchdogs = append(s.watchdogs, w) }

// Interval returns the scrape period.
func (s *Scraper) Interval() sim.Duration { return s.interval }

// Registry returns the scraped registry.
func (s *Scraper) Registry() *Registry { return s.reg }

// Start schedules the periodic scrape (first tick one interval from now)
// and returns a stop function. Stopping lets the kernel's event queue
// drain; a stopped scraper keeps its retained window and can be restarted.
func (s *Scraper) Start() (stop func()) {
	if s.started {
		panic("telemetry: scraper already started")
	}
	s.started = true
	s.stopped = false
	var tick func()
	tick = func() {
		if s.stopped {
			return
		}
		s.ScrapeNow()
		s.k.After(s.interval, tick)
	}
	s.k.After(s.interval, tick)
	return func() {
		s.stopped = true
		s.started = false
	}
}

// ScrapeNow takes one snapshot immediately (also usable without Start for
// manually paced scraping). It consumes no virtual time.
func (s *Scraper) ScrapeNow() {
	if s.names == nil {
		s.names, _ = s.reg.Sample()
	}
	now := s.k.Now()
	cur := make([]float64, len(s.names))
	for i, n := range s.names {
		cur[i] = s.reg.samplers[n]()
	}

	// Ring push.
	if s.times == nil {
		s.times = make([]sim.Time, s.cap)
		s.rows = make([][]float64, s.cap)
	}
	pos := (s.head + s.n) % s.cap
	if s.n == s.cap {
		s.head = (s.head + 1) % s.cap
	} else {
		s.n++
	}
	s.times[pos] = now
	s.rows[pos] = cur

	v := &View{
		T:        now,
		Interval: now.Sub(s.prevT),
		First:    s.scrapes == 0,
		Reg:      s.reg,
		names:    s.names,
		prev:     s.prev,
		cur:      cur,
	}
	for _, w := range s.watchdogs {
		for _, ev := range w.Check(v) {
			s.emit(ev)
		}
	}

	s.prev = cur
	s.prevT = now
	s.scrapes++
	s.reg.ResetWatermarks()
}

func (s *Scraper) emit(ev Event) {
	ev.T = s.k.Now()
	s.events = append(s.events, ev)
	if s.Tracer.Enabled() {
		a := s.Tracer.StartTrace(ev.Rule, trace.Watchdog, "telemetry")
		a.Detail("%s: %s", ev.Severity, ev.Detail)
		a.End()
	}
}

// Scrapes reports how many scrapes have run (including ones that have
// fallen out of the ring).
func (s *Scraper) Scrapes() int64 { return s.scrapes }

// Events returns every watchdog event emitted so far, in order.
func (s *Scraper) Events() []Event { return append([]Event(nil), s.events...) }

// Window returns the virtual-time span covered by the retained scrapes.
func (s *Scraper) Window() sim.Duration {
	if s.n < 2 {
		return 0
	}
	return s.times[(s.head+s.n-1)%s.cap].Sub(s.times[s.head])
}

func (s *Scraper) indexOf(name string) int {
	for i, n := range s.names {
		if n == name {
			return i
		}
	}
	return -1
}

// Series returns name's raw values over the retained window, oldest first
// (nil if the metric is unknown or nothing was scraped).
func (s *Scraper) Series(name string) []float64 {
	idx := s.indexOf(name)
	if idx < 0 {
		return nil
	}
	out := make([]float64, s.n)
	for i := 0; i < s.n; i++ {
		out[i] = s.rows[(s.head+i)%s.cap][idx]
	}
	return out
}

// DeltaSeries returns name's per-interval increments over the retained
// window (one shorter than Series) — the natural view of a cumulative
// counter.
func (s *Scraper) DeltaSeries(name string) []float64 {
	raw := s.Series(name)
	if len(raw) < 2 {
		return nil
	}
	out := make([]float64, len(raw)-1)
	for i := range out {
		out[i] = raw[i+1] - raw[i]
	}
	return out
}

// WindowDelta returns last-minus-first of name over the retained window.
func (s *Scraper) WindowDelta(name string) float64 {
	raw := s.Series(name)
	if len(raw) < 2 {
		return 0
	}
	return raw[len(raw)-1] - raw[0]
}

// timelineLine is one JSONL timeline record. Field order (and json.Marshal's
// sorted map keys) makes the export byte-stable for a given scrape history.
type timelineLine struct {
	TNs     int64              `json:"t_ns"`
	Metrics map[string]float64 `json:"metrics"`
}

// WriteJSONL exports the retained scrapes as a JSONL timeline, one line per
// scrape with every metric's value at that instant. Same-seed runs produce
// byte-identical output.
func (s *Scraper) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for i := 0; i < s.n; i++ {
		pos := (s.head + i) % s.cap
		m := make(map[string]float64, len(s.names))
		for j, name := range s.names {
			m[name] = s.rows[pos][j]
		}
		if err := enc.Encode(timelineLine{TNs: int64(s.times[pos]), Metrics: m}); err != nil {
			return err
		}
	}
	return nil
}

// WriteEventsJSONL exports every watchdog event as JSONL, one per line.
func (s *Scraper) WriteEventsJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, ev := range s.events {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return nil
}

// SkewTable renders how the per-interval increments of the metrics matching
// pattern (e.g. "blade/*/ops") distributed over the retained window: total,
// share, and a sparkline per series, with the CV / max-mean skew statistics
// the hot-spot watchdog alarms on. This is the E-series "no hot spots"
// artifact.
func (s *Scraper) SkewTable(title, pattern string) *metrics.Table {
	tab := metrics.NewTable(title, "metric", "total", "share %", "over time")
	var names []string
	for _, n := range s.names {
		if matchPattern(pattern, n) {
			names = append(names, n)
		}
	}
	totals := make([]float64, len(names))
	var sum float64
	for i, n := range names {
		totals[i] = s.WindowDelta(n)
		sum += totals[i]
	}
	for i, n := range names {
		share := 0.0
		if sum > 0 {
			share = 100 * totals[i] / sum
		}
		tab.AddRow(n, int64(totals[i]), share, metrics.Sparkline(s.DeltaSeries(n)))
	}
	addSkewNote(tab, totals)
	return tab
}

// SkewTable renders the distribution of the current values of the metrics
// matching pattern — the scraper-free variant for end-of-run totals.
func SkewTable(reg *Registry, title, pattern string) *metrics.Table {
	tab := metrics.NewTable(title, "metric", "value", "share %")
	names := reg.Match(pattern)
	vals := make([]float64, len(names))
	var sum float64
	for i, n := range names {
		vals[i], _ = reg.Value(n)
		sum += vals[i]
	}
	for i, n := range names {
		share := 0.0
		if sum > 0 {
			share = 100 * vals[i] / sum
		}
		tab.AddRow(n, int64(vals[i]), share)
	}
	addSkewNote(tab, vals)
	return tab
}

func addSkewNote(tab *metrics.Table, vals []float64) {
	st := metrics.Summarize(vals)
	ratio := 0.0
	if st.Mean > 0 {
		ratio = st.Max / st.Mean
	}
	tab.AddNote("skew: CV %.2f, max/mean %.2f (0 and 1 = perfectly balanced)", st.CV(), ratio)
}

// Report summarizes a scraping run: coverage plus every watchdog event.
type Report struct {
	Scrapes  int64
	Interval sim.Duration
	Window   sim.Duration
	Events   []Event
}

// Report builds the run summary.
func (s *Scraper) Report() *Report {
	return &Report{Scrapes: s.scrapes, Interval: s.interval, Window: s.Window(), Events: s.Events()}
}

// String renders the report for humans: one header line, then one line per
// event (or a clean bill of health).
func (r *Report) String() string {
	out := fmt.Sprintf("telemetry: %d scrapes every %v covering %v; %d watchdog events",
		r.Scrapes, r.Interval, r.Window, len(r.Events))
	if len(r.Events) == 0 {
		return out + " (all watchdogs quiet)"
	}
	for _, ev := range r.Events {
		out += "\n  " + ev.String()
	}
	return out
}
