// Package telemetry turns the simulator's loose per-package statistics into
// one first-class observability surface: a hierarchical named registry every
// instrument publishes into (blade/3/cache/hits, disk/12/queue_depth,
// net/link/blade0-blade1/bytes), a virtual-time scraper that snapshots the
// registry into ring-buffered time series, and watchdogs (hot-spot, SLO,
// stall) that evaluate rules over consecutive scrapes — directly
// instrumenting the paper's aggregate claims (§2.1 linear scaling, §2.2 no
// per-blade hot spots, §2.4 services that don't impede foreground I/O).
//
// Everything here is a pure read of the simulation: samplers take zero
// virtual time and draw no randomness, so scraping is deterministic
// (same-seed runs export byte-identical timelines) and non-perturbing
// (enabling the scraper moves no simulated events) — the same contract the
// tracer keeps.
package telemetry

import (
	"fmt"
	"io"
	"path"
	"sort"
	"strconv"
	"strings"

	"repro/internal/metrics"
)

// Registry is a hierarchical named-metric registry. Instruments register
// under '/'-separated paths; names are unique and every read-out order is
// sorted naturally (blade/10 after blade/9), so any export built from a
// Registry is deterministic by construction.
//
// Samplers must be pure reads of simulation state: no virtual time, no
// randomness, no mutation.
type Registry struct {
	samplers map[string]func() float64
	hists    map[string]*metrics.Histogram
	names    []string
	sorted   bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		samplers: make(map[string]func() float64),
		hists:    make(map[string]*metrics.Histogram),
	}
}

// Func registers fn as the sampler for metric name. Registering a duplicate
// name panics: a collision silently shadowing a metric would corrupt every
// consumer, and registration happens once at construction time.
func (r *Registry) Func(name string, fn func() float64) {
	if name == "" || fn == nil {
		panic("telemetry: empty metric name or nil sampler")
	}
	if _, dup := r.samplers[name]; dup {
		panic(fmt.Sprintf("telemetry: duplicate metric %q", name))
	}
	r.samplers[name] = fn
	r.names = append(r.names, name)
	r.sorted = false
}

// Int registers an int64-valued sampler.
func (r *Registry) Int(name string, fn func() int64) {
	r.Func(name, func() float64 { return float64(fn()) })
}

// Histogram registers a metrics.Histogram as derived series (name/count,
// name/mean_ms, name/p50_ms, name/p99_ms) and keeps the histogram itself
// retrievable via HistogramFor, so watchdogs can compute windowed quantiles.
func (r *Registry) Histogram(name string, h *metrics.Histogram) {
	if _, dup := r.hists[name]; dup {
		panic(fmt.Sprintf("telemetry: duplicate histogram %q", name))
	}
	r.hists[name] = h
	r.Int(name+"/count", h.Count)
	r.Func(name+"/mean_ms", func() float64 { return h.Mean().Millis() })
	r.Func(name+"/p50_ms", func() float64 { return h.P50().Millis() })
	r.Func(name+"/p99_ms", func() float64 { return h.P99().Millis() })
}

// HistogramFor returns the histogram registered under name, or nil.
func (r *Registry) HistogramFor(name string) *metrics.Histogram { return r.hists[name] }

// ExemplarFor returns the exemplar nearest the q-quantile of the histogram
// registered under name: the trace ID of the op behind that latency. ok is
// false when the histogram is unknown or carries no traced samples.
// Exemplars are surfaced here as a lookup, not as derived series — traces
// are identities, not measurements to scrape.
func (r *Registry) ExemplarFor(name string, q float64) (metrics.Exemplar, bool) {
	h := r.hists[name]
	if h == nil {
		return metrics.Exemplar{}, false
	}
	return h.ExemplarNear(q)
}

// Len reports the number of registered series.
func (r *Registry) Len() int { return len(r.names) }

func (r *Registry) sortNames() {
	if !r.sorted {
		sort.Slice(r.names, func(i, j int) bool { return naturalLess(r.names[i], r.names[j]) })
		r.sorted = true
	}
}

// Names returns every registered metric name in natural sorted order.
func (r *Registry) Names() []string {
	r.sortNames()
	return append([]string(nil), r.names...)
}

// Value samples one metric by name.
func (r *Registry) Value(name string) (float64, bool) {
	fn, ok := r.samplers[name]
	if !ok {
		return 0, false
	}
	return fn(), true
}

// Sample reads every metric once, returning names (natural order) and the
// values aligned with them.
func (r *Registry) Sample() (names []string, values []float64) {
	names = r.Names()
	values = make([]float64, len(names))
	for i, n := range names {
		values[i] = r.samplers[n]()
	}
	return names, values
}

// Match returns the registered names matching pattern, in natural order.
// A pattern is a path.Match pattern: "*" matches any run of characters
// within one path segment, so "blade/*/ops" matches blade/0/ops but not
// blade/0/cache/hits, and "net/link/farm-*/bytes" matches every link out
// of the farm.
func (r *Registry) Match(pattern string) []string {
	r.sortNames()
	var out []string
	for _, n := range r.names {
		if matchPattern(pattern, n) {
			out = append(out, n)
		}
	}
	return out
}

func matchPattern(pattern, name string) bool {
	ok, _ := path.Match(pattern, name)
	return ok
}

// naturalLess orders '/'-separated paths segment-wise, comparing all-digit
// segments numerically so blade/10 sorts after blade/9.
func naturalLess(a, b string) bool {
	as, bs := strings.Split(a, "/"), strings.Split(b, "/")
	for i := 0; i < len(as) && i < len(bs); i++ {
		x, y := as[i], bs[i]
		if x == y {
			continue
		}
		xn, xe := strconv.ParseInt(x, 10, 64)
		yn, ye := strconv.ParseInt(y, 10, 64)
		if xe == nil && ye == nil {
			return xn < yn
		}
		return x < y
	}
	return len(as) < len(bs)
}

// WriteProm writes the registry's current values as Prometheus text
// exposition ('/' becomes '_' in names; one "name value" line per metric,
// sorted, so the output is byte-stable for a given state).
func (r *Registry) WriteProm(w io.Writer) error {
	names, values := r.Sample()
	for i, n := range names {
		if _, err := fmt.Fprintf(w, "%s %s\n", promName(n), formatValue(values[i])); err != nil {
			return err
		}
	}
	return nil
}

// promName sanitizes a '/'-separated metric path into a Prometheus-legal
// metric name.
func promName(name string) string {
	out := []byte(name)
	for i, c := range out {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				out[i] = '_'
			}
		default:
			out[i] = '_'
		}
	}
	return string(out)
}

// formatValue renders a float64 the way encoding/json does (shortest
// round-trip form), so Prom and JSONL exports agree byte-for-byte across
// runs.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Scope is a Registry view under a fixed name prefix, so a package can
// register its instruments without knowing where it sits in the hierarchy
// (the cluster hands its blade-3 engine the "blade/3" scope).
type Scope struct {
	r      *Registry
	prefix string
}

// Sub returns a scope rooted at prefix.
func (r *Registry) Sub(prefix string) Scope { return Scope{r: r, prefix: prefix} }

// Sub narrows the scope by another path component.
func (s Scope) Sub(prefix string) Scope {
	return Scope{r: s.r, prefix: s.prefix + "/" + prefix}
}

func (s Scope) name(n string) string {
	if s.prefix == "" {
		return n
	}
	return s.prefix + "/" + n
}

// Func, Int and Histogram mirror the Registry methods under the scope's
// prefix.
func (s Scope) Func(n string, fn func() float64)         { s.r.Func(s.name(n), fn) }
func (s Scope) Int(n string, fn func() int64)            { s.r.Int(s.name(n), fn) }
func (s Scope) Histogram(n string, h *metrics.Histogram) { s.r.Histogram(s.name(n), h) }
