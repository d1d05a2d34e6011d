package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// metricDef names one metric. BENCHMARK.json lists the same names, units
// and directions; the smoke test holds the two together. bound is the share
// of the parent's median by which an end-to-end metric may worsen; each is
// about three times the widest spread (quartile distance over median) any
// workload showed over ten seeds, capped at the contract's 0.25.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd is what a user of the system sees, per workload. sim_* are on
// the virtual clock and repeat exactly for one seed; host_* and setup_s are
// measurements of this sandbox. failed_frac, the eleventh metric of the
// issue, is carried by the result line's failed/attempted keys: it is 0 on
// a correct tree, and the contract's relative bounds cannot hold a zero.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"sim_ops_per_s", "1/s", "higher", 0.10},
	{"sim_mb_per_s", "MB/s", "higher", 0.10},
	{"sim_p50_ms", "ms", "lower", 0.08},
	{"sim_p99_ms", "ms", "lower", 0.25},
	{"host_us_per_op", "us", "lower", 0.25},
	{"host_allocs_per_op", "count", "lower", 0.15},
	{"host_alloc_kb_per_op", "KiB", "lower", 0.10},
	{"host_live_heap_mb", "MiB", "lower", 0.10},
	{"host_peak_rss_mb", "MiB", "lower", 0.20},
}

// Per-layer metrics are named <module>.<metric> and come from three sources,
// all outside the program: layer drivers, boundary counts and a traced run.
// perLayer is all of them, in the order they print.
var perLayer = append(append(append([]metricDef(nil), layerDefs...), boundaryDefs...), tracedDefs...)

// layerDefs are the layer drivers: each layer's ceiling alone, on the host
// clock and in virtual latency, the same under every workload.
var layerDefs = []metricDef{
	{name: "sim.event_ns", unit: "ns", better: "lower"},
	{name: "sim.event_allocs", unit: "count", better: "lower"},
	{name: "sim.switch_ns", unit: "ns", better: "lower"},
	{name: "sim.switch_allocs", unit: "count", better: "lower"},
	{name: "sim.spawn_ns", unit: "ns", better: "lower"},
	{name: "sim.mailbox_rtt_ns", unit: "ns", better: "lower"},
	{name: "simnet.rpc_host_ns", unit: "ns", better: "lower"},
	{name: "simnet.rpc_allocs", unit: "count", better: "lower"},
	{name: "simnet.rpc_sim_us", unit: "us", better: "lower"},
	{name: "simnet.rpc_batched_host_ns", unit: "ns", better: "lower"},
	{name: "cache.get_ns", unit: "ns", better: "lower"},
	{name: "cache.put_evict_ns", unit: "ns", better: "lower"},
	{name: "coherence.local_hit_host_ns", unit: "ns", better: "lower"},
	{name: "coherence.local_hit_allocs", unit: "count", better: "lower"},
	{name: "coherence.read_miss_sim_ms", unit: "ms", better: "lower"},
	{name: "coherence.peer_fetch_host_ns", unit: "ns", better: "lower"},
	{name: "coherence.peer_fetch_sim_us", unit: "us", better: "lower"},
	{name: "coherence.write_owned_host_ns", unit: "ns", better: "lower"},
	{name: "coherence.xfer_dirty_host_ns", unit: "ns", better: "lower"},
	{name: "coherence.xfer_dirty_sim_ms", unit: "ms", better: "lower"},
	{name: "replication.push_host_ns", unit: "ns", better: "lower"},
	{name: "replication.push_sim_us", unit: "us", better: "lower"},
	{name: "disk.io_host_ns", unit: "ns", better: "lower"},
	{name: "disk.rand_read_sim_ms", unit: "ms", better: "lower"},
	{name: "disk.seq_read_sim_mb_s", unit: "MB/s", better: "higher"},
	{name: "raid.rmw_host_ns", unit: "ns", better: "lower"},
	{name: "raid.rmw_sim_ms", unit: "ms", better: "lower"},
	{name: "raid.full_stripe_host_ns", unit: "ns", better: "lower"},
	{name: "raid.full_stripe_sim_ms", unit: "ms", better: "lower"},
	{name: "raid.xor_host_mb_s", unit: "MB/s", better: "higher"},
	{name: "virt.mapped_rw_host_ns", unit: "ns", better: "lower"},
	{name: "virt.first_write_host_ns", unit: "ns", better: "lower"},
	{name: "controller.read4_hit_host_ns", unit: "ns", better: "lower"},
	{name: "controller.read64_hit_host_ns", unit: "ns", better: "lower"},
	{name: "pfs.lookup_host_ns", unit: "ns", better: "lower"},
	{name: "pfs.read_256k_host_ns", unit: "ns", better: "lower"},
	{name: "pfs.write_256k_host_ns", unit: "ns", better: "lower"},
	{name: "gateway.put_4k_host_ns", unit: "ns", better: "lower"},
	{name: "gateway.get_4k_host_ns", unit: "ns", better: "lower"},
	{name: "gateway.op_4k_sim_us", unit: "us", better: "lower"},
	{name: "gateway.auth_host_ns", unit: "ns", better: "lower"},
	{name: "gateway.plan_layout_host_ns", unit: "ns", better: "lower"},
	{name: "security.token_check_host_ns", unit: "ns", better: "lower"},
	{name: "qos.wfq_host_ns", unit: "ns", better: "lower"},
	{name: "qos.admit_host_ns", unit: "ns", better: "lower"},
	{name: "trace.span_host_ns", unit: "ns", better: "lower"},
	{name: "critpath.analyze_host_ns_per_span", unit: "ns", better: "lower"},
	{name: "metrics.observe_host_ns", unit: "ns", better: "lower"},
	{name: "telemetry.scrape_host_us", unit: "us", better: "lower"},
}

// boundaryDefs are the boundary counts: registry and public Stats deltas
// over one workload's measure phase, most of them per benchmark op.
var boundaryDefs = []metricDef{
	{name: "cache.hit_ratio", unit: "ratio", better: "higher"},
	{name: "cache.evictions_per_op", unit: "count/op", better: "lower"},
	{name: "coherence.local_hit_ratio", unit: "ratio", better: "higher"},
	{name: "coherence.dir_requests_per_op", unit: "count/op", better: "lower"},
	{name: "coherence.invalidations_per_op", unit: "count/op", better: "lower"},
	{name: "coherence.peer_fetches_per_op", unit: "count/op", better: "lower"},
	{name: "coherence.disk_reads_per_op", unit: "count/op", better: "lower"},
	{name: "coherence.writebacks_per_op", unit: "count/op", better: "lower"},
	{name: "coherence.write_retries_per_op", unit: "count/op", better: "lower"},
	{name: "coherence.degraded_ops", unit: "count", better: "lower"},
	{name: "simnet.rpc_calls_per_op", unit: "count/op", better: "lower"},
	{name: "simnet.bytes_per_op", unit: "bytes/op", better: "lower"},
	{name: "simnet.retries", unit: "count", better: "lower"},
	{name: "simnet.timeouts", unit: "count", better: "lower"},
	{name: "simnet.gave_up", unit: "count", better: "lower"},
	{name: "replication.puts_per_op", unit: "count/op", better: "lower"},
	{name: "controller.blade_ops_cv", unit: "ratio", better: "lower"},
	{name: "controller.ops_per_op", unit: "count/op", better: "lower"},
	{name: "disk.ios_per_op", unit: "count/op", better: "lower"},
	{name: "disk.busy_mean_frac", unit: "ratio", better: "lower"},
	{name: "disk.busy_max_frac", unit: "ratio", better: "lower"},
	{name: "disk.queue_max", unit: "count", better: "lower"},
	{name: "raid.disk_bytes_per_user_byte", unit: "ratio", better: "lower"},
	{name: "pfs.bytes_read", unit: "bytes", better: "lower"},
	{name: "pfs.bytes_written", unit: "bytes", better: "lower"},
	{name: "gateway.iam_p99_ms", unit: "ms", better: "lower"},
	{name: "gateway.index_ops_per_op", unit: "count/op", better: "lower"},
	{name: "gateway.index_busy_max_frac", unit: "ratio", better: "lower"},
	{name: "gateway.index_busy_cv", unit: "ratio", better: "lower"},
}

// tracedDefs are a traced run's virtual-clock budget: critical-path shares
// of controller-op wall time over all ops and over the p99+ cohort, and the
// self time of the tiers above the controller.
var tracedDefs = []metricDef{
	{name: "controller.crit_share_pct", unit: "%", better: "lower"},
	{name: "qos.crit_share_pct", unit: "%", better: "lower"},
	{name: "coherence.crit_share_pct", unit: "%", better: "lower"},
	{name: "simnet.crit_share_pct", unit: "%", better: "lower"},
	{name: "disk.crit_share_pct", unit: "%", better: "lower"},
	{name: "replication.crit_share_pct", unit: "%", better: "lower"},
	{name: "controller.tail_share_pct", unit: "%", better: "lower"},
	{name: "qos.tail_share_pct", unit: "%", better: "lower"},
	{name: "coherence.tail_share_pct", unit: "%", better: "lower"},
	{name: "simnet.tail_share_pct", unit: "%", better: "lower"},
	{name: "disk.tail_share_pct", unit: "%", better: "lower"},
	{name: "replication.tail_share_pct", unit: "%", better: "lower"},
	{name: "above_controller.self_share_pct", unit: "%", better: "lower"},
	{name: "trace.dropped_spans", unit: "count", better: "lower"},
	{name: "trace.host_overhead_pct", unit: "%", better: "lower"},
}

// values is a set of measured metrics by name.
type values map[string]float64

func (v values) merge(o values) {
	for k, x := range o {
		v[k] = x
	}
}

// printMetrics prints every metric of defs as "name value unit", in table
// order. A metric the run did not produce, or produced without naming it
// here, is an error: the set of names is the benchmark's contract.
func printMetrics(w io.Writer, defs []metricDef, v values) error {
	named := make(map[string]bool, len(defs))
	for _, d := range defs {
		named[d.name] = true
		x, ok := v[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		fmt.Fprintf(w, "%-36s %s %s\n", d.name, strconv.FormatFloat(x, 'g', -1, 64), d.unit)
	}
	for name := range v {
		if !named[name] {
			return fmt.Errorf("metric %s is measured but not named in the benchmark", name)
		}
	}
	return nil
}

// resultLine is the last line of standard output, as the driver reads it.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printResult(w io.Writer, correct bool, attempted, failed int, defs []metricDef, v values) error {
	r := resultLine{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		r.Metrics[d.name] = metricValue{v[d.name], d.unit}
	}
	return json.NewEncoder(w).Encode(r)
}
