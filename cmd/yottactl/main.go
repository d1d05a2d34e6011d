// Command yottactl is the administrator's view of the system (§7.3: "the
// distributed operation managed as a single site"). It builds an in-memory
// system from a scenario description, executes a script of admin commands,
// and prints the resulting state — volumes, tenants, blade health, pool
// occupancy — as one system image.
//
// Usage:
//
//	yottactl                    # run the built-in demo script
//	yottactl -script file       # run a script of commands
//	yottactl trace [flags]      # traced workload → Chrome trace_event (+ JSONL)
//	yottactl top [flags]        # per-blade dashboard, refreshed in virtual time
//	yottactl telemetry [flags]  # scraped workload → timeline, events, Prometheus
//
// The three subcommands drive one mixed read/write client population and
// share -seed, -blades, -clients and -ms; -h lists the rest. Same seed →
// byte-identical output.
//
// Script lines are commands, one per line ('#' starts a comment). The
// `help` command prints every one with its arguments; the table behind it
// is commands in commands.go. A line missing an argument, or with a bad
// one, prints its usage and the script goes on.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"maps"
	"os"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/gateway"
	"repro/internal/metrics"
	"repro/internal/qos"
	"repro/internal/sim"
	"repro/internal/workload"
)

const defaultScript = `
# --- default demo scenario: a lab pool administered as one system ---
status
mkvol projects 4096
mkthick scratch 2048
tenant fusion
export fusion-lun projects
grant fusion-lun fusion rw
mkdir /labs/fusion
trace on
put /labs/fusion/readme.txt shared storage for the whole lab
policy /labs/fusion/readme.txt prio=3 repl=3
get /labs/fusion/readme.txt
trace status
analyze
critpath
trace off
snapshot projects projects@t0
clone fs.default fs-mirror
rebalance
evacuate 3
faildisk 0 1
rebuild 0 1
failblade 2
status
revive 2
status
top
telemetry status
rebalance status
rebalance report
qos on
qos status
qos report
gateway mkbucket fusion results
gateway put fusion results run/001.txt first shot data
gateway ls fusion results run/
gateway status
gateway report
`

func main() {
	if len(os.Args) > 1 {
		sub, ok := map[string]func([]string){"trace": runTrace, "top": runTop, "telemetry": runTelemetry}[os.Args[1]]
		if ok {
			sub(os.Args[2:])
			return
		}
	}

	scriptPath := flag.String("script", "", "command script (default: built-in demo)")
	flag.Parse()

	script := defaultScript
	if *scriptPath != "" {
		data, err := os.ReadFile(*scriptPath)
		if err != nil {
			log.Fatal(err)
		}
		script = string(data)
	}
	s, err := newDemoSession(os.Stdout)
	if err != nil {
		log.Fatal(err)
	}
	defer s.sys.K.Close()
	if _, err := s.run(strings.Split(script, "\n")); err != nil {
		log.Fatal(err)
	}
}

// newDemoSession builds the system scripts run on and opens an echoing
// session on it. Demo-scale drives (256 MiB each) keep interactive
// rebuilds quick. Tracing is attached but off until a script says
// `trace on`; the telemetry scraper runs throughout so `top` and
// `telemetry` commands have a window to show.
func newDemoSession(out io.Writer) (*session, error) {
	sys, err := core.NewSystem(core.Options{
		DiskSpec:   disk.LabSpec(),
		Trace:      true,
		Telemetry:  100 * sim.Millisecond,
		SLOReadP99: 50 * sim.Millisecond,
		// QoS plumbing is installed but disabled until a script says
		// `qos on`. The demo tenant's bucket is sized small enough that a
		// busy script can see delays in `qos report`, and its SLOP99 gives
		// the PI governor a per-tenant loop to show in the report.
		QoS: &qos.Config{
			Tenants: map[string]qos.TenantSpec{
				"fusion": {Rate: 2000, Burst: 256, MaxQueue: 64, SLOP99: 50 * sim.Millisecond},
			},
		},
		// Object gateway: S3-style front door over the same pfs
		// namespace, with 2 metadata shards so `gateway report` shows
		// the shard split in the demo.
		Gateway: &gateway.Config{MetaShards: 2},
	})
	if err != nil {
		return nil, err
	}
	sys.Tracer.SetEnabled(false)
	s := newSession(sys, out)
	s.echo = true
	return s, nil
}

// printTopFrame renders one `top` frame — the per-blade dashboard table —
// from the scraper's retained window, and reports any watchdog events past
// seenEvents. Returns the new events high-water mark.
func printTopFrame(w io.Writer, sys *core.System, seenEvents int) int {
	c := sys.Cluster
	s := sys.Scraper
	if s == nil || s.Scrapes() == 0 {
		fmt.Fprintln(w, "  no telemetry window yet (scraper off or nothing scraped)")
		return seenEvents
	}
	last := func(name string) float64 {
		d := s.DeltaSeries(name)
		if len(d) == 0 {
			return 0
		}
		return d[len(d)-1]
	}
	secs := s.Interval().Seconds()
	p99, _ := sys.Registry.Value("cluster/op_latency/p99_ms")
	fmt.Fprintf(w, "  yotta top — t=%.0fms  ops/s %.0f  p99 %.2f ms  blades %d/%d alive\n",
		c.K.Now().Seconds()*1e3, last("cluster/ops")/secs, p99, len(c.Alive()), len(c.Blades))
	fmt.Fprintf(w, "  %-5s %9s %6s %8s %9s %8s  %s\n", "blade", "ops/s", "hit%", "retries", "degraded", "records", "load")
	for i := range c.Blades {
		pre := fmt.Sprintf("blade/%d", i)
		hits, misses := last(pre+"/cache/hits"), last(pre+"/cache/misses")
		hitPct := 0.0
		if hits+misses > 0 {
			hitPct = 100 * hits / (hits + misses)
		}
		load := s.DeltaSeries(pre + "/ops")
		if len(load) > 30 { // keep the sparkline terminal-width friendly
			load = load[len(load)-30:]
		}
		records, _ := sys.Registry.Value(pre + "/coh/records") // live per-key records: a gauge
		fmt.Fprintf(w, "  %-5d %9.0f %6.1f %8.0f %9.0f %8.0f  %s\n",
			i, last(pre+"/ops")/secs, hitPct,
			last(pre+"/rpc/retries"), last(pre+"/coh/degraded_ops"), records,
			metrics.Sparkline(load))
	}
	procs, _ := sys.Registry.Value("sim/procs")
	runners, _ := sys.Registry.Value("sim/runners")
	fmt.Fprintf(w, "  kernel: events/s %.0f  resumes/s %.0f  procs %.0f  runners %.0f  built/s %.0f\n",
		last("sim/events")/secs, last("sim/resumes")/secs, procs, runners, last("sim/runners_built")/secs)
	for _, ev := range s.Events()[seenEvents:] {
		fmt.Fprintf(w, "  ! %s\n", ev)
	}
	return len(s.Events())
}

// loadFlags are the flags the trace, top and telemetry subcommands share:
// the system and the closed-loop workload they drive.
type loadFlags struct {
	*flag.FlagSet
	seed    int64
	blades  int
	clients int
	ms      int64
}

// newLoadFlags defines the shared flags; ms defaults to msDefault.
func newLoadFlags(name string, msDefault int64) *loadFlags {
	f := &loadFlags{FlagSet: flag.NewFlagSet(name, flag.ExitOnError)}
	f.Int64Var(&f.seed, "seed", 1, "simulation seed (same seed → byte-identical output)")
	f.IntVar(&f.blades, "blades", 4, "controller blades")
	f.IntVar(&f.clients, "clients", 8, "closed-loop clients")
	f.Int64Var(&f.ms, "ms", msDefault, "workload length, ms of virtual time")
	return f
}

// parse reads argv; -ms and the subcommand's other periods must be
// positive.
func (f *loadFlags) parse(argv []string, periods ...*int64) {
	f.Parse(argv)
	for _, ms := range append(periods, &f.ms) {
		if *ms <= 0 {
			log.Fatal("millisecond flags must be positive")
		}
	}
}

func (f *loadFlags) length() sim.Duration { return sim.Duration(f.ms) * sim.Millisecond }

// workingSet is the subcommands' working set, in blocks.
const workingSet = 4 << 10

// start builds the subcommand's system from opts and the flags, prefills
// the working set with its tracer parked, and returns the closed-loop
// workload that drives it for d of virtual time: -clients clients doing
// 4-block ops over the working set, a quarter of them writes.
func (f *loadFlags) start(opts core.Options) (*core.System, func(d sim.Duration) *workload.Runner) {
	opts.Seed, opts.Blades = f.seed, f.blades
	sys, err := core.NewSystem(opts)
	if err != nil {
		log.Fatal(err)
	}
	sys.Tracer.SetEnabled(false)
	target := &core.VolumeTarget{Cluster: sys.Cluster, Vol: "fs.default"}
	err = sys.Run(0, func(p *sim.Proc) error {
		for lba := int64(0); lba < workingSet; lba += 256 {
			if err := target.Write(p, lba, 256); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	return sys, func(d sim.Duration) *workload.Runner {
		return &workload.Runner{K: sys.K, Clients: f.clients, Target: target, Duration: d,
			Pattern: func(int) workload.Pattern {
				return workload.Uniform{Range: workingSet, Blocks: 4, WriteFrac: 0.25}
			}}
	}
}

// saveFlag exports to the path an output flag names, if any; a failed
// export ends the subcommand.
func saveFlag(path string, write func(io.Writer) error) {
	if path == "" {
		return
	}
	if err := export(path, write); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", path)
}

// runTrace implements `yottactl trace`: warm an untraced cluster, run a
// traced measurement window of -ms, and export the spans.
func runTrace(argv []string) {
	f := newLoadFlags("trace", 500)
	out := f.String("out", "trace.json", "Chrome trace_event output (chrome://tracing, ui.perfetto.dev)")
	jsonl := f.String("jsonl", "", "also write one span per line as JSONL")
	f.parse(argv)

	sys, load := f.start(core.Options{Trace: true})
	defer sys.K.Close()    // after the export: Close ends in-flight spans
	load(sim.Second).Run() // warm caches untraced
	sys.Tracer.SetEnabled(true)
	r := load(f.length())
	r.Run()
	sys.Tracer.SetEnabled(false)

	saveFlag(*out, sys.Tracer.WriteChrome)
	saveFlag(*jsonl, sys.Tracer.WriteJSONL)

	fmt.Printf("%d ops, %.1f MB/s, mean %.3f ms, p99 %.3f ms over %d ms traced\n",
		r.Ops, r.Bytes.MBps(), r.Latency.Mean().Millis(), r.Latency.P99().Millis(), f.ms)
	fmt.Printf("%s\n", sys.Tracer.Summary())
	sys.Tracer.BreakdownTable("per-phase latency").Render(os.Stdout)
}

// runTop implements `yottactl top`: a live per-blade dashboard refreshed
// in virtual time while a closed-loop workload drives the cluster.
func runTop(argv []string) {
	f := newLoadFlags("top", 2000)
	refresh := f.Int64("refresh-ms", 250, "dashboard refresh, ms of virtual time")
	f.parse(argv, refresh)

	interval := sim.Duration(*refresh) * sim.Millisecond
	sys, load := f.start(core.Options{Telemetry: interval, SLOReadP99: 50 * sim.Millisecond})
	defer sys.K.Close() // after the report has read the scraper
	load(f.length()).Start()
	seen := 0
	for n := int64(0); n < f.ms / *refresh; n++ {
		sys.K.RunFor(interval)
		seen = printTopFrame(os.Stdout, sys, seen)
		fmt.Println()
	}
	fmt.Printf("%s\n", sys.Scraper.Report())
}

// runTelemetry implements `yottactl telemetry`: the same scraped workload
// headless, exporting the timeline/events/prom artifacts plus a report.
func runTelemetry(argv []string) {
	f := newLoadFlags("telemetry", 2000)
	intervalMs := f.Int64("interval-ms", 100, "scrape interval, ms of virtual time")
	jsonl := f.String("jsonl", "", "write the scrape timeline as JSONL to this file")
	events := f.String("events", "", "write watchdog events as JSONL to this file")
	prom := f.String("prom", "", "write final values in Prometheus text format to this file")
	f.parse(argv, intervalMs)

	sys, load := f.start(core.Options{Telemetry: sim.Duration(*intervalMs) * sim.Millisecond, SLOReadP99: 50 * sim.Millisecond})
	defer sys.K.Close() // after the exports and the report have read the scraper
	r := load(f.length())
	r.Run()

	saveFlag(*jsonl, sys.Scraper.WriteJSONL)
	saveFlag(*events, sys.Scraper.WriteEventsJSONL)
	saveFlag(*prom, sys.Registry.WriteProm)

	fmt.Printf("%d ops, %.1f MB/s over %d ms\n", r.Ops, r.Bytes.MBps(), f.ms)
	fmt.Printf("%s\n", sys.Scraper.Report())
	sys.Scraper.SkewTable("per-blade load", "blade/*/ops").Render(os.Stdout)
}

func printStatus(w io.Writer, sys *core.System) {
	c := sys.Cluster
	fmt.Fprintf(w, "  t=%v\n", c.K.Now())
	fmt.Fprintf(w, "  blades: %d total, %v alive\n", len(c.Blades), c.Alive())
	if tot := c.FabricTotals(); tot.RPC.Timeouts+tot.RPC.Retries+tot.RPC.GaveUp+tot.DegradedOps+tot.WritebackErrors > 0 || c.Net.FaultsActive() {
		fmt.Fprintf(w, "  fabric: %d timeouts, %d retries, %d gave-up calls, %d degraded ops, %d writeback errors\n",
			tot.RPC.Timeouts, tot.RPC.Retries, tot.RPC.GaveUp, tot.DegradedOps, tot.WritebackErrors)
		f := c.Net.Faults
		fmt.Fprintf(w, "  injected faults: %d dropped, %d duplicated, %d delayed\n",
			f.Dropped, f.Duplicated, f.Delayed)
	}
	healthy := 0
	for _, d := range c.Farm.Disks {
		if !d.Failed() {
			healthy++
		}
	}
	fmt.Fprintf(w, "  disks: %d/%d healthy across %d RAID groups\n",
		healthy, len(c.Farm.Disks), len(c.Groups))
	sum := func(pattern string) (tot float64) {
		for _, name := range c.Reg.Match(pattern) {
			v, _ := c.Reg.Value(name)
			tot += v
		}
		return tot
	}
	if runs := sum("blade/*/coh/writeback_runs"); runs > 0 {
		blocks := sum("blade/*/coh/writebacks")
		fmt.Fprintf(w, "  destage: %.0f blocks in %.0f runs (%.2f blocks/run); row writes: %.0f full-stripe, %.0f reconstruct, %.0f read-modify-write\n",
			blocks, runs, blocks/runs, sum("raid/*/row_writes_full"), sum("raid/*/row_writes_reconstruct"), sum("raid/*/row_writes_rmw"))
	}
	pool := c.Pool
	fmt.Fprintf(w, "  pool: %s allocated of %s (%d volumes)\n",
		metrics.FormatBytes(pool.AllocatedBytes()),
		metrics.FormatBytes(pool.TotalExtents()*pool.ExtentBytes()),
		len(pool.Volumes()))
	for _, name := range slices.Sorted(maps.Keys(pool.Volumes())) {
		v := pool.Volumes()[name]
		fmt.Fprintf(w, "    %-16s %-8s mapped %s\n", name, v.Kind(),
			metrics.FormatBytes(v.PhysicalBytes()))
	}
}
