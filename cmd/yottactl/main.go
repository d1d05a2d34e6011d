// Command yottactl is the administrator's view of the system (§7.3: "the
// distributed operation managed as a single site"). It builds an in-memory
// system from a scenario description, executes a script of admin commands,
// and prints the resulting state — volumes, tenants, blade health, pool
// occupancy — as one system image.
//
// Usage:
//
//	yottactl                  # run the default demo scenario
//	yottactl -script file     # run commands from a file (one per line)
//	yottactl trace [flags]    # run a traced workload, export the trace
//	yottactl top [flags]      # live per-blade dashboard over a workload
//	yottactl telemetry [flags]# run a scraped workload, export telemetry
//
// The trace subcommand drives a mixed read/write client population with
// per-operation tracing on and writes a Chrome trace_event file (load in
// chrome://tracing or https://ui.perfetto.dev) plus optional JSONL:
//
//	yottactl trace -seed 7 -blades 8 -out trace.json -jsonl trace.jsonl
//
// The top subcommand drives the same workload with the telemetry scraper
// on and renders a per-blade table (ops/s, cache hit rate, retries,
// degraded ops, load sparkline) refreshed every -refresh-ms of virtual
// time, with watchdog alarms inlined as they fire:
//
//	yottactl top -seed 1 -blades 4 -ms 2000 -refresh-ms 250
//
// The telemetry subcommand runs the workload headless and exports the
// artifacts instead: -jsonl (scrape timeline), -events (watchdog events),
// -prom (final values in Prometheus text format), plus a report and
// per-blade skew table on stdout. Same seed → byte-identical exports.
//
// Commands (one per line; '#' starts a comment):
//
//	mkvol <name> <extents>          create a DMSD
//	mkthick <name> <blocks>         create a thick volume
//	rmvol <name>                    delete a volume
//	snapshot <src> <dst>            point-in-time copy
//	mkdir <path>                    create a directory
//	put <path> <text...>            write a file
//	get <path>                      print a file
//	policy <path> prio=N repl=N     set file policy
//	tenant <name>                   create tenant + token
//	grant <lun> <tenant> <ro|rw>    LUN mask entry
//	export <lun> <volume>           publish a volume as a LUN
//	failblade <id>                  kill a controller blade
//	revive <id>                     bring a blade back
//	faults <drop%> <dup%> <delay%> <maxdelay-ms>   inject fabric faults
//	faults off                      disable fault injection
//	faildisk <group> <idx>          fail a drive
//	rebuild <group> <idx>           distributed rebuild
//	clone <src> <dst>               distributed mirror creation
//	evacuate <device>               migrate all extents off a device
//	rebalance                       even extent load across devices
//	rebalance on|off                toggle the installed load-spreading scheme
//	rebalance status                scheme name, thresholds + counters
//	rebalance report                scheme name + full per-scheme report
//	                                (migrate: the home-migration log)
//	qos on|off                      toggle admission control + fair queueing
//	qos status                      switch state, lane weights, bucket count
//	qos report                      tenants, governor, per-lane occupancy
//	trace on|off                    toggle per-op tracing
//	trace status                    span counts per phase so far
//	trace export chrome <file>      write Chrome trace_event JSON
//	trace export jsonl <file>       write one span per line as JSONL
//	analyze                         critical-path attribution tables over
//	                                the traced ops (budget + tail diagnosis)
//	analyze folded <file>           export the aggregate critical path as
//	                                stacks.folded (flame-graph input)
//	critpath <traceid>              render one op's critical path
//	critpath                        same, for the op-latency p99 exemplar
//	top                             one dashboard frame (per-blade load)
//	telemetry status                registry size + scraper coverage
//	telemetry report                scrape summary + watchdog events
//	telemetry export prom <file>    current values, Prometheus text format
//	telemetry export jsonl <file>   scrape timeline as JSONL
//	telemetry export events <file>  watchdog events as JSONL
//	gateway status                  object-gateway one-line summary
//	gateway buckets                 bucket table (owner, shard, objects)
//	gateway report                  full three-tier report (iam/meta/data)
//	gateway mkbucket <tenant> <bkt> create a bucket as the tenant
//	gateway put <tenant> <bkt> <key> <text...>   write an object
//	gateway get <tenant> <bkt> <key>             print an object
//	gateway ls <tenant> <bkt> [prefix]           list objects
//	status                          print system status (with destage blocks
//	                                per run and the RAID row-write mix)
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/critpath"
	"repro/internal/disk"
	"repro/internal/gateway"
	"repro/internal/metrics"
	"repro/internal/pfs"
	"repro/internal/qos"
	"repro/internal/security"
	"repro/internal/sim"
	"repro/internal/simnet"
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
put /labs/fusion/readme.txt shared storage for the whole lab
policy /labs/fusion/readme.txt prio=3 repl=3
get /labs/fusion/readme.txt
snapshot projects projects@t0
clone fs.default fs-mirror
rebalance
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
		switch os.Args[1] {
		case "trace":
			runTrace(os.Args[2:])
			return
		case "top":
			runTop(os.Args[2:])
			return
		case "telemetry":
			runTelemetry(os.Args[2:])
			return
		}
	}

	scriptPath := flag.String("script", "", "command script (default: built-in demo)")
	flag.Parse()

	// Demo-scale drives (256 MiB each) keep interactive rebuilds quick.
	// Tracing is attached but off until a script says `trace on`; the
	// telemetry scraper runs throughout so `top` and `telemetry` commands
	// have a window to show.
	sys, err := core.NewSystem(core.Options{
		DiskSpec: disk.Spec{
			BlockSize:   4096,
			Blocks:      1 << 16,
			Seek:        5 * sim.Millisecond,
			Rotation:    3 * sim.Millisecond,
			TransferBps: 400_000_000,
		},
		Trace:      true,
		Telemetry:  100 * sim.Millisecond,
		SLOReadP99: 50 * sim.Millisecond,
		Rebalance:  core.RebalanceMigrate,
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
		log.Fatal(err)
	}
	sys.Tracer.SetEnabled(false)
	// The rebalancer is attached but parked until a script says
	// `rebalance on` — admin scripts opt in to home migrations.
	sys.Balancer.SetEnabled(false)
	defer sys.Stop()

	var lines []string
	if *scriptPath == "" {
		lines = strings.Split(defaultScript, "\n")
	} else {
		f, err := os.Open(*scriptPath)
		if err != nil {
			log.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			lines = append(lines, sc.Text())
		}
		f.Close()
	}

	err = sys.Run(0, func(p *sim.Proc) error {
		for _, line := range lines {
			line = strings.TrimSpace(line)
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			fmt.Printf("yotta> %s\n", line)
			if err := execute(p, sys, line); err != nil {
				fmt.Printf("  error: %v\n", err)
			}
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
}

func execute(p *sim.Proc, sys *core.System, line string) error {
	fields := strings.Fields(line)
	cmd, args := fields[0], fields[1:]
	atoi := func(s string) int64 {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return -1
		}
		return v
	}
	switch cmd {
	case "mkvol":
		if len(args) != 2 {
			return fmt.Errorf("usage: mkvol <name> <extents>")
		}
		_, err := sys.Cluster.CreateDMSD("default", args[0], atoi(args[1]))
		return err
	case "mkthick":
		if len(args) != 2 {
			return fmt.Errorf("usage: mkthick <name> <blocks>")
		}
		_, err := sys.Cluster.CreateVolume("default", args[0], atoi(args[1]))
		return err
	case "rmvol":
		if len(args) != 1 {
			return fmt.Errorf("usage: rmvol <name>")
		}
		return sys.Cluster.Pool.Delete(args[0])
	case "snapshot":
		if len(args) != 2 {
			return fmt.Errorf("usage: snapshot <src> <dst>")
		}
		v, ok := sys.Cluster.Pool.Volumes()[args[0]]
		if !ok {
			return fmt.Errorf("no volume %q", args[0])
		}
		_, err := v.SnapshotAs(args[1])
		return err
	case "mkdir":
		if len(args) != 1 {
			return fmt.Errorf("usage: mkdir <path>")
		}
		return sys.FS.MkdirAll(args[0])
	case "put":
		if len(args) < 2 {
			return fmt.Errorf("usage: put <path> <text>")
		}
		return sys.FS.WriteFile(p, args[0], []byte(strings.Join(args[1:], " ")), pfs.Policy{})
	case "get":
		if len(args) != 1 {
			return fmt.Errorf("usage: get <path>")
		}
		data, err := sys.FS.ReadFile(p, args[0])
		if err != nil {
			return err
		}
		fmt.Printf("  %s\n", data)
		return nil
	case "policy":
		if len(args) < 2 {
			return fmt.Errorf("usage: policy <path> prio=N repl=N")
		}
		pol, err := sys.FS.Policy(args[0])
		if err != nil {
			return err
		}
		for _, kv := range args[1:] {
			parts := strings.SplitN(kv, "=", 2)
			if len(parts) != 2 {
				continue
			}
			switch parts[0] {
			case "prio":
				pol.CachePriority = int(atoi(parts[1]))
			case "repl":
				pol.ReplicationN = int(atoi(parts[1]))
			case "class":
				pol.Class = parts[1]
			}
		}
		return sys.FS.SetPolicy(args[0], pol)
	case "tenant":
		if len(args) != 1 {
			return fmt.Errorf("usage: tenant <name>")
		}
		if _, err := sys.Auth.CreateTenant(args[0]); err != nil {
			return err
		}
		tok, err := sys.Auth.Issue(args[0], 24*3600*sim.Second)
		if err != nil {
			return err
		}
		fmt.Printf("  token: %s\n", tok)
		return nil
	case "export":
		if len(args) != 2 {
			return fmt.Errorf("usage: export <lun> <volume>")
		}
		sys.BlockGateway.ExportLUN(args[0], args[1])
		return nil
	case "grant":
		if len(args) != 3 {
			return fmt.Errorf("usage: grant <lun> <tenant> <ro|rw>")
		}
		access := security.ReadOnly
		if args[2] == "rw" {
			access = security.ReadWrite
		}
		sys.Mask.Allow(args[0], args[1], access)
		return nil
	case "faults":
		if len(args) == 1 && args[0] == "off" {
			sys.Cluster.SetFaultPlan(simnet.FaultPlan{})
			fmt.Println("  fault injection disabled")
			return nil
		}
		if len(args) != 4 {
			return fmt.Errorf("usage: faults <drop%%> <dup%%> <delay%%> <maxdelay-ms> | faults off")
		}
		pct := func(s string) (float64, error) {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil || v < 0 || v > 100 {
				return 0, fmt.Errorf("bad percentage %q", s)
			}
			return v / 100, nil
		}
		var plan simnet.FaultPlan
		var err error
		if plan.DropProb, err = pct(args[0]); err != nil {
			return err
		}
		if plan.DupProb, err = pct(args[1]); err != nil {
			return err
		}
		if plan.DelayProb, err = pct(args[2]); err != nil {
			return err
		}
		ms, err := strconv.ParseFloat(args[3], 64)
		if err != nil || ms < 0 {
			return fmt.Errorf("bad max delay %q", args[3])
		}
		plan.MaxExtraDelay = sim.Duration(ms * float64(sim.Millisecond))
		sys.Cluster.SetFaultPlan(plan)
		fmt.Printf("  fault plan: drop %s%% dup %s%% delay %s%% (max +%v) on every fabric link\n",
			args[0], args[1], args[2], plan.MaxExtraDelay)
		return nil
	case "failblade":
		if len(args) != 1 {
			return fmt.Errorf("usage: failblade <id>")
		}
		return sys.Cluster.FailBlade(p, int(atoi(args[0])))
	case "revive":
		if len(args) != 1 {
			return fmt.Errorf("usage: revive <id>")
		}
		return sys.Cluster.ReviveBlade(p, int(atoi(args[0])))
	case "faildisk":
		if len(args) != 2 {
			return fmt.Errorf("usage: faildisk <group> <idx>")
		}
		g, d := int(atoi(args[0])), int(atoi(args[1]))
		if g < 0 || g >= len(sys.Cluster.Groups) {
			return fmt.Errorf("no group %d", g)
		}
		disks := sys.Cluster.Groups[g].Disks()
		if d < 0 || d >= len(disks) {
			return fmt.Errorf("usage: faildisk <group> <idx>, idx in 0..%d", len(disks)-1)
		}
		disks[d].Fail()
		return nil
	case "clone":
		if len(args) != 2 {
			return fmt.Errorf("usage: clone <src> <dst>")
		}
		t0 := p.Now()
		n, err := sys.Cluster.DistributedClone(p, "default", args[0], args[1])
		if err != nil {
			return err
		}
		fmt.Printf("  cloned %d extents in %v\n", n, p.Now().Sub(t0))
		return nil
	case "evacuate":
		if len(args) != 1 {
			return fmt.Errorf("usage: evacuate <device>")
		}
		moved, err := sys.Cluster.Pool.Evacuate(p, int(atoi(args[0])))
		if err != nil {
			return err
		}
		fmt.Printf("  migrated %d extents off device %s\n", moved, args[0])
		return nil
	case "rebalance":
		// Bare `rebalance` keeps its original meaning: spread extents
		// across pool devices. With a subcommand it drives the installed
		// load-spreading scheme (migration balancer or hot-key cache
		// tier) through the scheme-independent Rebalancer interface.
		if len(args) == 0 {
			moved, err := sys.Cluster.Pool.Rebalance(p, 2)
			if err != nil {
				return err
			}
			fmt.Printf("  moved %d extents; device load now %v\n", moved, sys.Cluster.Pool.DeviceLoad())
			return nil
		}
		if len(args) != 1 {
			return fmt.Errorf("usage: rebalance [on|off|status|report]")
		}
		if sys.Rebalancer == nil {
			return fmt.Errorf("no rebalancing scheme installed (Options.Rebalance off)")
		}
		switch args[0] {
		case "on":
			sys.Rebalancer.SetEnabled(true)
			fmt.Printf("  rebalancer (%s) on\n", sys.Rebalancer.Scheme())
			return nil
		case "off":
			sys.Rebalancer.SetEnabled(false)
			fmt.Printf("  rebalancer (%s) off\n", sys.Rebalancer.Scheme())
			return nil
		case "status":
			fmt.Printf("  scheme=%s %s\n", sys.Rebalancer.Scheme(), sys.Rebalancer.Status())
			return nil
		case "report":
			fmt.Printf("  %s\n", strings.ReplaceAll(strings.TrimRight(sys.Rebalancer.Report(), "\n"), "\n", "\n  "))
			return nil
		default:
			return fmt.Errorf("usage: rebalance [on|off|status|report]")
		}
	case "rebuild":
		if len(args) != 2 {
			return fmt.Errorf("usage: rebuild <group> <idx>")
		}
		g, d := int(atoi(args[0])), int(atoi(args[1]))
		t0 := p.Now()
		if err := sys.Cluster.DistributedRebuild(p, g, d); err != nil {
			return err
		}
		fmt.Printf("  rebuild complete in %v\n", p.Now().Sub(t0))
		return nil
	case "trace":
		if len(args) == 0 {
			return fmt.Errorf("usage: trace on|off|status | trace export chrome|jsonl <file>")
		}
		switch args[0] {
		case "on":
			sys.Tracer.SetEnabled(true)
			fmt.Println("  tracing on")
			return nil
		case "off":
			sys.Tracer.SetEnabled(false)
			fmt.Println("  tracing off")
			return nil
		case "status":
			fmt.Printf("  %s\n", sys.Tracer.Summary())
			for _, pc := range sys.Tracer.PhaseCounts() {
				fmt.Printf("    %s\n", pc)
			}
			return nil
		case "export":
			if len(args) != 3 {
				return fmt.Errorf("usage: trace export chrome|jsonl <file>")
			}
			f, err := os.Create(args[2])
			if err != nil {
				return err
			}
			defer f.Close()
			switch args[1] {
			case "chrome":
				err = sys.Tracer.WriteChrome(f)
			case "jsonl":
				err = sys.Tracer.WriteJSONL(f)
			default:
				return fmt.Errorf("unknown trace format %q (chrome or jsonl)", args[1])
			}
			if err == nil {
				fmt.Printf("  wrote %s\n", args[2])
			}
			return err
		default:
			return fmt.Errorf("usage: trace on|off|status | trace export chrome|jsonl <file>")
		}
	case "analyze":
		a := critpath.FromTracer(sys.Tracer)
		if len(args) == 2 && args[0] == "folded" {
			f, err := os.Create(args[1])
			if err != nil {
				return err
			}
			defer f.Close()
			if err := a.WriteFolded(f); err != nil {
				return err
			}
			fmt.Printf("  wrote %s\n", args[1])
			return nil
		}
		if len(args) != 0 {
			return fmt.Errorf("usage: analyze | analyze folded <file>")
		}
		fmt.Printf("  %s\n", a.Summary())
		if len(a.Ops) == 0 {
			fmt.Println("  no complete op traces — run with `trace on` first")
			return nil
		}
		if err := a.Check(); err != nil {
			return err
		}
		indent := func(s string) { fmt.Printf("  %s\n", strings.ReplaceAll(strings.TrimRight(s, "\n"), "\n", "\n  ")) }
		indent(a.BudgetTable("critical-path latency budget").String())
		indent(a.TailTable("tail diagnosis — median vs p99+ ops").String())
		return nil
	case "critpath":
		a := critpath.FromTracer(sys.Tracer)
		var id uint64
		switch len(args) {
		case 0:
			ex, ok := sys.Registry.ExemplarFor("cluster/op_latency", 0.99)
			if !ok {
				return fmt.Errorf("no op-latency exemplars yet — run traced ops first")
			}
			id = ex.Trace
			fmt.Printf("  p99 exemplar: trace %d (%.3f ms)\n", ex.Trace, ex.Value.Millis())
		case 1:
			v, err := strconv.ParseUint(args[0], 10, 64)
			if err != nil {
				return fmt.Errorf("bad trace id %q", args[0])
			}
			id = v
		default:
			return fmt.Errorf("usage: critpath [traceid]")
		}
		var buf strings.Builder
		if err := a.RenderPath(&buf, id); err != nil {
			return err
		}
		fmt.Printf("  %s\n", strings.ReplaceAll(strings.TrimRight(buf.String(), "\n"), "\n", "\n  "))
		return nil
	case "qos":
		if len(args) != 1 {
			return fmt.Errorf("usage: qos on|off|status|report")
		}
		if sys.QoS == nil {
			return fmt.Errorf("qos off (system built without Options.QoS)")
		}
		switch args[0] {
		case "on":
			sys.QoS.SetEnabled(true)
			fmt.Println("  qos on")
			return nil
		case "off":
			sys.QoS.SetEnabled(false)
			fmt.Println("  qos off")
			return nil
		case "status":
			state := "off"
			if sys.QoS.Enabled() {
				state = "on"
			}
			w := sys.QoS.Weights()
			fmt.Printf("  qos: %s, lane weights fg %.3g/%.3g/%.3g/%.3g bg %.3g, %d tenant buckets\n",
				state, w[0], w[1], w[2], w[3], w[4], len(sys.QoS.Admission().Stats()))
			return nil
		case "report":
			fmt.Printf("  %s\n", strings.ReplaceAll(strings.TrimRight(sys.QoS.Report(), "\n"), "\n", "\n  "))
			return nil
		default:
			return fmt.Errorf("usage: qos on|off|status|report")
		}
	case "gateway":
		if sys.Gateway == nil {
			return fmt.Errorf("object gateway off (system built without Options.Gateway)")
		}
		if len(args) == 0 {
			return fmt.Errorf("usage: gateway status|buckets|report | gateway mkbucket|put|get|ls ...")
		}
		// Admin commands act as the named tenant: a short-lived token is
		// minted through the same Authority the gateway's IAM tier uses,
		// so admin traffic exercises the real auth path (and shows up in
		// the audit log like any client).
		mint := func(tenant string) (string, error) {
			return sys.Auth.Issue(tenant, 3600*sim.Second)
		}
		switch args[0] {
		case "status":
			fmt.Printf("  %s\n", sys.Gateway.Status())
			return nil
		case "buckets":
			buckets := sys.Gateway.Buckets()
			if len(buckets) == 0 {
				fmt.Println("  no buckets")
				return nil
			}
			for _, b := range buckets {
				fmt.Printf("  %-20s owner=%-12s shard=%d objects=%d bytes=%d\n",
					b.Name, b.Owner, b.Shard, b.Objects, b.Bytes)
			}
			return nil
		case "report":
			fmt.Printf("  %s\n", strings.ReplaceAll(strings.TrimRight(sys.Gateway.Report(), "\n"), "\n", "\n  "))
			return nil
		case "mkbucket":
			if len(args) != 3 {
				return fmt.Errorf("usage: gateway mkbucket <tenant> <bucket>")
			}
			tok, err := mint(args[1])
			if err != nil {
				return err
			}
			return sys.Gateway.CreateBucket(p, tok, args[2], gateway.BucketOptions{Priority: -1})
		case "put":
			if len(args) < 5 {
				return fmt.Errorf("usage: gateway put <tenant> <bucket> <key> <text>")
			}
			tok, err := mint(args[1])
			if err != nil {
				return err
			}
			ver, err := sys.Gateway.PutObject(p, tok, args[2], args[3], []byte(strings.Join(args[4:], " ")))
			if err != nil {
				return err
			}
			fmt.Printf("  put %s/%s: %d bytes, version %d\n", args[2], args[3], ver.Size, ver.Seq)
			return nil
		case "get":
			if len(args) != 4 {
				return fmt.Errorf("usage: gateway get <tenant> <bucket> <key>")
			}
			tok, err := mint(args[1])
			if err != nil {
				return err
			}
			data, _, err := sys.Gateway.GetObject(p, tok, args[2], args[3])
			if err != nil {
				return err
			}
			fmt.Printf("  %s\n", data)
			return nil
		case "ls":
			if len(args) < 3 || len(args) > 4 {
				return fmt.Errorf("usage: gateway ls <tenant> <bucket> [prefix]")
			}
			tok, err := mint(args[1])
			if err != nil {
				return err
			}
			prefix := ""
			if len(args) == 4 {
				prefix = args[3]
			}
			rows, truncated, err := sys.Gateway.ListObjects(p, tok, args[2], prefix, "", 100)
			if err != nil {
				return err
			}
			for _, row := range rows {
				fmt.Printf("  %-32s %8d bytes  seq %d\n", row.Key, row.Size, row.Seq)
			}
			if truncated {
				fmt.Println("  ... (truncated at 100)")
			}
			return nil
		default:
			return fmt.Errorf("usage: gateway status|buckets|report | gateway mkbucket|put|get|ls ...")
		}
	case "top":
		printTopFrame(sys, 0)
		return nil
	case "telemetry":
		if len(args) == 0 {
			return fmt.Errorf("usage: telemetry status|report | telemetry export prom|jsonl|events <file>")
		}
		switch args[0] {
		case "status":
			fmt.Printf("  registry: %d series\n", sys.Registry.Len())
			if sys.Scraper == nil {
				fmt.Println("  scraper: off")
				return nil
			}
			fmt.Printf("  scraper: %d scrapes every %v covering %v; %d watchdog events\n",
				sys.Scraper.Scrapes(), sys.Scraper.Interval(), sys.Scraper.Window(), len(sys.Scraper.Events()))
			return nil
		case "report":
			if sys.Scraper == nil {
				return fmt.Errorf("scraper off (system built without Options.Telemetry)")
			}
			fmt.Printf("  %s\n", sys.Scraper.Report())
			return nil
		case "export":
			if len(args) != 3 {
				return fmt.Errorf("usage: telemetry export prom|jsonl|events <file>")
			}
			f, err := os.Create(args[2])
			if err != nil {
				return err
			}
			defer f.Close()
			switch args[1] {
			case "prom":
				err = sys.Registry.WriteProm(f)
			case "jsonl":
				if sys.Scraper == nil {
					return fmt.Errorf("scraper off")
				}
				err = sys.Scraper.WriteJSONL(f)
			case "events":
				if sys.Scraper == nil {
					return fmt.Errorf("scraper off")
				}
				err = sys.Scraper.WriteEventsJSONL(f)
			default:
				return fmt.Errorf("unknown telemetry format %q (prom, jsonl or events)", args[1])
			}
			if err == nil {
				fmt.Printf("  wrote %s\n", args[2])
			}
			return err
		default:
			return fmt.Errorf("usage: telemetry status|report | telemetry export prom|jsonl|events <file>")
		}
	case "status":
		printStatus(sys)
		return nil
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// printTopFrame renders one `top` frame — the per-blade dashboard table —
// from the scraper's retained window, and reports any watchdog events past
// seenEvents. Returns the new events high-water mark.
func printTopFrame(sys *core.System, seenEvents int) int {
	c := sys.Cluster
	s := sys.Scraper
	if s == nil || s.Scrapes() == 0 {
		fmt.Println("  no telemetry window yet (scraper off or nothing scraped)")
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
	fmt.Printf("  yotta top — t=%.0fms  ops/s %.0f  p99 %.2f ms  blades %d/%d alive\n",
		c.K.Now().Seconds()*1e3, last("cluster/ops")/secs, p99, len(c.Alive()), len(c.Blades))
	fmt.Printf("  %-5s %9s %6s %8s %9s  %s\n", "blade", "ops/s", "hit%", "retries", "degraded", "load")
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
		fmt.Printf("  %-5d %9.0f %6.1f %8.0f %9.0f  %s\n",
			i, last(pre+"/ops")/secs, hitPct,
			last(pre+"/rpc/retries"), last(pre+"/coh/degraded_ops"),
			metrics.Sparkline(load))
	}
	for _, ev := range s.Events()[seenEvents:] {
		fmt.Printf("  ! %s\n", ev)
	}
	return len(s.Events())
}

// runTrace implements `yottactl trace`: warm an untraced cluster, run a
// traced measurement window, and export the spans.
func runTrace(argv []string) {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "simulation seed (same seed → byte-identical trace)")
	blades := fs.Int("blades", 4, "controller blades")
	clients := fs.Int("clients", 8, "closed-loop clients")
	window := fs.Int64("ms", 500, "traced window, ms of virtual time")
	out := fs.String("out", "trace.json", "Chrome trace_event output (chrome://tracing, ui.perfetto.dev)")
	jsonl := fs.String("jsonl", "", "also write one span per line as JSONL")
	fs.Parse(argv)

	sys, target := prepSystem(core.Options{Seed: *seed, Blades: *blades, Trace: true})
	mixedLoad(sys, target, *clients, sim.Second).Run() // warm caches untraced
	sys.Tracer.SetEnabled(true)
	r := mixedLoad(sys, target, *clients, sim.Duration(*window)*sim.Millisecond)
	r.Run()
	sys.Tracer.SetEnabled(false)
	sys.Stop()

	writeFile(*out, sys.Tracer.WriteChrome)
	writeFile(*jsonl, sys.Tracer.WriteJSONL)

	fmt.Printf("%d ops, %.1f MB/s, mean %.3f ms, p99 %.3f ms over %d ms traced\n",
		r.Ops, r.Bytes.MBps(), r.Latency.Mean().Millis(), r.Latency.P99().Millis(), *window)
	fmt.Printf("%s\n", sys.Tracer.Summary())
	sys.Tracer.BreakdownTable("per-phase latency").Render(os.Stdout)
}

// subcommandWS is the working set, in blocks, of the trace, top and
// telemetry subcommands.
const subcommandWS = 4 << 10

// prepSystem builds a system from opts, parks its tracer (if any) so the
// prefill is not traced, and prefills the default volume's working set —
// the shared setup of the trace, top and telemetry subcommands.
func prepSystem(opts core.Options) (*core.System, *core.VolumeTarget) {
	sys, err := core.NewSystem(opts)
	if err != nil {
		log.Fatal(err)
	}
	if sys.Tracer != nil {
		sys.Tracer.SetEnabled(false)
	}
	target := &core.VolumeTarget{Cluster: sys.Cluster, Vol: "fs.default"}
	err = sys.Run(0, func(p *sim.Proc) error {
		for lba := int64(0); lba < subcommandWS; lba += 256 {
			if err := target.Write(p, lba, 256); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	return sys, target
}

// mixedLoad is the subcommands' closed-loop workload for d of virtual
// time: 4-block ops over the working set, a quarter of them writes.
func mixedLoad(sys *core.System, target *core.VolumeTarget, clients int, d sim.Duration) *workload.Runner {
	return &workload.Runner{
		K:       sys.K,
		Clients: clients,
		Target:  target,
		Pattern: func(int) workload.Pattern {
			return workload.Uniform{Range: subcommandWS, Blocks: 4, WriteFrac: 0.25}
		},
		Duration: d,
	}
}

// writeFile creates path, fills it with fn and reports it; an empty path
// writes nothing.
func writeFile(path string, fn func(io.Writer) error) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := fn(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", path)
}

// prepScraped is prepSystem with the telemetry scraper on, for the top and
// telemetry subcommands.
func prepScraped(seed int64, blades int, interval sim.Duration) (*core.System, *core.VolumeTarget) {
	return prepSystem(core.Options{
		Seed: seed, Blades: blades,
		Telemetry:  interval,
		SLOReadP99: 50 * sim.Millisecond,
	})
}

// runTop implements `yottactl top`: a live per-blade dashboard refreshed
// in virtual time while a closed-loop workload drives the cluster.
func runTop(argv []string) {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "simulation seed")
	blades := fs.Int("blades", 4, "controller blades")
	clients := fs.Int("clients", 8, "closed-loop clients")
	total := fs.Int64("ms", 2000, "workload length, ms of virtual time")
	refresh := fs.Int64("refresh-ms", 250, "dashboard refresh, ms of virtual time")
	fs.Parse(argv)
	if *refresh <= 0 || *total <= 0 {
		log.Fatal("ms and refresh-ms must be positive")
	}

	interval := sim.Duration(*refresh) * sim.Millisecond
	sys, target := prepScraped(*seed, *blades, interval)
	mixedLoad(sys, target, *clients, sim.Duration(*total)*sim.Millisecond).Start()
	seen := 0
	for f := int64(0); f < *total / *refresh; f++ {
		sys.K.RunFor(interval)
		seen = printTopFrame(sys, seen)
		fmt.Println()
	}
	sys.Stop()
	fmt.Printf("%s\n", sys.Scraper.Report())
}

// runTelemetry implements `yottactl telemetry`: the same scraped workload
// headless, exporting the timeline/events/prom artifacts plus a report.
func runTelemetry(argv []string) {
	fs := flag.NewFlagSet("telemetry", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "simulation seed (same seed → byte-identical exports)")
	blades := fs.Int("blades", 4, "controller blades")
	clients := fs.Int("clients", 8, "closed-loop clients")
	total := fs.Int64("ms", 2000, "workload length, ms of virtual time")
	intervalMs := fs.Int64("interval-ms", 100, "scrape interval, ms of virtual time")
	jsonl := fs.String("jsonl", "", "write the scrape timeline as JSONL to this file")
	events := fs.String("events", "", "write watchdog events as JSONL to this file")
	prom := fs.String("prom", "", "write final values in Prometheus text format to this file")
	fs.Parse(argv)
	if *intervalMs <= 0 || *total <= 0 {
		log.Fatal("ms and interval-ms must be positive")
	}

	sys, target := prepScraped(*seed, *blades, sim.Duration(*intervalMs)*sim.Millisecond)
	r := mixedLoad(sys, target, *clients, sim.Duration(*total)*sim.Millisecond)
	r.Run()
	sys.Stop()

	writeFile(*jsonl, sys.Scraper.WriteJSONL)
	writeFile(*events, sys.Scraper.WriteEventsJSONL)
	writeFile(*prom, sys.Registry.WriteProm)

	fmt.Printf("%d ops, %.1f MB/s over %d ms\n", r.Ops, r.Bytes.MBps(), *total)
	fmt.Printf("%s\n", sys.Scraper.Report())
	sys.Scraper.SkewTable("per-blade load", "blade/*/ops").Render(os.Stdout)
}

func printStatus(sys *core.System) {
	c := sys.Cluster
	fmt.Printf("  t=%v\n", c.K.Now())
	fmt.Printf("  blades: %d total, %v alive\n", len(c.Blades), c.Alive())
	if tot := c.FabricTotals(); tot.RPC.Timeouts+tot.RPC.Retries+tot.RPC.GaveUp+tot.DegradedOps+tot.WritebackErrors > 0 || c.Net.FaultsActive() {
		fmt.Printf("  fabric: %d timeouts, %d retries, %d gave-up calls, %d degraded ops, %d writeback errors\n",
			tot.RPC.Timeouts, tot.RPC.Retries, tot.RPC.GaveUp, tot.DegradedOps, tot.WritebackErrors)
		f := c.Net.Faults
		fmt.Printf("  injected faults: %d dropped, %d duplicated, %d delayed\n",
			f.Dropped, f.Duplicated, f.Delayed)
	}
	healthy := 0
	for _, d := range c.Farm.Disks {
		if !d.Failed() {
			healthy++
		}
	}
	fmt.Printf("  disks: %d/%d healthy across %d RAID groups\n",
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
		fmt.Printf("  destage: %.0f blocks in %.0f runs (%.2f blocks/run); row writes: %.0f full-stripe, %.0f reconstruct, %.0f read-modify-write\n",
			blocks, runs, blocks/runs, sum("raid/*/row_writes_full"), sum("raid/*/row_writes_reconstruct"), sum("raid/*/row_writes_rmw"))
	}
	pool := c.Pool
	fmt.Printf("  pool: %s allocated of %s (%d volumes)\n",
		metrics.FormatBytes(pool.AllocatedBytes()),
		metrics.FormatBytes(pool.TotalExtents()*pool.ExtentBytes()),
		len(pool.Volumes()))
	var names []string
	for name := range pool.Volumes() {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := pool.Volumes()[name]
		fmt.Printf("    %-16s %-8s mapped %s\n", name, v.Kind(),
			metrics.FormatBytes(v.PhysicalBytes()))
	}
}
