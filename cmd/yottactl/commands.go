package main

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"

	"repro/internal/balance"
	"repro/internal/core"
	"repro/internal/critpath"
	"repro/internal/gateway"
	"repro/internal/pfs"
	"repro/internal/security"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// A session is the administrator's handle on one running system: script
// commands act on it and print to out.
type session struct {
	sys *core.System
	// bal is the migration balancer, parked until `rebalance on`; nil when
	// the system has no telemetry scraper to feed it.
	bal     *balance.Controller
	stopBal func()
	out     io.Writer
	// echo prints each script line before its output and its error after.
	echo bool
	// p is the simulation process running the current script.
	p *sim.Proc
}

// newSession opens a session on sys. With a scraper it attaches the
// migration balancer, parked.
func newSession(sys *core.System, out io.Writer) *session {
	s := &session{sys: sys, out: out, stopBal: func() {}}
	if sys.Scraper != nil {
		s.bal = sys.Cluster.NewBalancer(sys.Scraper, balance.Config{})
		s.bal.SetEnabled(false)
		s.stopBal = s.bal.Start()
	}
	return s
}

// close stops the balancer and the system.
func (s *session) close() { s.stopBal(); s.sys.Stop() }

// run executes script lines in order from one simulation process, skipping
// blank lines and '#' comments, and returns each executed line's error.
func (s *session) run(lines []string) ([]error, error) {
	var errs []error
	err := s.sys.Run(0, func(p *sim.Proc) error {
		s.p = p
		for _, line := range lines {
			line = strings.TrimSpace(line)
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			if s.echo {
				fmt.Fprintf(s.out, "yotta> %s\n", line)
			}
			err := s.execute(line)
			if s.echo && err != nil {
				s.say("error: %v", err)
			}
			errs = append(errs, err)
		}
		return nil
	})
	return errs, err
}

// say prints one line of command output, indented under the command.
func (s *session) say(format string, a ...any) error {
	_, err := fmt.Fprintf(s.out, "  "+format+"\n", a...)
	return err
}

// indent prints a multi-line block of command output, every line indented.
func (s *session) indent(text string) error {
	return s.say("%s", strings.ReplaceAll(strings.TrimRight(text, "\n"), "\n", "\n  "))
}

// export writes one artifact to path and closes it, returning the errors
// of all three steps.
func export(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return errors.Join(write(f), f.Close())
}

// save exports one artifact to path and reports it.
func (s *session) save(path string, write func(io.Writer) error) error {
	if err := export(path, write); err != nil {
		return err
	}
	return s.say("wrote %s", path)
}

// saveAs is save in the named one of formats; an unknown format is
// rejected before the file is created.
func (s *session) saveAs(formats map[string]func(io.Writer) error, format, path string) error {
	write, ok := formats[format]
	if !ok {
		return argError(fmt.Sprintf("no %q export here", format))
	}
	return s.save(path, write)
}

// A command is one script command: its name (one word, or a verb and its
// subcommand), its arguments, and what it does.
type command struct {
	name  string
	usage string // the arguments, as help and usage errors print them
	what  string // one line for help
	// min and max bound the argument count; max -1 takes any number.
	min, max int
	// ints are the argument positions that must be non-negative integers;
	// run reads them with num.
	ints []int
	// need, when set, reports a subsystem the command needs but the
	// system was built without.
	need func(*session) error
	run  func(*session, []string) error
}

func (c *command) line() string { return strings.TrimSpace(c.name + " " + c.usage) }

// argError is an argument a command cannot use; execute reports it with
// the command's usage line.
type argError string

func (e argError) Error() string { return string(e) }

// count parses a non-negative decimal integer.
func count(arg string) (int64, error) {
	v, err := strconv.ParseInt(arg, 10, 64)
	if err != nil || v < 0 {
		return 0, argError(fmt.Sprintf("%q is not a non-negative integer", arg))
	}
	return v, nil
}

// num reads an argument execute has already checked with count.
func num(arg string) int64 {
	v, _ := count(arg)
	return v
}

// groupUsage is the usage line of a verb with subcommands ("" if word has
// none): its bare form, if any, then the subcommands.
func groupUsage(word string) string {
	var subs []string
	for _, c := range commands {
		if sub, ok := strings.CutPrefix(c.name, word+" "); ok {
			subs = append(subs, sub)
		}
	}
	if len(subs) == 0 {
		return ""
	}
	group := word + " " + strings.Join(subs, "|")
	if bare := byName[word]; bare != nil {
		return bare.line() + " | " + group
	}
	return group
}

// execute runs one script line: it finds the command (the two-word entry
// if there is one, else the one-word entry), checks its argument count and
// integers, and reports a bad argument with the usage line.
func (s *session) execute(line string) error {
	fields := strings.Fields(line)
	c, args := byName[fields[0]], fields[1:]
	if len(fields) > 1 && byName[fields[0]+" "+fields[1]] != nil {
		c, args = byName[fields[0]+" "+fields[1]], fields[2:]
	}
	if c == nil {
		if g := groupUsage(fields[0]); g != "" {
			return fmt.Errorf("usage: %s", g)
		}
		return fmt.Errorf("unknown command %q (help lists them)", fields[0])
	}
	if len(args) < c.min || (c.max >= 0 && len(args) > c.max) {
		return fmt.Errorf("usage: %s", cmp.Or(groupUsage(c.name), c.line()))
	}
	for _, i := range c.ints {
		if i < len(args) {
			if _, err := count(args[i]); err != nil {
				return fmt.Errorf("usage: %s (%v)", c.line(), err)
			}
		}
	}
	if c.need != nil {
		if err := c.need(s); err != nil {
			return err
		}
	}
	err := c.run(s, args)
	var bad argError
	if errors.As(err, &bad) {
		return fmt.Errorf("usage: %s (%v)", c.line(), bad)
	}
	return err
}

// needs is a command's check for a subsystem the system is built with
// only when the named Options field is set.
func needs(field string, has func(*session) bool) func(*session) error {
	return func(s *session) error {
		if !has(s) {
			return fmt.Errorf("%s off (system built without Options.%s)", strings.ToLower(field), field)
		}
		return nil
	}
}

var (
	needQoS      = needs("QoS", func(s *session) bool { return s.sys.QoS != nil })
	needGateway  = needs("Gateway", func(s *session) bool { return s.sys.Gateway != nil })
	needScraper  = needs("Telemetry", func(s *session) bool { return s.sys.Scraper != nil })
	needBalancer = needs("Telemetry", func(s *session) bool { return s.bal != nil })
)

// asTenant runs an object command as the tenant its first argument names,
// with a short-lived token minted through the Authority the gateway's IAM
// tier checks: admin traffic takes the real auth path and shows in the
// audit log like any client's.
func asTenant(run func(s *session, token string, args []string) error) func(*session, []string) error {
	return func(s *session, a []string) error {
		tok, err := s.sys.Auth.Issue(a[0], 3600*sim.Second)
		if err != nil {
			return err
		}
		return run(s, tok, a[1:])
	}
}

// help prints the command table.
func help(s *session, _ []string) error {
	w := tabwriter.NewWriter(s.out, 0, 8, 2, ' ', 0)
	for _, c := range commands {
		fmt.Fprintf(w, "  %s\t%s\n", c.line(), c.what)
	}
	return w.Flush()
}

// commands is every script command; help prints it in this order.
var (
	commands []command
	byName   = map[string]*command{}
)

func init() {
	commands = []command{
		{name: "mkvol", usage: "<name> <extents>", what: "create a DMSD", min: 2, max: 2, ints: []int{1},
			run: func(s *session, a []string) error {
				_, err := s.sys.Cluster.CreateDMSD("default", a[0], num(a[1]))
				return err
			}},
		{name: "mkthick", usage: "<name> <blocks>", what: "create a thick volume", min: 2, max: 2, ints: []int{1},
			run: func(s *session, a []string) error {
				_, err := s.sys.Cluster.CreateVolume("default", a[0], num(a[1]))
				return err
			}},
		{name: "rmvol", usage: "<name>", what: "delete a volume", min: 1, max: 1,
			run: func(s *session, a []string) error { return s.sys.Cluster.Pool.Delete(a[0]) }},
		{name: "snapshot", usage: "<src> <dst>", what: "point-in-time copy", min: 2, max: 2,
			run: func(s *session, a []string) error {
				v, ok := s.sys.Cluster.Pool.Volumes()[a[0]]
				if !ok {
					return fmt.Errorf("no volume %q", a[0])
				}
				_, err := v.SnapshotAs(a[1])
				return err
			}},
		{name: "clone", usage: "<src> <dst>", what: "distributed mirror creation", min: 2, max: 2,
			run: func(s *session, a []string) error {
				t0 := s.p.Now()
				n, err := s.sys.Cluster.DistributedClone(s.p, "default", a[0], a[1])
				if err != nil {
					return err
				}
				return s.say("cloned %d extents in %v", n, s.p.Now().Sub(t0))
			}},
		{name: "evacuate", usage: "<device>", what: "migrate all extents off a device", min: 1, max: 1, ints: []int{0},
			run: func(s *session, a []string) error {
				moved, err := s.sys.Cluster.Pool.Evacuate(s.p, int(num(a[0])))
				if err != nil {
					return err
				}
				return s.say("migrated %d extents off device %s", moved, a[0])
			}},
		{name: "mkdir", usage: "<path>", what: "create a directory", min: 1, max: 1,
			run: func(s *session, a []string) error { return s.sys.FS.MkdirAll(a[0]) }},
		{name: "put", usage: "<path> <text...>", what: "write a file", min: 2, max: -1,
			run: func(s *session, a []string) error {
				return s.sys.FS.WriteFile(s.p, a[0], []byte(strings.Join(a[1:], " ")), pfs.Policy{})
			}},
		{name: "get", usage: "<path>", what: "print a file", min: 1, max: 1,
			run: func(s *session, a []string) error {
				data, err := s.sys.FS.ReadFile(s.p, a[0])
				if err != nil {
					return err
				}
				return s.say("%s", data)
			}},
		{name: "policy", usage: "<path> [prio=N] [repl=N] [class=C]", what: "set file policy", min: 2, max: -1,
			run: func(s *session, a []string) error {
				pol, err := s.sys.FS.Policy(a[0])
				if err != nil {
					return err
				}
				for _, kv := range a[1:] {
					key, val, _ := strings.Cut(kv, "=")
					n, err := count(val)
					switch {
					case key == "class":
						pol.Class = val
					case err != nil:
						return err
					case key == "prio":
						pol.CachePriority = int(n)
					case key == "repl":
						pol.ReplicationN = int(n)
					default:
						return argError(fmt.Sprintf("unknown setting %q", kv))
					}
				}
				return s.sys.FS.SetPolicy(a[0], pol)
			}},
		{name: "tenant", usage: "<name>", what: "create tenant + token", min: 1, max: 1,
			run: func(s *session, a []string) error {
				if _, err := s.sys.Auth.CreateTenant(a[0]); err != nil {
					return err
				}
				tok, err := s.sys.Auth.Issue(a[0], 24*3600*sim.Second)
				if err != nil {
					return err
				}
				return s.say("token: %s", tok)
			}},
		{name: "grant", usage: "<lun> <tenant> <ro|rw>", what: "LUN mask entry", min: 3, max: 3,
			run: func(s *session, a []string) error {
				access, ok := map[string]security.Access{"ro": security.ReadOnly, "rw": security.ReadWrite}[a[2]]
				if !ok {
					return argError(fmt.Sprintf("access %q is neither ro nor rw", a[2]))
				}
				s.sys.Mask.Allow(a[0], a[1], access)
				return nil
			}},
		{name: "export", usage: "<lun> <volume>", what: "publish a volume as a LUN", min: 2, max: 2,
			run: func(s *session, a []string) error { s.sys.BlockGateway.ExportLUN(a[0], a[1]); return nil }},
		{name: "failblade", usage: "<id>", what: "kill a controller blade", min: 1, max: 1, ints: []int{0},
			run: func(s *session, a []string) error { return s.sys.Cluster.FailBlade(s.p, int(num(a[0]))) }},
		{name: "revive", usage: "<id>", what: "bring a blade back", min: 1, max: 1, ints: []int{0},
			run: func(s *session, a []string) error { return s.sys.Cluster.ReviveBlade(s.p, int(num(a[0]))) }},
		{name: "faults", usage: "<drop%> <dup%> <delay%> <maxdelay-ms>", what: "inject fabric faults on every link", min: 4, max: 4,
			run: func(s *session, a []string) error {
				var v [4]float64
				for i, arg := range a {
					f, err := strconv.ParseFloat(arg, 64)
					if err != nil || f < 0 || i < 3 && f > 100 {
						return argError(fmt.Sprintf("bad value %q", arg))
					}
					v[i] = f
				}
				plan := simnet.FaultPlan{DropProb: v[0] / 100, DupProb: v[1] / 100, DelayProb: v[2] / 100,
					MaxExtraDelay: sim.Duration(v[3] * float64(sim.Millisecond))}
				s.sys.Cluster.SetFaultPlan(plan)
				return s.say("fault plan: drop %s%% dup %s%% delay %s%% (max +%v) on every fabric link",
					a[0], a[1], a[2], plan.MaxExtraDelay)
			}},
		{name: "faults off", what: "disable fault injection",
			run: func(s *session, _ []string) error {
				s.sys.Cluster.SetFaultPlan(simnet.FaultPlan{})
				return s.say("fault injection disabled")
			}},
		{name: "faildisk", usage: "<group> <idx>", what: "fail a drive", min: 2, max: 2, ints: []int{0, 1},
			run: func(s *session, a []string) error {
				g, d := int(num(a[0])), int(num(a[1]))
				if g >= len(s.sys.Cluster.Groups) {
					return argError(fmt.Sprintf("no group %d", g))
				}
				disks := s.sys.Cluster.Groups[g].Disks()
				if d >= len(disks) {
					return argError(fmt.Sprintf("idx in 0..%d", len(disks)-1))
				}
				disks[d].Fail()
				return nil
			}},
		{name: "rebuild", usage: "<group> <idx>", what: "distributed rebuild", min: 2, max: 2, ints: []int{0, 1},
			run: func(s *session, a []string) error {
				t0 := s.p.Now()
				if err := s.sys.Cluster.DistributedRebuild(s.p, int(num(a[0])), int(num(a[1]))); err != nil {
					return err
				}
				return s.say("rebuild complete in %v", s.p.Now().Sub(t0))
			}},
		{name: "rebalance", what: "even extent load across devices",
			run: func(s *session, _ []string) error {
				moved, err := s.sys.Cluster.Pool.Rebalance(s.p, 2)
				if err != nil {
					return err
				}
				return s.say("moved %d extents; device load now %v", moved, s.sys.Cluster.Pool.DeviceLoad())
			}},
		{name: "rebalance on", what: "arm the home-migration balancer", need: needBalancer,
			run: func(s *session, _ []string) error { s.bal.SetEnabled(true); return s.say("balancer on") }},
		{name: "rebalance off", what: "park the home-migration balancer", need: needBalancer,
			run: func(s *session, _ []string) error { s.bal.SetEnabled(false); return s.say("balancer off") }},
		{name: "rebalance status", what: "balancer switch, thresholds, counters", need: needBalancer,
			run: func(s *session, _ []string) error { return s.say("%s", s.bal.Status()) }},
		{name: "rebalance report", what: "status plus the home-migration log", need: needBalancer,
			run: func(s *session, _ []string) error { return s.indent(s.bal.Report()) }},
		{name: "qos on", what: "enable admission control + fair queueing", need: needQoS,
			run: func(s *session, _ []string) error { s.sys.QoS.SetEnabled(true); return s.say("qos on") }},
		{name: "qos off", what: "disable admission control + fair queueing", need: needQoS,
			run: func(s *session, _ []string) error { s.sys.QoS.SetEnabled(false); return s.say("qos off") }},
		{name: "qos status", what: "switch state, lane weights, bucket count", need: needQoS,
			run: func(s *session, _ []string) error {
				q, state := s.sys.QoS, "off"
				if q.Enabled() {
					state = "on"
				}
				w := q.Weights()
				return s.say("qos: %s, lane weights fg %.3g/%.3g/%.3g/%.3g bg %.3g, %d tenant buckets",
					state, w[0], w[1], w[2], w[3], w[4], len(q.Admission().Stats()))
			}},
		{name: "qos report", what: "tenants, governor, per-lane occupancy", need: needQoS,
			run: func(s *session, _ []string) error { return s.indent(s.sys.QoS.Report()) }},
		{name: "trace on", what: "start per-op tracing",
			run: func(s *session, _ []string) error { s.sys.Tracer.SetEnabled(true); return s.say("tracing on") }},
		{name: "trace off", what: "stop per-op tracing",
			run: func(s *session, _ []string) error { s.sys.Tracer.SetEnabled(false); return s.say("tracing off") }},
		{name: "trace status", what: "span counts per phase so far",
			run: func(s *session, _ []string) error {
				return s.indent(strings.Join(append([]string{s.sys.Tracer.Summary()}, s.sys.Tracer.PhaseCounts()...), "\n  "))
			}},
		{name: "trace export", usage: "<chrome|jsonl> <file>", what: "write the spans as Chrome trace_event JSON or JSONL", min: 2, max: 2,
			run: func(s *session, a []string) error {
				t := s.sys.Tracer
				return s.saveAs(map[string]func(io.Writer) error{"chrome": t.WriteChrome, "jsonl": t.WriteJSONL}, a[0], a[1])
			}},
		{name: "analyze", what: "critical-path budget and tail diagnosis over the traced ops",
			run: func(s *session, _ []string) error {
				a := critpath.FromTracer(s.sys.Tracer)
				s.say("%s", a.Summary())
				if len(a.Ops) == 0 {
					return s.say("no complete op traces — run with `trace on` first")
				}
				if err := a.Check(); err != nil {
					return err
				}
				s.indent(a.BudgetTable("critical-path latency budget").String())
				return s.indent(a.TailTable("tail diagnosis — median vs p99+ ops").String())
			}},
		{name: "analyze folded", usage: "<file>", what: "export the aggregate critical path as flame-graph stacks", min: 1, max: 1,
			run: func(s *session, a []string) error { return s.save(a[0], critpath.FromTracer(s.sys.Tracer).WriteFolded) }},
		{name: "critpath", usage: "[traceid]", what: "render one op's critical path (default: the op-latency p99 exemplar)", max: 1, ints: []int{0},
			run: func(s *session, a []string) error {
				ex, ok := s.sys.Registry.ExemplarFor("cluster/op_latency", 0.99)
				switch {
				case len(a) == 1:
					ex.Trace = uint64(num(a[0]))
				case !ok:
					return errors.New("no op-latency exemplars yet — run traced ops first")
				default:
					s.say("p99 exemplar: trace %d (%.3f ms)", ex.Trace, ex.Value.Millis())
				}
				var buf strings.Builder
				if err := critpath.FromTracer(s.sys.Tracer).RenderPath(&buf, ex.Trace); err != nil {
					return err
				}
				return s.indent(buf.String())
			}},
		{name: "top", what: "one dashboard frame (per-blade load)",
			run: func(s *session, _ []string) error { printTopFrame(s.out, s.sys, 0); return nil }},
		{name: "telemetry status", what: "registry size + scraper coverage",
			run: func(s *session, _ []string) error {
				s.say("registry: %d series", s.sys.Registry.Len())
				if scr := s.sys.Scraper; scr != nil {
					return s.say("scraper: %d scrapes every %v covering %v; %d watchdog events",
						scr.Scrapes(), scr.Interval(), scr.Window(), len(scr.Events()))
				}
				return s.say("scraper: off")
			}},
		{name: "telemetry report", what: "scrape summary + watchdog events", need: needScraper,
			run: func(s *session, _ []string) error { return s.indent(s.sys.Scraper.Report().String()) }},
		{name: "telemetry export", usage: "<prom|jsonl|events> <file>", what: "current values (Prometheus text), scrape timeline or watchdog events", min: 2, max: 2,
			run: func(s *session, a []string) error {
				formats := map[string]func(io.Writer) error{"prom": s.sys.Registry.WriteProm}
				if scr := s.sys.Scraper; scr != nil {
					formats["jsonl"], formats["events"] = scr.WriteJSONL, scr.WriteEventsJSONL
				}
				return s.saveAs(formats, a[0], a[1])
			}},
		{name: "gateway status", what: "object-gateway one-line summary", need: needGateway,
			run: func(s *session, _ []string) error { return s.say("%s", s.sys.Gateway.Status()) }},
		{name: "gateway buckets", what: "bucket table (owner, shard, objects)", need: needGateway,
			run: func(s *session, _ []string) error {
				buckets := s.sys.Gateway.Buckets()
				if len(buckets) == 0 {
					return s.say("no buckets")
				}
				for _, b := range buckets {
					s.say("%-20s owner=%-12s shard=%d objects=%d bytes=%d", b.Name, b.Owner, b.Shard, b.Objects, b.Bytes)
				}
				return nil
			}},
		{name: "gateway report", what: "full three-tier report (iam/meta/data)", need: needGateway,
			run: func(s *session, _ []string) error { return s.indent(s.sys.Gateway.Report()) }},
		{name: "gateway mkbucket", usage: "<tenant> <bucket>", what: "create a bucket as the tenant", min: 2, max: 2, need: needGateway,
			run: asTenant(func(s *session, tok string, a []string) error {
				return s.sys.Gateway.CreateBucket(s.p, tok, a[0], gateway.BucketOptions{Priority: -1})
			})},
		{name: "gateway put", usage: "<tenant> <bucket> <key> <text...>", what: "write an object", min: 4, max: -1, need: needGateway,
			run: asTenant(func(s *session, tok string, a []string) error {
				ver, err := s.sys.Gateway.PutObject(s.p, tok, a[0], a[1], []byte(strings.Join(a[2:], " ")))
				if err != nil {
					return err
				}
				return s.say("put %s/%s: %d bytes, version %d", a[0], a[1], ver.Size, ver.Seq)
			})},
		{name: "gateway get", usage: "<tenant> <bucket> <key>", what: "print an object", min: 3, max: 3, need: needGateway,
			run: asTenant(func(s *session, tok string, a []string) error {
				data, _, err := s.sys.Gateway.GetObject(s.p, tok, a[0], a[1])
				if err != nil {
					return err
				}
				return s.say("%s", data)
			})},
		{name: "gateway ls", usage: "<tenant> <bucket> [prefix]", what: "list objects", min: 2, max: 3, need: needGateway,
			run: asTenant(func(s *session, tok string, a []string) error {
				rows, truncated, err := s.sys.Gateway.ListObjects(s.p, tok, a[0], strings.Join(a[1:], ""), "", 100)
				if err != nil {
					return err
				}
				for _, row := range rows {
					s.say("%-32s %8d bytes  seq %d", row.Key, row.Size, row.Seq)
				}
				if truncated {
					return s.say("... (truncated at 100)")
				}
				return nil
			})},
		{name: "status", what: "system status (with destage blocks per run and the RAID row-write mix)",
			run: func(s *session, _ []string) error { printStatus(s.out, s.sys); return nil }},
		{name: "help", what: "print this table", run: help},
	}
	for i := range commands {
		byName[commands[i].name] = &commands[i]
	}
}
