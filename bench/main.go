// Command bench is the repository's two-clock benchmark: four closed-loop
// workloads against the real assembly, each measured end to end on the
// virtual and on the host clock, with a per-layer budget beneath them.
// README.md in this directory is the glossary; BENCHMARK.json at the root
// of the repository is the contract a later change is held to.
//
//	go run ./bench -workload block-mixed            end-to-end metrics
//	go run ./bench -workload block-mixed -trace 1   per-layer metrics
//	go run ./bench -all                             one process per workload
//	go run ./bench -check                           determinism and seed spread
//	go run ./bench -layers                          the layer drivers alone
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"time"
)

func main() {
	// The simulation is serial by construction: one proc runs at a time, so
	// a run is one core plus GC. On one P every handoff between the kernel
	// and a proc stays on one thread; on two the runtime may wake the other
	// core for it, and on this 2-core sandbox that made the same run take
	// anything between 1 and 1.5 times as long. The command therefore pins
	// GOMAXPROCS to 1 (GOGC stays at its default) and prints both.
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options is one invocation's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	all      bool
	check    bool
	layers   bool
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run: block-mixed, block-read-hot, pfs-stream or object-mixed")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the kernel and of every per-client generator")
	fs.Float64Var(&o.seconds, "seconds", 10, "nominal host seconds of the measure phase; op counts scale with it")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics (layer drivers, boundary counts, traced run)")
	fs.BoolVar(&o.all, "all", false, "run every workload, one child process each")
	fs.BoolVar(&o.check, "check", false, "check same-seed and traced-run determinism and print the cross-seed table")
	fs.BoolVar(&o.layers, "layers", false, "run only the layer drivers")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.seconds <= 0 || (o.trace != 0 && o.trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive, -trace 0 or 1, and there are no positional arguments")
		return 2
	}
	var err error
	switch {
	case o.all:
		err = runAll(o, stdout, stderr)
	case o.layers:
		err = printMetrics(stdout, layerDefs, runLayerDrivers())
	default:
		var picked []workloadDef
		if w, ok := findWorkload(o.workload); ok {
			picked = []workloadDef{w}
		} else if o.check && o.workload == "" {
			picked = workloads
		} else {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", o.workload)
			return 2
		}
		sz := sizing{ops: o.seconds / refSeconds, data: dataScale}
		for _, w := range picked {
			switch {
			case o.check:
				err = check(stdout, w, o.seed, sz)
			case o.trace == 1:
				err = perLayerRun(stdout, w, o.seed, sz, runLayerDrivers())
			default:
				err = endToEndRun(stdout, w, o.seed, sz)
			}
			if err != nil {
				break
			}
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// runAll runs every workload in a child process of its own, so peak RSS is
// per workload and nothing one system leaves behind reaches the next.
func runAll(o options, stdout, stderr io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var failed error
	for _, w := range workloads {
		cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(o.seed),
			"-seconds", fmt.Sprint(o.seconds), "-trace", fmt.Sprint(o.trace))
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil && failed == nil {
			failed = fmt.Errorf("%s: %w", w.name, err)
		}
	}
	return failed
}

// setupRepeats and setupBudget bound how often a run sets up: setup_s is
// the median of up to three set-ups, as many as start within the budget
// (always at least the one the measure phase runs on).
const (
	setupRepeats = 3
	setupBudget  = 10 * time.Second
)

func header(w io.Writer, wl workloadDef, seed int64, sz sizing, mode string) {
	fmt.Fprintf(w, "# bench %s: workload=%s seed=%d %s GOMAXPROCS=%d GOGC=%d\n",
		mode, wl.name, seed, runtime.Version(), runtime.GOMAXPROCS(0), gogc())
	fmt.Fprintf(w, "# why: %s\n", wl.why)
	fmt.Fprintf(w, "# sizing: %d clients closed loop, warm %d ops, measure %d ops (%d x %.4g)\n",
		wl.clients, sz.warmOps(wl), sz.measureOps(wl), wl.measOps, sz.ops)
}

func gogc() int {
	old := debug.SetGCPercent(100)
	debug.SetGCPercent(old)
	return old
}

// describe prints the informational lines of one run.
func describe(w io.Writer, label string, r *runResult) {
	sorted := sortedCopy(r.load.lat)
	_, q := percentile(sorted, 0.99)
	fmt.Fprintf(w, "# %s: set-up %.3f s; %d ops in %.3f s host, %.3f virtual s; percentiles over n=%d (tail at q=%.4f)\n",
		label, r.setup.wall.Seconds(), r.ops, r.load.host.Seconds(), r.load.virt.Seconds(), len(sorted), q)
	fmt.Fprintf(w, "# %s: host us/op %.4g as the wall clock read it, %.4g normalised by the yardstick\n",
		label, float64(r.load.host.Microseconds())/float64(r.ops), float64(r.load.hostNorm.Microseconds())/float64(r.ops))
	fmt.Fprintf(w, "# %s: failed_ops=%d lost_acked_writes=%d failed_frac=%g goroutines_after_close=%d\n",
		label, r.load.failed, r.lost, float64(r.failed())/float64(r.ops), r.goroutines)
	if r.traceNote != "" {
		fmt.Fprintf(w, "# %s: %s\n", label, r.traceNote)
	}
	if r.firstErr != "" {
		fmt.Fprintf(w, "# %s: first error: %s\n", label, r.firstErr)
	}
}

// endToEndRun is -trace 0: one full untraced run, then further set-ups for
// the median setup_s. Peak RSS is read before those, so it is the run's own.
func endToEndRun(out io.Writer, w workloadDef, seed int64, sz sizing) error {
	header(out, w, seed, sz, "end-to-end")
	t0 := time.Now()
	r, err := runWorkload(w, seed, sz, 1, false)
	if err != nil {
		return err
	}
	setups, walls := []float64{r.setup.normalised.Seconds()}, []float64{r.setup.wall.Seconds()}
	spent := r.setup.wall
	for len(setups) < setupRepeats && spent < setupBudget {
		in, d, err := setUp(w, seed, sz, false)
		if err != nil {
			return err
		}
		in.close()
		setups, walls = append(setups, d.normalised.Seconds()), append(walls, d.wall.Seconds())
		spent += d.wall
	}
	describe(out, "run", r)
	fmt.Fprintf(out, "# set-ups: %.3f s as the wall clock read them, %.3f s normalised; whole run %.1f s\n",
		walls, setups, time.Since(t0).Seconds())
	v := r.endToEndMetrics()
	v["setup_s"] = median(setups)
	if err := printMetrics(out, endToEnd, v); err != nil {
		return err
	}
	fmt.Fprintln(out, "# boundary counts of this run (per-layer; the result line of -trace 1 carries them)")
	if err := printMetrics(out, boundaryDefs, r.boundary); err != nil {
		return err
	}
	if err := printResult(out, r.correct(), r.ops, r.failed(), endToEnd, v); err != nil {
		return err
	}
	if !r.correct() {
		return fmt.Errorf("%s: verification failed: %s", w.name, r.firstErr)
	}
	return nil
}

// tracedFrac is the share of the measure ops a traced run and its untraced
// twin issue.
const tracedFrac = 0.25

// perLayerRun is -trace 1: the layer drivers' values (the same under every
// workload), then the same seed twice over the first quarter of the measure
// ops, untraced (boundary counts) and traced (virtual-clock budget). The
// two must agree exactly on every virtual-clock number: tracing and the
// BlockIO wrapper move no event.
func perLayerRun(out io.Writer, w workloadDef, seed int64, sz sizing, drivers values) error {
	header(out, w, seed, sz, "per-layer")
	v := values{}
	v.merge(drivers)
	plain, err := runWorkload(w, seed, sz, tracedFrac, false)
	if err != nil {
		return err
	}
	describe(out, "untraced", plain)
	traced, err := runWorkload(w, seed, sz, tracedFrac, true)
	if err != nil {
		return err
	}
	describe(out, "traced", traced)
	v.merge(plain.boundary)
	v.merge(traced.traced)
	v["trace.host_overhead_pct"] = 100 * (traced.load.hostNorm.Seconds() - plain.load.hostNorm.Seconds()) / plain.load.hostNorm.Seconds()

	e2e := plain.endToEndMetrics()
	e2e["setup_s"] = plain.setup.normalised.Seconds()
	fmt.Fprintf(out, "# end-to-end metrics of the untraced leg (%g of a full run; -trace 0 gives the reference values)\n", tracedFrac)
	if err := printMetrics(out, endToEnd, e2e); err != nil {
		return err
	}
	if err := printMetrics(out, perLayer, v); err != nil {
		return err
	}
	diff := diffValues(plain.simMetrics(), traced.simMetrics())
	if diff == "" {
		diff = diffValues(plain.boundary, traced.boundary)
	}
	correct := plain.correct() && traced.correct() && diff == ""
	if err := printResult(out, correct, plain.ops+traced.ops, plain.failed()+traced.failed(), perLayer, v); err != nil {
		return err
	}
	switch {
	case diff != "":
		return fmt.Errorf("%s: traced run differs from untraced: %s", w.name, diff)
	case !correct:
		return fmt.Errorf("%s: verification failed: %s%s", w.name, plain.firstErr, traced.firstErr)
	}
	return nil
}
