package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/sim"
)

// benchmarkFile is BENCHMARK.json as far as the smoke test reads it.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []specMetric `json:"end_to_end"`
	PerLayer  []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name, Unit, Better string
	Bound              float64
}

// smoke shrinks a run for the test: 1/50 of the reference ops and 1/16 of
// the data (a quarter of both again under -short, which is how the race
// detector's pass runs), one iteration per layer driver, four timed slices,
// span files in a scratch directory.
func smoke(t *testing.T) sizing {
	t.Helper()
	dataScale, layerBenchTime, traceDir, hostChunks = 1.0/16, "1x", t.TempDir(), 4
	sz := sizing{ops: 1.0 / 50, data: dataScale}
	if testing.Short() {
		dataScale /= 4
		sz = sizing{ops: sz.ops / 4, data: dataScale}
	}
	return sz
}

// TestSmoke holds the program to BENCHMARK.json: each workload prints every
// metric named there exactly once with its unit and no other, the result
// lines carry exactly the end-to-end and the per-layer names, and nothing
// fails. The per-layer run is also the determinism check: it runs one seed
// twice, untraced and traced, and fails unless the two agree exactly on
// every sim_* metric and boundary count.
func TestSmoke(t *testing.T) {
	sz := smoke(t)
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkFile
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	units := map[string]string{}
	e2e, layer := map[string]bool{}, map[string]bool{}
	for _, m := range spec.EndToEnd {
		units[m.Name], e2e[m.Name] = m.Unit, true
	}
	for _, m := range spec.PerLayer {
		units[m.Name], layer[m.Name] = m.Unit, true
	}
	if len(units) != len(spec.EndToEnd)+len(spec.PerLayer) {
		t.Fatal("BENCHMARK.json names a metric twice")
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	// The program's own tables say the same as the file, in the same order.
	for _, pair := range []struct {
		file []specMetric
		defs []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(pair.file) != len(pair.defs) {
			t.Fatalf("BENCHMARK.json lists %d metrics where the program has %d", len(pair.file), len(pair.defs))
		}
		for i, d := range pair.defs {
			if got := (metricDef{pair.file[i].Name, pair.file[i].Unit, pair.file[i].Better, pair.file[i].Bound}); got != d {
				t.Errorf("BENCHMARK.json has %+v where the program has %+v", got, d)
			}
		}
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	drivers := runLayerDrivers()

	// checkOutput parses one run's standard output. printsAll says whether
	// the run prints every metric (-trace 1) or the end-to-end ones and
	// the boundary counts (-trace 0); want names its result line's metrics.
	checkOutput := func(t *testing.T, out string, printsAll bool, want map[string]bool) {
		t.Helper()
		lines := strings.Split(strings.TrimSpace(out), "\n")
		seen := map[string]int{}
		for _, line := range lines[:len(lines)-1] {
			if strings.HasPrefix(line, "#") {
				continue
			}
			f := strings.Fields(line)
			if len(f) != 3 {
				t.Fatalf("not a metric line: %q", line)
			}
			seen[f[0]]++
			switch {
			case !nameRE.MatchString(f[0]):
				t.Errorf("metric name %q", f[0])
			case units[f[0]] == "":
				t.Errorf("metric %s is printed but not named in BENCHMARK.json", f[0])
			case units[f[0]] != f[2]:
				t.Errorf("metric %s printed in %s, BENCHMARK.json says %s", f[0], f[2], units[f[0]])
			}
		}
		for name := range units {
			if n := seen[name]; n > 1 || (n == 0 && (printsAll || e2e[name])) {
				t.Errorf("metric %s printed %d times", name, n)
			}
		}
		var res resultLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("result line: %v", err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("result line has %d metrics, want %d", len(res.Metrics), len(want))
		}
		for name, m := range res.Metrics {
			if !want[name] || m.Unit != units[name] {
				t.Errorf("result line metric %s (%s)", name, m.Unit)
			}
		}
	}

	for _, w := range spec.Workloads {
		def, ok := findWorkload(w.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json names workload %q, the program has none", w.Name)
		}
		t.Run(w.Name+"/per-layer", func(t *testing.T) {
			var out bytes.Buffer
			if err := perLayerRun(&out, def, 1, sz, drivers); err != nil {
				t.Fatal(err)
			}
			checkOutput(t, out.String(), true, layer)
		})
		t.Run(w.Name+"/end-to-end", func(t *testing.T) {
			// The per-layer run printed every metric of this workload
			// already; the race detector's pass checks the end-to-end
			// result line on two workloads, the full pass on all four.
			if testing.Short() && !strings.HasPrefix(w.Name, "block-") {
				t.Skip("short: end-to-end result line checked on the block workloads")
			}
			var out bytes.Buffer
			if err := endToEndRun(&out, def, 1, sz); err != nil {
				t.Fatal(err)
			}
			checkOutput(t, out.String(), false, e2e)
		})
	}
}

func TestCommandLine(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "no-such-workload"},
		{"-workload", "block-mixed", "-trace", "2"},
		{"-workload", "block-mixed", "-seconds", "0"},
		{"-workload", "block-mixed", "stray"},
		{},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("bench %v: exit %d with %d bytes on stdout, want a usage error (2) and no result", args, code, out.Len())
		}
	}
}

func TestPercentileNeverReportsTheLastTenSamples(t *testing.T) {
	sorted := sortedCopy(nil)
	for i := 1; i <= 200; i++ {
		sorted = append(sorted, sim.Duration(i))
	}
	if v, q := percentile(sorted, 0.99); v != 190 || q != 0.95 {
		t.Errorf("p99 of 200 samples = %v at q=%v, want the 190th (q=0.95): ten samples must lie beyond", v, q)
	}
	if v, _ := percentile(sorted, 0.50); v != 100 {
		t.Errorf("p50 of 1..200 = %v, want 100 (nearest rank)", v)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	got := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if want := [3]float64{3.5, 13.5, 31}; got != want {
		t.Errorf("quartiles = %v, want %v", got, want)
	}
}

func TestAckTrackerFlagsStaleAndLostValues(t *testing.T) {
	tr := newAckTracker(1)
	if err := tr.check(0, prefillStamp, tr.ackedBegin[0]); err != nil {
		t.Errorf("prefill before any write: %v", err)
	}
	w1 := tr.issue(1, 0, 1, 0)
	tr.ack(w1)
	w2 := tr.issue(2, 0, 1, 0) // concurrent with the read below
	floor := tr.ackedBegin[0]
	for stamp, wantOK := range map[uint64]bool{prefillStamp: false, 1: true, 2: true, 3: false} {
		if err := tr.check(0, stamp, floor); (err == nil) != wantOK {
			t.Errorf("read after w1 acked, w2 in flight, returns %#x: err=%v, want ok=%v", stamp, err, wantOK)
		}
	}
	tr.ack(w2)
	if err := tr.check(0, 1, tr.maxBegin[0]); err == nil {
		t.Error("w1's value after w2 was acknowledged is a lost write, not flagged")
	}
}
