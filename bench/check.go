package main

import (
	"fmt"
	"io"
	"sort"
)

// diffValues names the first metric on which a and b differ in any bit, or
// returns "" when they agree exactly.
func diffValues(a, b values) string {
	names := make([]string, 0, len(a))
	for n := range a {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if a[n] != b[n] {
			return fmt.Sprintf("%s: %v != %v", n, a[n], b[n])
		}
	}
	if len(a) != len(b) {
		return fmt.Sprintf("%d metrics != %d metrics", len(a), len(b))
	}
	return ""
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (the driver's spread measure).
func quartiles(xs []float64) (q [3]float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return q
	}
	for i := 1; i <= 3; i++ {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// checkSeeds are the seeds of the cross-seed table; holdOutSeed is never
// used for sizing or for setting a bound, and is shown beside them.
var checkSeeds = []int64{1, 2, 3, 4, 5}

const holdOutSeed = 7

// check is -check for one workload: a same-seed rerun and a traced run
// must reproduce every virtual-clock metric and boundary count bit for
// bit, and a table over seeds 1-5 shows each sim_* metric's spread (the
// quartile distance over the median) — the number that sets the
// sim_p99_ms bound in BENCHMARK.json.
func check(out io.Writer, w workloadDef, seed int64, sz sizing) error {
	header(out, w, seed, sz, "check")
	var first *runResult
	for _, leg := range []struct {
		name   string
		traced bool
	}{{"first run", false}, {"same-seed rerun", false}, {"traced run", true}} {
		r, err := runWorkload(w, seed, sz, tracedFrac, leg.traced)
		if err != nil {
			return err
		}
		describe(out, leg.name, r)
		if !r.correct() {
			return fmt.Errorf("%s: verification failed: %s", w.name, r.firstErr)
		}
		if first == nil {
			first = r
			continue
		}
		for _, d := range []string{
			diffValues(first.simMetrics(), r.simMetrics()),
			diffValues(first.boundary, r.boundary),
		} {
			if d != "" {
				return fmt.Errorf("%s: %s differs from the first: %s", w.name, leg.name, d)
			}
		}
		fmt.Fprintf(out, "# %s: sim_* metrics and boundary counts bit-identical to the first\n", leg.name)
	}

	sims := []string{"sim_ops_per_s", "sim_mb_per_s", "sim_p50_ms", "sim_p99_ms"}
	fmt.Fprintf(out, "%-8s", "seed")
	for _, n := range sims {
		fmt.Fprintf(out, " %16s", n)
	}
	fmt.Fprintln(out)
	cols := make(map[string][]float64)
	for _, s := range append(append([]int64(nil), checkSeeds...), holdOutSeed) {
		r, err := runWorkload(w, s, sz, 1, false)
		if err != nil {
			return err
		}
		if !r.correct() {
			return fmt.Errorf("%s: seed %d: verification failed: %s", w.name, s, r.firstErr)
		}
		label := fmt.Sprint(s)
		if s == holdOutSeed {
			label += " (held)"
		}
		fmt.Fprintf(out, "%-8s", label)
		v := r.simMetrics()
		for _, n := range sims {
			fmt.Fprintf(out, " %16.6g", v[n])
			if s != holdOutSeed {
				cols[n] = append(cols[n], v[n])
			}
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintf(out, "%-8s", "iqr/med")
	for _, n := range sims {
		q := quartiles(cols[n])
		fmt.Fprintf(out, " %15.2f%%", 100*(q[2]-q[0])/q[1])
	}
	fmt.Fprintln(out)
	return nil
}
