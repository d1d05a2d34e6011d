// Command benchrunner regenerates every table and figure of the
// reproduction (E1–E16, CP1–CP2 and the A1–A4 ablations in
// DESIGN.md/EXPERIMENTS.md) and prints them as plain-text tables. Its
// runners table is the one list of experiments.
//
// Usage:
//
//	benchrunner [-seed N] [-only E4,E13Q] [-list]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/metrics"
)

var runners = []struct {
	name string
	desc string
	fn   func(int64) *metrics.Table
}{
	{"E1", "Figure 1 / §2.3: single-stream rate vs striped blades", experiments.E1},
	{"E2", "§2.1: aggregate throughput scaling vs controllers", experiments.E2},
	{"E3", "§2.2: hot-spot behaviour under Zipf access", experiments.E3},
	{"E4", "§2.4: distributed rebuild", experiments.E4},
	{"E5", "§3: DMSD thin provisioning", experiments.E5},
	{"E6", "§6.1: N-way write replication", experiments.E6},
	{"E7", "§7.1: remote first touch and prefetch", experiments.E7},
	{"E8", "§7.2: sync vs async geographic replication", experiments.E8},
	{"E9", "§8.1: encryption at wire speed by parallelism", experiments.E9},
	{"E10", "§6.3: availability through blade failures", experiments.E10},
	{"E11", "§6.3: availability under a lossy fabric", experiments.E11},
	{"E12", "§2.2/§6.3: adaptive hot-spot rebalancing", experiments.E12},
	{"E13", "§2.4/§4: multi-tenant QoS isolation under rebuild", experiments.E13},
	{"E13Q", "reduced-scale QoS isolation smoke (CI)", experiments.E13Q},
	{"E14", "governor step response: halve/double vs per-tenant PI control", experiments.E14},
	{"E14Q", "reduced-scale governor step-response smoke (CI)", experiments.E14Q},
	{"E15", "hot-key cache tier vs home migration under shifting Zipf skew", experiments.E15},
	{"E15Q", "reduced-scale cache-tier crossover smoke (CI)", experiments.E15Q},
	{"E16", "object gateway: metadata sharding moves the saturation ceiling", experiments.E16},
	{"E16Q", "reduced-scale gateway shard-scaling smoke (CI)", experiments.E16Q},
	{"CP1", "critical-path tail diagnosis: canonical workload", experiments.CP1},
	{"CP2", "critical-path tail diagnosis: E14 PI arm under scrub load", experiments.CP2},
	{"A1", "ablation: remote-read prefetch on/off", experiments.A1Prefetch},
	{"A2", "ablation: cache-to-cache transfers on/off", experiments.A2PeerFetch},
	{"A3", "ablation: write latency vs replication factor", experiments.A3ReplicationCost},
	{"A4", "ablation: sequential readahead on/off", experiments.A4ReadAhead},
}

func main() {
	seed := flag.Int64("seed", 1, "simulation seed")
	only := flag.String("only", "", "comma-separated experiment ids (e.g. E1,E4); empty = all")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	if *list {
		for _, r := range runners {
			fmt.Printf("%-4s %s\n", r.name, r.desc)
		}
		return
	}

	want, err := selectRunners(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, r := range runners {
		if len(want) > 0 && !want[r.name] {
			continue
		}
		fmt.Printf("\n# %s — %s\n", r.name, r.desc)
		r.fn(*seed).Render(os.Stdout)
	}
}

// selectRunners parses -only into the set of experiment ids to run (empty
// = all) and rejects any id the runners table does not hold, before
// anything runs.
func selectRunners(only string) (map[string]bool, error) {
	want := map[string]bool{}
	if only == "" {
		return want, nil
	}
	known := map[string]bool{}
	for _, r := range runners {
		known[r.name] = true
	}
	for _, id := range strings.Split(only, ",") {
		id = strings.ToUpper(strings.TrimSpace(id))
		if !known[id] {
			return nil, fmt.Errorf("unknown experiment %q (see -list)", id)
		}
		want[id] = true
	}
	return want, nil
}
