// Command benchsplit splits the span file of a traced benchmark run by
// outer op: for each op name it prints the op count, p50, p90 and p99 of
// the op's virtual wall time, the mean time inside the controller (the union
// of the op's pfs→controller boundary spans, or the whole op where the outer
// call is the controller) and outside it, and then each tracer span kind's
// count and summed time per op, over all the ops of the name and over their
// slowest 1 %, longest first. With -by kind, ops of one name split further
// by how many spans of that kind they have (-by replicate: by the blocks a
// write wrote). Run it from the module root on a file a `--trace 1` run
// wrote:
//
//	bash bench/run.sh --workload object-mixed --seed 1 --trace 1
//	go run ./scripts/benchsplit -by replicate bench/out/object-mixed.trace.jsonl
//
// or both at once with `make bench-split WORKLOAD=object-mixed SEED=1 BY=replicate`.
// Times are virtual milliseconds. A tracer span counts toward the op its
// controller op belongs to, including the spans of the RPC handlers it
// reached (an owner's destage inside `coh.invm`, say); background work no
// op started (the flusher) belongs to none.
package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"text/tabwriter"
)

// span is one line of the file, as bench/spans.go writes it.
type span struct {
	Src    string `json:"src"`
	Op     uint64 `json:"op"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	VStart int64  `json:"vstart"`
	VEnd   int64  `json:"vend"`
}

func (s span) dur() int64 { return s.VEnd - s.VStart }

// op is one outer op with the spans that belong to it.
type op struct {
	outer    span
	boundary []span // bench spans at the pfs→controller boundary
	tracer   []span
}

// inside returns the time of the op covered by its boundary spans: their
// union, or the whole op when it has none because it is the controller.
func (o *op) inside() int64 {
	if o.outer.Layer == "controller" {
		return o.outer.dur()
	}
	kids := slices.Clone(o.boundary)
	slices.SortFunc(kids, func(a, b span) int { return cmp.Compare(a.VStart, b.VStart) })
	var union int64
	at := o.outer.VStart
	for _, k := range kids {
		at = max(at, k.VStart)
		if k.VEnd > at {
			union += k.VEnd - at
			at = k.VEnd
		}
	}
	return union
}

func main() {
	by := flag.String("by", "", "split each op name by its count of this tracer span kind")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: benchsplit [-by kind] <workload>.trace.jsonl")
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsplit:", err)
		os.Exit(1)
	}
	defer f.Close()
	ops, err := read(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsplit:", err)
		os.Exit(1)
	}
	report(os.Stdout, ops, *by)
}

// read groups the file's spans under their outer ops.
func read(r io.Reader) ([]*op, error) {
	byID := make(map[uint64]*op)
	var ops []*op
	var rest []span
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			return nil, err
		}
		if s.Src == "bench" && s.Parent == 0 {
			o := &op{outer: s}
			byID[s.Op] = o
			ops = append(ops, o)
		} else {
			rest = append(rest, s)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, s := range rest {
		o := byID[s.Op]
		switch {
		case o == nil: // no op started it
		case s.Src == "bench":
			o.boundary = append(o.boundary, s)
		default:
			o.tracer = append(o.tracer, s)
		}
	}
	return ops, nil
}

func ms(ns float64) string { return fmt.Sprintf("%.3f", ns/1e6) }

// key names o's group: its name, and with by its count of by spans.
func (o *op) key(by string) string {
	if by == "" {
		return o.outer.Name
	}
	n := 0
	for _, s := range o.tracer {
		if s.Name == by {
			n++
		}
	}
	return fmt.Sprintf("%s %s=%d", o.outer.Name, by, n)
}

// report prints one table of every group of ops, then one per group of the
// span kinds of all its ops and of its slowest 1 %.
func report(w io.Writer, ops []*op, by string) {
	groups := make(map[string][]*op)
	var names []string
	for _, o := range ops {
		k := o.key(by)
		if groups[k] == nil {
			names = append(names, k)
		}
		groups[k] = append(groups[k], o)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "op\tn\tp50 ms\tp90 ms\tp99 ms\tin controller ms\toutside ms\t")
	for _, name := range names {
		group := groups[name]
		slices.SortStableFunc(group, func(a, b *op) int { return cmp.Compare(a.outer.dur(), b.outer.dur()) })
		q := func(f float64) string { return ms(float64(group[int(f*float64(len(group)-1))].outer.dur())) }
		var in, out float64
		for _, o := range group {
			i := float64(o.inside())
			in += i
			out += float64(o.outer.dur()) - i
		}
		n := float64(len(group))
		fmt.Fprintf(tw, "%s\t%d\t%s\t%s\t%s\t%s\t%s\t\n", name, len(group), q(0.5), q(0.9), q(0.99), ms(in/n), ms(out/n))
	}
	tw.Flush()
	for _, name := range names {
		group := groups[name]
		slow := group[len(group)-max(1, len(group)/100):]
		all, tail := kinds(group), kinds(slow)
		var order []string
		for k := range tail {
			order = append(order, k)
		}
		for k := range all {
			if _, ok := tail[k]; !ok {
				order = append(order, k)
			}
		}
		slices.SortFunc(order, func(a, b string) int {
			return cmp.Or(cmp.Compare(tail[b][1], tail[a][1]), cmp.Compare(all[b][1], all[a][1]), cmp.Compare(a, b))
		})
		fmt.Fprintf(w, "\n%s: tracer spans per op, all %d ops and the slowest %d (≥ %s ms)\n", name, len(group), len(slow), ms(float64(slow[0].outer.dur())))
		tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
		fmt.Fprintln(tw, "span\tcount\tms\tslowest count\tslowest ms\t")
		na, nt := float64(len(group)), float64(len(slow))
		for _, k := range order {
			fmt.Fprintf(tw, "%s\t%.1f\t%s\t%.1f\t%s\t\n", k, all[k][0]/na, ms(all[k][1]/na), tail[k][0]/nt, ms(tail[k][1]/nt))
		}
		tw.Flush()
	}
}

// kinds sums ops' tracer spans by name: their count and their time.
func kinds(ops []*op) map[string][2]float64 {
	out := make(map[string][2]float64)
	for _, o := range ops {
		for _, s := range o.tracer {
			k := out[s.Name]
			out[s.Name] = [2]float64{k[0] + 1, k[1] + float64(s.dur())}
		}
	}
	return out
}
