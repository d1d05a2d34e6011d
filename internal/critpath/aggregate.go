package critpath

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Cohort summarizes the critical-path composition of a latency class of
// ops: how the mean op in the class decomposes per phase.
type Cohort struct {
	Ops      int
	MeanWall sim.Duration
	// Crit is the mean per-op critical time per phase, aligned with
	// trace.Phases (index len(trace.Phases) = unknown phases).
	Crit []sim.Duration

	// Exact sums backing the means above; Share divides these so phase
	// shares tile 100% regardless of per-op integer truncation.
	wallSum sim.Duration
	critSum []sim.Duration
}

// Share returns phase index pi's share of the cohort's wall time, in
// percent (0 for an empty cohort). Shares across phases sum to 100.
func (c Cohort) Share(pi int) float64 {
	if c.wallSum <= 0 {
		return 0
	}
	return 100 * float64(c.critSum[pi]) / float64(c.wallSum)
}

// Cohorts splits the analyzed ops into the median class (wall ≤ p50 of op
// walls) and the tail class (wall ≥ p99) and returns each class's mean
// critical-path composition. The same op-wall quantile convention as
// metrics.Histogram is used (ceil(q·n), exact here since every wall is
// retained). Both cohorts are non-empty whenever any op was analyzed.
func (a *Analysis) Cohorts() (median, tail Cohort) {
	n := len(a.Ops)
	median.critSum = make([]sim.Duration, len(trace.Phases)+1)
	tail.critSum = make([]sim.Duration, len(trace.Phases)+1)
	if n == 0 {
		median.Crit = make([]sim.Duration, len(trace.Phases)+1)
		tail.Crit = make([]sim.Duration, len(trace.Phases)+1)
		return median, tail
	}
	walls := make([]sim.Duration, n)
	for i := range a.Ops {
		walls[i] = a.Ops[i].Wall
	}
	sort.Slice(walls, func(i, j int) bool { return walls[i] < walls[j] })
	p50 := walls[(n+1)/2-1]
	p99 := walls[(99*n+99)/100-1]
	for i := range a.Ops {
		op := &a.Ops[i]
		if op.Wall <= p50 {
			median.Ops++
			median.wallSum += op.Wall
			for pi, d := range op.Crit {
				median.critSum[pi] += d
			}
		}
		if op.Wall >= p99 {
			tail.Ops++
			tail.wallSum += op.Wall
			for pi, d := range op.Crit {
				tail.critSum[pi] += d
			}
		}
	}
	norm := func(c *Cohort) {
		c.Crit = make([]sim.Duration, len(c.critSum))
		if c.Ops == 0 {
			return
		}
		c.MeanWall = c.wallSum / sim.Duration(c.Ops)
		for pi, d := range c.critSum {
			c.Crit[pi] = d / sim.Duration(c.Ops)
		}
	}
	norm(&median)
	norm(&tail)
	return median, tail
}

// phaseName labels phase index pi (indexes past trace.Phases are "other").
func phaseName(pi int) string {
	if pi < len(trace.Phases) {
		return string(trace.Phases[pi])
	}
	return "other"
}

// TailTable renders the tail diagnosis: per phase, the mean critical-path
// contribution to a median op against a p99+ op, and the share shift
// between them — "which stage actually bounded the slow ops, and how does
// the tail's composition differ from the median's".
func (a *Analysis) TailTable(title string) *metrics.Table {
	tab := metrics.NewTable(title,
		"phase", "median ms", "median %", "p99+ ms", "p99+ %", "Δshare pts")
	median, tail := a.Cohorts()
	for pi := range median.Crit {
		if median.Crit[pi] == 0 && tail.Crit[pi] == 0 {
			continue
		}
		tab.AddRow(phaseName(pi),
			fmt.Sprintf("%.3f", median.Crit[pi].Millis()),
			fmt.Sprintf("%.1f", median.Share(pi)),
			fmt.Sprintf("%.3f", tail.Crit[pi].Millis()),
			fmt.Sprintf("%.1f", tail.Share(pi)),
			fmt.Sprintf("%+.1f", tail.Share(pi)-median.Share(pi)))
	}
	tab.AddNote("median cohort %d ops (mean wall %.3f ms), p99+ cohort %d ops (mean wall %.3f ms), of %d analyzed",
		median.Ops, median.MeanWall.Millis(), tail.Ops, tail.MeanWall.Millis(), len(a.Ops))
	if a.Truncated > 0 || a.DroppedUnknown {
		tab.AddNote("excluded %d truncated traces (%d orphan spans, %d rootless); dropped-trace set overflowed: %v",
			a.Truncated, a.Orphans, a.Rootless, a.DroppedUnknown)
	}
	return tab
}

// BudgetTable renders the aggregate per-phase attribution: critical,
// delegated and overlapped time per phase, with critical's share of total
// wall — the op latency budget the regression gate watches.
func (a *Analysis) BudgetTable(title string) *metrics.Table {
	tab := metrics.NewTable(title,
		"phase", "spans", "critical ms", "share %", "delegated ms", "overlap ms")
	for pi, pt := range a.ByPhase {
		if pt.Spans == 0 && pt.Critical == 0 {
			continue
		}
		share := 0.0
		if a.Wall > 0 {
			share = 100 * float64(pt.Critical) / float64(a.Wall)
		}
		tab.AddRow(phaseName(pi),
			fmt.Sprintf("%d", pt.Spans),
			fmt.Sprintf("%.3f", pt.Critical.Millis()),
			fmt.Sprintf("%.1f", share),
			fmt.Sprintf("%.3f", pt.Delegated.Millis()),
			fmt.Sprintf("%.3f", pt.Overlap.Millis()))
	}
	tab.AddNote("%d ops, total wall %.3f ms fully attributed; critical sums tile wall exactly (Check: %v)",
		len(a.Ops), a.Wall.Millis(), a.Check() == nil)
	return tab
}

// WriteFolded writes the aggregate critical path in stacks.folded format —
// one "frame;frame;frame <weight>" line per distinct span-name stack,
// sorted — loadable by any flame-graph tool (weights are nanoseconds of
// virtual time on the critical path, so the flame graph is a sim-time
// latency profile, not a sample profile).
func (a *Analysis) WriteFolded(w io.Writer) error {
	keys := make([]string, 0, len(a.folded))
	for k := range a.folded {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	bw := bufio.NewWriter(w)
	for _, k := range keys {
		if _, err := fmt.Fprintf(bw, "%s %d\n", k, a.folded[k]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Summary returns a one-line description of the analysis for status
// output.
func (a *Analysis) Summary() string {
	return fmt.Sprintf("critpath: %d ops analyzed (wall %.3f ms), %d truncated, %d non-op traces, %d orphan spans",
		len(a.Ops), a.Wall.Millis(), a.Truncated, a.NonOp, a.Orphans)
}

// RenderPath writes one op's critical path as an indented timeline:
// header, then one line per segment with offset, length, phase and span.
func (a *Analysis) RenderPath(w io.Writer, traceID uint64) error {
	op, segs, ok := a.PathFor(traceID)
	if !ok {
		return fmt.Errorf("critpath: trace %d not analyzed (unknown, truncated, or not an op trace)", traceID)
	}
	detail := op.Detail
	if detail != "" {
		detail = " " + detail
	}
	fmt.Fprintf(w, "critical path — trace %d: %s%s @%s, wall %.3f ms (queue %.3f + service %.3f; %.3f ms overlapped off-path)\n",
		op.Trace, op.Name, detail, op.Where, op.Wall.Millis(), op.Queue.Millis(), op.Service.Millis(), op.Overlap.Millis())
	fmt.Fprintf(w, "  %9s %9s  %-10s %s\n", "t+ms", "ms", "phase", "span")
	for _, s := range segs {
		label := s.Name
		if s.Where != "" {
			label += " @" + s.Where
		}
		if s.Detail != "" {
			label += " (" + s.Detail + ")"
		}
		fmt.Fprintf(w, "  %9.3f %9.3f  %-10s %s%s\n",
			s.Start.Sub(op.Start).Millis(), s.Duration().Millis(),
			string(s.Phase), strings.Repeat("  ", s.Depth), label)
	}
	return nil
}
