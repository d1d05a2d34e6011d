package experiments

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/coherence"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/gateway"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// costDur prints a charge as DESIGN.md's cost table does: whole
// milliseconds or microseconds.
func costDur(d sim.Duration) string {
	if d >= sim.Millisecond && d%sim.Millisecond == 0 {
		return fmt.Sprintf("%d ms", d/sim.Millisecond)
	}
	return fmt.Sprintf("%d µs", d/sim.Microsecond)
}

// costRate prints a link or media rate in whole Gb/s or Mb/s.
func costRate(bps int64) string {
	if bps%1_000_000_000 == 0 {
		return fmt.Sprintf("%d Gb/s", bps/1_000_000_000)
	}
	return fmt.Sprintf("%d Mb/s", bps/1_000_000)
}

// costRows renders DESIGN.md §21's table of virtual-time charges from the
// live defaults: charge, default, unit, and the one place it is set.
func costRows() []string {
	def := controller.DefaultConfig()
	drive := disk.DefaultSpec()
	k := sim.NewKernel(1)
	defer k.Close()
	arr, err := baseline.New(k, def)
	if err != nil {
		panic(err)
	}
	rows := [][4]string{
		{"`OpDelay`", costDur(def.OpDelay), "per block, on a blade's CPU", "`controller.DefaultConfig`"},
		{"lab `OpDelay`", costDur(clusterConfig(2).OpDelay), "per block, in every experiment lab and the E2/E3 array", "`experiments.clusterConfig`"},
		{"`HandlerDelay`", costDur(coherence.HandlerDelay), "per coherence message, and per key of a vector message", "`coherence.HandlerDelay`"},
		{"`CPUSlots`", fmt.Sprint(coherence.BladeConfig{}.WithDefaults().CPUSlots), "charges at once per blade or array controller", "`coherence.BladeConfig.WithDefaults`"},
		{"drive seek", costDur(drive.Seek), "per non-sequential access", "`disk.DefaultSpec`"},
		{"drive rotation", costDur(drive.Rotation), "per non-sequential access", "`disk.DefaultSpec`"},
		{"drive media rate", costRate(drive.TransferBps), "per byte", "`disk.DefaultSpec`"},
		{"FC2G fabric link", costRate(simnet.FC2G.BandwidthBps) + ", " + costDur(simnet.FC2G.Latency), "per byte, and per message", "`simnet.FC2G`"},
		{"WAN link", costRate(core.WANBps), "per byte, plus the federation's one-way delay per message", "`core.WANBps`"},
		{"`MetaOpTime`", costDur(gateway.DefaultMetaOpTime), "per bucket-index op, serial per shard", "`gateway.DefaultMetaOpTime`"},
		{"`IAMLatency`", costDur(gateway.IAMLatency), "per token check or bucket authorization", "`gateway.IAMLatency`"},
		{"`CloneComputePerExtent`", costDur(controller.CloneComputePerExtent), "per extent copied, on the copying blade", "`controller.CloneComputePerExtent`"},
		{"`RebuildComputePerChunk`", costDur(controller.RebuildComputePerChunk), "per chunk rebuilt, on the rebuilding blade", "`controller.RebuildComputePerChunk`"},
		{"baseline mirror", costDur(arr.MirrorCharge()), "per block written, on the partner controller (`OpDelay/2`)", "`baseline.Array.MirrorCharge`"},
	}
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = "| " + strings.Join(r[:], " | ") + " |"
	}
	return out
}

// TestCostTableMatchesDesign holds DESIGN.md §21's table of virtual-time
// charges to the code: every row must read as costRows renders it.
func TestCostTableMatchesDesign(t *testing.T) {
	raw, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, sec, ok := strings.Cut(string(raw), "\n## 21. ")
	if !ok {
		t.Fatal("DESIGN.md has no §21")
	}
	doc := map[string]string{}
	var order []string
	for _, line := range strings.Split(sec, "\n") {
		if strings.HasPrefix(line, "## ") {
			break
		}
		if !strings.HasPrefix(line, "| ") || strings.HasPrefix(line, "| charge ") {
			continue
		}
		key, _, _ := strings.Cut(line[2:], " | ")
		doc[key] = line
		order = append(order, key)
	}
	want := map[string]bool{}
	for _, row := range costRows() {
		key, _, _ := strings.Cut(row[2:], " | ")
		want[key] = true
		if got, ok := doc[key]; !ok {
			t.Errorf("row %s missing from DESIGN.md §21; the code renders:\n%s", key, row)
		} else if got != row {
			t.Errorf("row %s differs:\nDESIGN.md: %s\ncode:      %s", key, got, row)
		}
	}
	for _, key := range order {
		if !want[key] {
			t.Errorf("DESIGN.md §21 row %s names no charge the code renders", key)
		}
	}
}
