package main

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/sim"
)

// newHotCacheSystem builds a script-sized system with the hot-key cache
// tier installed as the rebalancing scheme.
func newHotCacheSystem(t *testing.T) *core.System {
	t.Helper()
	sys, err := core.NewSystem(core.Options{
		Blades:    2,
		Rebalance: core.RebalanceHotCache,
		DiskSpec: disk.Spec{
			BlockSize:   4096,
			Blocks:      1 << 12,
			Seek:        5 * sim.Millisecond,
			Rotation:    3 * sim.Millisecond,
			TransferBps: 400_000_000,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Stop)
	return sys
}

// TestRebalanceCommandRoundTrip drives the scheme-independent rebalance
// subcommands against a hotcache-scheme system: status → on → status →
// report → off, checking the printed output and the tier state.
func TestRebalanceCommandRoundTrip(t *testing.T) {
	sys := newHotCacheSystem(t)
	if sys.Rebalancer == nil {
		t.Fatal("hotcache scheme did not install a Rebalancer")
	}
	if !strings.Contains(sys.Rebalancer.Status(), "enabled=false") {
		t.Fatal("hotcache tier should start disabled")
	}
	out, errs := runScript(t, sys,
		"rebalance status",
		"rebalance on",
		"rebalance status",
		"rebalance report",
		"rebalance off",
	)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
	}
	if !strings.Contains(sys.Rebalancer.Status(), "enabled=false") {
		t.Fatal("rebalance off left the tier enabled")
	}
	for _, want := range []string{
		"scheme=hotcache",
		"rebalancer (hotcache) on",
		"rebalancer (hotcache) off",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// The report must be the full multi-line per-scheme report, not just
	// the one-line status.
	if !strings.Contains(out, "node") {
		t.Errorf("rebalance report missing per-node lines:\n%s", out)
	}
}

// TestRebalanceCommandMigrateScheme checks the same subcommands drive the
// migration balancer when that scheme is installed — the script layer is
// scheme-agnostic.
func TestRebalanceCommandMigrateScheme(t *testing.T) {
	sys, err := core.NewSystem(core.Options{
		Blades:    2,
		Rebalance: core.RebalanceMigrate,
		Telemetry: 100 * sim.Millisecond,
		DiskSpec: disk.Spec{
			BlockSize:   4096,
			Blocks:      1 << 12,
			Seek:        5 * sim.Millisecond,
			Rotation:    3 * sim.Millisecond,
			TransferBps: 400_000_000,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Stop)
	out, errs := runScript(t, sys,
		"rebalance status",
		"rebalance off",
		"rebalance on",
	)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
	}
	if !strings.Contains(out, "scheme=migrate") {
		t.Errorf("output missing scheme=migrate:\n%s", out)
	}
	if !strings.Contains(sys.Rebalancer.Status(), "enabled=true") {
		t.Error("rebalance on left the migration balancer disabled")
	}
}

// TestRebalanceCommandNoScheme: with no scheme installed the subcommands
// fail loudly, while bare `rebalance` keeps its legacy pool meaning.
func TestRebalanceCommandNoScheme(t *testing.T) {
	sys := newScriptSystem(t, false)
	if sys.Rebalancer != nil {
		t.Fatal("plain script system should have no Rebalancer")
	}
	_, errs := runScript(t, sys,
		"rebalance on",
		"rebalance",
	)
	if errs[0] == nil || !strings.Contains(errs[0].Error(), "no rebalancing scheme") {
		t.Errorf("rebalance on without a scheme: got %v, want scheme error", errs[0])
	}
	if errs[1] != nil {
		t.Errorf("bare rebalance (legacy pool spread) failed: %v", errs[1])
	}
}

// TestRebalanceCommandBadArgs rejects unknown subcommands with usage.
func TestRebalanceCommandBadArgs(t *testing.T) {
	sys := newHotCacheSystem(t)
	_, errs := runScript(t, sys, "rebalance sideways")
	if errs[0] == nil || !strings.Contains(errs[0].Error(), "usage: rebalance") {
		t.Errorf("rebalance sideways: got %v, want usage error", errs[0])
	}
}
