package main

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// newBalancerSession is a script session on a scraped system, so the
// session attaches the migration balancer, parked.
func newBalancerSession(t *testing.T) *session {
	t.Helper()
	s := newScriptSession(t, core.Options{Telemetry: 100 * sim.Millisecond})
	if s.bal == nil {
		t.Fatal("a scraped system's session attached no balancer")
	}
	return s
}

// TestRebalanceCommandRoundTrip drives the balancer subcommands: status →
// on → status → report → off, checking the printed output and the
// balancer's state.
func TestRebalanceCommandRoundTrip(t *testing.T) {
	s := newBalancerSession(t)
	if !strings.Contains(s.bal.Status(), "enabled=false") {
		t.Fatal("the balancer should start parked")
	}
	out, errs := runScript(t, s,
		"rebalance status",
		"rebalance on",
		"rebalance status",
		"rebalance report",
	)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
	}
	if !strings.Contains(s.bal.Status(), "enabled=true") {
		t.Error("rebalance on left the balancer parked")
	}
	for _, want := range []string{
		"balance: enabled=false",
		"balancer on",
		"balance: enabled=true",
		"thresholds CV>",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if _, errs := runScript(t, s, "rebalance off"); errs[0] != nil {
		t.Fatal(errs[0])
	}
	if !strings.Contains(s.bal.Status(), "enabled=false") {
		t.Error("rebalance off left the balancer armed")
	}
}

// TestRebalanceCommandMigrateScheme checks that off before on leaves the
// migration balancer armed and that status reports its switch.
func TestRebalanceCommandMigrateScheme(t *testing.T) {
	s := newBalancerSession(t)
	out, errs := runScript(t, s,
		"rebalance status",
		"rebalance off",
		"rebalance on",
	)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
	}
	for _, want := range []string{"balance: enabled=false", "balancer off", "balancer on"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(s.bal.Status(), "enabled=true") {
		t.Error("rebalance on left the migration balancer disabled")
	}
}

// TestRebalanceCommandNoScheme: with no scraper there is no balancer, so
// the subcommands fail loudly, while bare `rebalance` keeps its pool
// meaning.
func TestRebalanceCommandNoScheme(t *testing.T) {
	s := newScriptSession(t, core.Options{})
	if s.bal != nil {
		t.Fatal("an unscraped system's session should have no balancer")
	}
	_, errs := runScript(t, s,
		"rebalance on",
		"rebalance",
	)
	if errs[0] == nil || !strings.Contains(errs[0].Error(), "Options.Telemetry") {
		t.Errorf("rebalance on without a balancer: got %v, want a missing-Options.Telemetry error", errs[0])
	}
	if errs[1] != nil {
		t.Errorf("bare rebalance (pool extent spread) failed: %v", errs[1])
	}
}

// TestRebalanceCommandBadArgs rejects unknown subcommands with usage.
func TestRebalanceCommandBadArgs(t *testing.T) {
	s := newBalancerSession(t)
	_, errs := runScript(t, s, "rebalance sideways")
	if errs[0] == nil || !strings.Contains(errs[0].Error(), "usage: rebalance") {
		t.Errorf("rebalance sideways: got %v, want usage error", errs[0])
	}
}
