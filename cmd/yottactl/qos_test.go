package main

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/qos"
	"repro/internal/sim"
)

// qosOptions builds the QoS subsystem with one tenant, fusion.
func qosOptions() core.Options {
	return core.Options{
		QoS: &qos.Config{
			Tenants: map[string]qos.TenantSpec{
				"fusion": {Rate: 2000, Burst: 256, MaxQueue: 64},
			},
		},
	}
}

// TestQoSCommandRoundTrip: on → status → report → off through the script
// interface, checking both the printed output and the manager state.
func TestQoSCommandRoundTrip(t *testing.T) {
	s := newScriptSession(t, qosOptions())
	if s.sys.QoS.Enabled() {
		t.Fatal("qos should start disabled")
	}
	out, errs := runScript(t, s,
		"qos status",
		"qos on",
		"qos status",
		"qos report",
		"qos off",
		"qos status",
	)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("command %d: %v", i, err)
		}
	}
	if s.sys.QoS.Enabled() {
		t.Error("qos left enabled after `qos off`")
	}
	for _, want := range []string{
		"qos: off, lane weights",
		"qos on",
		"qos: on, lane weights",
		"1 tenant buckets",
		"tenant fusion",
		"rate 2000/s burst 256 maxq 64",
		"qos off",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestQoSCommandReportAfterTraffic: with QoS on, front-door traffic shows
// up in the report's tenant and lane accounting.
func TestQoSCommandReportAfterTraffic(t *testing.T) {
	s := newScriptSession(t, qosOptions())
	_, errs := runScript(t, s, "qos on", "mkthick vols 512")
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	err := s.sys.Run(0, func(p *sim.Proc) error {
		qos.SetCtx(p, qos.Ctx{Tenant: "fusion"})
		tgt := &core.VolumeTarget{Cluster: s.sys.Cluster, Vol: "vols", Priority: 2}
		for i := int64(0); i < 8; i++ {
			if err := tgt.Write(p, i*4, 4); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	out, errs := runScript(t, s, "qos report")
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
	if !strings.Contains(out, "admitted 8") {
		t.Errorf("report does not account the tenant's 8 ops:\n%s", out)
	}
	// The writes rode lane 2 down to the disks.
	if !strings.Contains(out, "lane fg2") {
		t.Errorf("report missing lane table:\n%s", out)
	}
	var lane2 string
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "lane fg2") {
			lane2 = line
		}
	}
	if strings.Contains(lane2, "dispatched 0") {
		t.Errorf("lane fg2 saw no dispatches: %q", lane2)
	}
}

// TestQoSCommandErrors: the command degrades cleanly — usage errors for
// bad arguments, a pointed error when the system was built without QoS.
func TestQoSCommandErrors(t *testing.T) {
	s := newScriptSession(t, qosOptions())
	_, errs := runScript(t, s, "qos", "qos bogus")
	for i, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "usage: qos on|off|status|report") {
			t.Errorf("command %d: err = %v, want usage error", i, err)
		}
	}

	bare := newScriptSession(t, core.Options{})
	_, errs = runScript(t, bare, "qos on")
	if errs[0] == nil || !strings.Contains(errs[0].Error(), "Options.QoS") {
		t.Errorf("err = %v, want missing-Options.QoS error", errs[0])
	}
}
