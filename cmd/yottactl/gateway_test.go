package main

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gateway"
)

// newGatewaySession is a script session with an object gateway, matching
// the configuration the yottactl demo scenario builds.
func newGatewaySession(t *testing.T) *session {
	return newScriptSession(t, core.Options{Gateway: &gateway.Config{MetaShards: 2}})
}

// TestGatewayCommandRoundTrip drives the object gateway end to end
// through the script interface: mkbucket → put → get → ls, then the
// status/buckets/report views.
func TestGatewayCommandRoundTrip(t *testing.T) {
	s := newGatewaySession(t)
	out, errs := runScript(t, s,
		"tenant fusion",
		"gateway mkbucket fusion results",
		"gateway put fusion results run/001.txt first shot data",
		"gateway get fusion results run/001.txt",
		"gateway ls fusion results run/",
		"gateway status",
		"gateway buckets",
		"gateway report",
	)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("command %d: %v", i, err)
		}
	}
	for _, want := range []string{
		"put results/run/001.txt: 15 bytes, version 1",
		"first shot data",
		"run/001.txt",
		"gateway: 1 buckets, 1 objects",
		"ops put=1 get=1 list=1 | iam",
		"owner=fusion",
		"data: put=1 get=1 list=1 in=15",
		"object gateway (three-tier)",
		"iam:  auths=",
		"meta: 2 shard(s)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if got := s.sys.Gateway.Stats(); got.Puts != 1 || got.Gets != 1 || got.Lists != 1 {
		t.Errorf("gateway stats after script: %+v", got)
	}
}

// TestGatewayCommandErrors: bad usage, unknown tenants, and systems
// built without a gateway all fail cleanly.
func TestGatewayCommandErrors(t *testing.T) {
	s := newGatewaySession(t)
	_, errs := runScript(t, s,
		"gateway",
		"gateway bogus",
		"gateway mkbucket ghost b1", // tenant never created
		"gateway get fusion nope k", // tenant never created either
	)
	for i, err := range errs {
		if err == nil {
			t.Errorf("command %d should have failed", i)
		}
	}

	plain := newScriptSession(t, core.Options{})
	_, errs = runScript(t, plain, "gateway status")
	if len(errs) != 1 || errs[0] == nil || !strings.Contains(errs[0].Error(), "Options.Gateway") {
		t.Errorf("gateway command on gateway-less system: %v", errs)
	}
}
