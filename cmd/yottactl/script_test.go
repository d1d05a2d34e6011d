package main

import (
	"strings"
	"testing"
)

// TestScriptShortLinesAreUsageErrors: a script line missing its arguments,
// or naming a disk that does not exist, prints a usage error for that line
// instead of crashing the whole run.
func TestScriptShortLinesAreUsageErrors(t *testing.T) {
	sys := newScriptSystem(t, false)
	lines := []string{
		"mkdir",
		"get",
		"tenant",
		"failblade",
		"revive",
		"faildisk",
		"faildisk 0",
		"faildisk 0 99",
		"faildisk 0 x",
		"rebuild",
		"rebuild 0",
	}
	_, errs := runScript(t, sys, lines...)
	for i, err := range errs {
		word := strings.Fields(lines[i])[0]
		if err == nil || !strings.Contains(err.Error(), "usage: "+word) {
			t.Errorf("%q: err = %v, want a usage error", lines[i], err)
		}
	}
	for _, d := range sys.Cluster.Groups[0].Disks() {
		if d.Failed() {
			t.Fatal("a rejected faildisk line failed a disk")
		}
	}
}
