package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/sim"
)

// newScriptSession opens a session on a system built from opts with 2
// blades and small drives, small enough for unit tests.
func newScriptSession(t *testing.T, opts core.Options) *session {
	t.Helper()
	opts.Blades = 2
	opts.DiskSpec = disk.Spec{
		BlockSize:   4096,
		Blocks:      1 << 12,
		Seek:        5 * sim.Millisecond,
		Rotation:    3 * sim.Millisecond,
		TransferBps: 400_000_000,
	}
	sys, err := core.NewSystem(opts)
	if err != nil {
		t.Fatal(err)
	}
	s := newSession(sys, io.Discard)
	t.Cleanup(s.close)
	return s
}

// runScript executes command lines on s from one simulation process and
// returns what they printed plus each line's error.
func runScript(t *testing.T, s *session, lines ...string) (string, []error) {
	t.Helper()
	var out bytes.Buffer
	s.out = &out
	errs, err := s.run(lines)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return out.String(), errs
}

// TestScriptShortLinesAreUsageErrors: a script line missing its arguments,
// or with one the command cannot use, prints an error for that line and
// changes nothing, instead of crashing the run or acting on a made-up value.
func TestScriptShortLinesAreUsageErrors(t *testing.T) {
	s := newScriptSession(t, core.Options{Trace: true})
	export := filepath.Join(t.TempDir(), "f")
	cases := []struct{ line, want string }{ // want "" is "usage: <first word>"
		{"mkdir", ""},
		{"get", ""},
		{"tenant", ""},
		{"failblade", ""},
		{"failblade x", ""},
		{"failblade -1", ""},
		{"revive", ""},
		{"faildisk", ""},
		{"faildisk 0", ""},
		{"faildisk 0 99", ""},
		{"faildisk 0 x", ""},
		{"rebuild", ""},
		{"rebuild 0", ""},
		{"mkthick x abc", ""},
		{"mkthick x 0", "size must be positive"},
		{"mkvol y -3", ""},
		{"grant lun t rx", ""},
		{"trace export bogus " + export, ""},
		{"policy / prio=x", ""},
	}
	var lines []string
	for _, c := range cases {
		lines = append(lines, c.line)
	}
	_, errs := runScript(t, s, lines...)
	for i, c := range cases {
		want := c.want
		if want == "" {
			want = "usage: " + strings.Fields(c.line)[0]
		}
		if errs[i] == nil || !strings.Contains(errs[i].Error(), want) {
			t.Errorf("%q: err = %v, want %q", c.line, errs[i], want)
		}
	}
	for _, d := range s.sys.Cluster.Groups[0].Disks() {
		if d.Failed() {
			t.Fatal("a rejected faildisk line failed a disk")
		}
	}
	if len(s.sys.Cluster.Alive()) != 2 {
		t.Fatal("a rejected failblade line failed a blade")
	}
	for _, name := range []string{"x", "y"} {
		if _, ok := s.sys.Cluster.Pool.Volumes()[name]; ok {
			t.Errorf("a rejected line created volume %q", name)
		}
	}
	if s.sys.Mask.Check("lun", "t", false) == nil {
		t.Error("a rejected grant line granted access")
	}
	if _, err := os.Stat(export); !os.IsNotExist(err) {
		t.Errorf("a rejected export created its file: %v", err)
	}
}

// TestHelpListsEveryCommand: help prints one line per table entry, and no
// two entries share a name.
func TestHelpListsEveryCommand(t *testing.T) {
	s := newScriptSession(t, core.Options{})
	out, errs := runScript(t, s, "help")
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
	seen := map[string]bool{}
	for _, c := range commands {
		if seen[c.name] {
			t.Errorf("two entries named %q", c.name)
		}
		seen[c.name] = true
		if !strings.Contains(out, "  "+c.line()+" ") {
			t.Errorf("help does not list %q:\n%s", c.line(), out)
		}
	}
	if got := strings.Count(out, "\n"); got != len(commands) {
		t.Errorf("help printed %d lines for %d commands", got, len(commands))
	}
}

// evacuateScript moves extents between pool devices: walks over volumes
// and extents whose order must not follow Go's map iteration order.
const evacuateScript = `
mkthick a 8192
mkthick b 8192
evacuate 0
status
rebalance
status
`

// TestDemoScriptsAreDeterministic: the built-in demo and a migration
// script run on the demo system without a line error and print the same
// bytes on every same-seed run.
func TestDemoScriptsAreDeterministic(t *testing.T) {
	for _, tc := range []struct {
		name, script string
		runs         int
	}{
		{"demo", defaultScript, 2},
		{"evacuate", evacuateScript, 5},
	} {
		var first string
		for run := 0; run < tc.runs; run++ {
			var out bytes.Buffer
			s, err := newDemoSession(&out)
			if err != nil {
				t.Fatal(err)
			}
			errs, err := s.run(strings.Split(tc.script, "\n"))
			s.close()
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			for i, err := range errs {
				if err != nil {
					t.Fatalf("%s: command %d: %v", tc.name, i, err)
				}
			}
			if run == 0 {
				first = out.String()
			} else if out.String() != first {
				t.Fatalf("%s: run %d printed differently from run 0:\n%s\nvs\n%s", tc.name, run, out.String(), first)
			}
		}
	}
}
