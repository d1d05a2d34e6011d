package main

import (
	"strings"
	"testing"
)

// -only must name experiments the runners table holds: one unknown id in
// an otherwise valid list is an error naming it, not a silent skip.
func TestSelectRunnersRejectsUnknownID(t *testing.T) {
	want, err := selectRunners(" e4, E13q")
	if err != nil {
		t.Fatalf("known ids rejected: %v", err)
	}
	if len(want) != 2 || !want["E4"] || !want["E13Q"] {
		t.Fatalf("want {E4, E13Q}, got %v", want)
	}
	if want, err := selectRunners(""); err != nil || len(want) != 0 {
		t.Fatalf("empty -only means all: got %v, %v", want, err)
	}
	for _, only := range []string{"E4,E99", "E99", "E4,"} {
		_, err := selectRunners(only)
		if err == nil {
			t.Fatalf("-only %q: unknown id accepted", only)
		}
		if bad := strings.TrimPrefix(only, "E4,"); !strings.Contains(err.Error(), `"`+bad+`"`) {
			t.Fatalf("-only %q: error does not name %q: %v", only, bad, err)
		}
	}
}
