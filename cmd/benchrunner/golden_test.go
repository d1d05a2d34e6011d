package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// quickTables are the reduced-scale experiments: the tables that take
// seconds, not minutes, to regenerate.
const quickTables = "E5,E13Q,E14Q,E15Q,E16Q,A1,A2,A3,A4"

// TestQuickTablesGolden pins the reduced-scale tables, as
// `benchrunner -only` prints them at the default seed, to a golden file: a
// change that moves one of them on purpose shows the move as a diff of that
// file under review. Regenerate (with the reason recorded) with
//
//	GOLDEN=rewrite go test ./cmd/benchrunner -run TestQuickTablesGolden
func TestQuickTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("the reduced-scale experiments exceed the -short budget")
	}
	want, err := selectRunners(quickTables)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	render(&got, 1, want)
	path := filepath.Join("testdata", "tables_quick.txt")
	if os.Getenv("GOLDEN") == "rewrite" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, got.Len())
		return
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with GOLDEN=rewrite to generate): %v", err)
	}
	if !bytes.Equal(got.Bytes(), golden) {
		gl, wl := bytes.Split(got.Bytes(), []byte{'\n'}), bytes.Split(golden, []byte{'\n'})
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("tables differ from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("tables differ from %s: %d lines, golden has %d", path, len(gl), len(wl))
	}
}
