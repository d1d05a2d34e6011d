package telemetry

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// TestMain is the package's leak check: every parked proc and pooled
// runner is a goroutine that keeps its kernel — and the finished system
// behind it — reachable, so a test that does not Close its kernel shows up
// as goroutines left over after the tests.
func TestMain(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	// A finished test's goroutine may still be on its way out.
	for i := 0; i < 100 && runtime.NumGoroutine() > before; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before && code == 0 {
		fmt.Fprintf(os.Stderr, "FAIL: %d goroutines leaked (%d before the tests, %d after): some test did not Close its kernel\n",
			after-before, before, after)
		code = 1
	}
	os.Exit(code)
}
