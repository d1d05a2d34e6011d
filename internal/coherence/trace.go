package coherence

import "repro/internal/cache"

// traceFn, when non-nil, receives a protocol event line for every operation
// touching traceKey. Tests set this to debug protocol interleavings; it is
// nil in production use.
var traceFn func(format string, args ...any)
var traceKey cache.Key

// tracing reports whether events on key go to traceFn. Call sites test it
// before they call traceFn, so an untraced run — every production run —
// never boxes a trace line's arguments.
func tracing(key cache.Key) bool { return traceFn != nil && key == traceKey }

// SetTrace installs (or, with a nil fn, removes) a protocol trace sink for
// one key, for tests outside this package debugging an interleaving. Not
// safe to change while a simulation is running.
func SetTrace(key cache.Key, fn func(format string, args ...any)) {
	traceKey = key
	traceFn = fn
}

// d0 renders a block's first byte for trace lines, tolerating zero-length
// payloads (indexing Data[0] directly panics when tracing a zero-length
// block); -1 means "empty".
func d0(b []byte) int {
	if len(b) == 0 {
		return -1
	}
	return int(b[0])
}
