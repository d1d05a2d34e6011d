package coherence

import (
	"strconv"

	"repro/internal/cache"
)

// fnv1a64 constants (hash/fnv), inlined so keyHash stays allocation-free.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// keyHash reproduces exactly the historical home hash — fnv.New64a fed
// fmt.Fprintf("%s/%d", Vol, LBA) — without the writer or the formatter, so
// a home lookup stays off the allocator.
func keyHash(key cache.Key) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(key.Vol); i++ {
		h ^= uint64(key.Vol[i])
		h *= fnvPrime64
	}
	h ^= '/'
	h *= fnvPrime64
	var buf [20]byte
	for _, c := range strconv.AppendInt(buf[:0], key.LBA, 10) {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}
