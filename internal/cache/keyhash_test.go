package cache

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
)

// refHash is the historical home hash Key.Hash must reproduce bit-for-bit.
func refHash(key Key) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", key.Vol, key.LBA)
	return h.Sum64()
}

func TestKeyHashMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vols := []string{"", "v", "vol0", "snap", "a/b", "日本語", "x-very-long-volume-name-0123456789"}
	for i := 0; i < 20000; i++ {
		key := Key{Vol: vols[rng.Intn(len(vols))], LBA: rng.Int63() - rng.Int63()}
		if got, want := key.Hash(), refHash(key); got != want {
			t.Fatalf("Hash(%+v) = %#x, want %#x", key, got, want)
		}
	}
	for _, lba := range []int64{0, -1, 1, 1 << 62, -(1 << 62)} {
		key := Key{Vol: "edge", LBA: lba}
		if got, want := key.Hash(), refHash(key); got != want {
			t.Fatalf("Hash(%+v) = %#x, want %#x", key, got, want)
		}
	}
}
