package coherence

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/cache"
)

// refHash is the historical home hash keyHash must reproduce bit-for-bit.
func refHash(key cache.Key) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", key.Vol, key.LBA)
	return h.Sum64()
}

func TestKeyHashMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vols := []string{"", "v", "vol0", "snap", "a/b", "日本語", "x-very-long-volume-name-0123456789"}
	for i := 0; i < 20000; i++ {
		key := cache.Key{Vol: vols[rng.Intn(len(vols))], LBA: rng.Int63() - rng.Int63()}
		if got, want := keyHash(key), refHash(key); got != want {
			t.Fatalf("keyHash(%+v) = %#x, want %#x", key, got, want)
		}
	}
	for _, lba := range []int64{0, -1, 1, 1 << 62, -(1 << 62)} {
		key := cache.Key{Vol: "edge", LBA: lba}
		if got, want := keyHash(key), refHash(key); got != want {
			t.Fatalf("keyHash(%+v) = %#x, want %#x", key, got, want)
		}
	}
}

// TestHomeIndexTransparent drives home() against an oracle that recomputes
// from scratch, interleaving migration overrides being set and removed.
func TestHomeIndexTransparent(t *testing.T) {
	h := newHarness(11, 4, 256)
	e := h.engines[0]
	oracle := func(key cache.Key) int {
		if hm, ok := e.homeOverride[e.ids.ID(key)]; ok {
			return hm
		}
		return e.alive[refHash(key)%uint64(len(e.alive))]
	}
	rng := rand.New(rand.NewSource(23))
	keys := make([]cache.Key, 64)
	for i := range keys {
		keys[i] = cache.Key{Vol: "vol", LBA: int64(rng.Intn(512))}
	}
	for step := 0; step < 4000; step++ {
		key := keys[rng.Intn(len(keys))]
		switch rng.Intn(10) {
		case 0:
			e.homeOverride[e.ids.ID(key)] = rng.Intn(4)
		case 1:
			delete(e.homeOverride, e.ids.ID(key))
		default:
			got, err := e.home(key)
			if err != nil {
				t.Fatal(err)
			}
			if want := oracle(key); got != want {
				t.Fatalf("step %d: home(%+v) = %d, oracle %d (override=%v)",
					step, key, got, want, e.homeOverride[e.ids.ID(key)])
			}
		}
	}
}
