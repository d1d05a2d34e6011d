package coherence

import (
	"math/rand"
	"testing"

	"repro/internal/cache"
)

// TestHomeIndexTransparent drives home() against an oracle that recomputes
// from scratch, interleaving migration overrides being set and removed.
func TestHomeIndexTransparent(t *testing.T) {
	h := newHarness(11, 4, 256)
	e := h.engines[0]
	oracle := func(key cache.Key) int {
		if hm, ok := e.homeOverride[e.ids.ID(key)]; ok {
			return hm
		}
		return e.alive[key.Hash()%uint64(len(e.alive))]
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
