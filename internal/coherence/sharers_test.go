package coherence

import (
	"math/rand"
	"testing"

	"repro/internal/sim"
	"repro/internal/simnet"
)

// The sharer set against the two maps it replaced, under random
// registrations, removals and resets: same members, same epochs, ascending
// iteration, and one backing array for as long as it is big enough.
func TestSharerSetMatchesMapModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var set sharerSet
		model := map[int]uint64{}
		grown := 0
		for step := 0; step < 2000; step++ {
			blade, epoch := rng.Intn(12), uint64(rng.Intn(1000))
			switch rng.Intn(10) {
			case 0:
				set.reset()
				clear(model)
			case 1:
				set.only(blade, epoch)
				clear(model)
				model[blade] = epoch
			case 2, 3, 4:
				set.remove(blade)
				delete(model, blade)
			default:
				set.add(blade, epoch)
				model[blade] = epoch
			}
			if c := cap(set); c != grown {
				if c < grown {
					t.Fatalf("seed %d step %d: backing array shrank from %d to %d", seed, step, grown, c)
				}
				grown = c
			}
			if len(set) != len(model) {
				t.Fatalf("seed %d step %d: set %v, model %v", seed, step, set, model)
			}
			for i, sh := range set {
				if i > 0 && set[i-1].blade >= sh.blade {
					t.Fatalf("seed %d step %d: set %v is not ascending", seed, step, set)
				}
				if want, ok := model[sh.blade]; !ok || want != sh.epoch {
					t.Fatalf("seed %d step %d: set %v, model %v", seed, step, set, model)
				}
			}
			for b := 0; b < 12; b++ {
				want, in := model[b]
				if got, ok := set.epoch(b); ok != in || got != want || set.has(b) != in {
					t.Fatalf("seed %d step %d: epoch(%d) = (%d, %v), has = %v, model (%d, %v)", seed, step, b, got, ok, set.has(b), want, in)
				}
			}
			blades := set.blades(nil)
			for i, sh := range set {
				if blades[i] != sh.blade {
					t.Fatalf("seed %d step %d: blades() = %v of set %v", seed, step, blades, set)
				}
			}
		}
		if grown > 16 {
			t.Fatalf("seed %d: a set of at most 12 blades grew its array to %d", seed, grown)
		}
	}
}

// A migrated directory entry arrives with the sharers' registration epochs:
// an evict notice older than a sharer's registration must not deregister it
// at the new home either, and one that is current must.
func TestAdoptKeepsSharerEpochs(t *testing.T) {
	h := newHarness(1, 4, 8)
	key := kb(3)
	from := homeOf(key, 4)
	to := (from + 1) % 4
	a, b := (from+2)%4, (from+3)%4
	ctl := simnet.NewConn(h.net, "ctl")
	h.net.Connect("ctl", "fabric", simnet.FC2G)
	h.run(func(p *sim.Proc) {
		for _, reader := range []int{a, b} {
			if _, err := h.engines[reader].ReadBlock(p, key, 0); err != nil {
				t.Fatal(err)
			}
		}
		old := h.engines[from].dir[key]
		old.sharers.add(a, 5) // as if a had evicted and re-registered four times
		moved, err := RequestMigrate(p, ctl, h.engines[from].peers[from], key, to, NormalizeRetry(simnet.RetryPolicy{}))
		if err != nil || !moved {
			t.Fatalf("migrate: moved=%v err=%v", moved, err)
		}
	})
	ent := h.engines[to].dir[key]
	if ent == nil || ent.state != dirShared || len(ent.sharers) != 2 {
		t.Fatalf("adopted entry = %+v, want Shared with two sharers", ent)
	}
	if ea, _ := ent.sharers.epoch(a); ea != 5 {
		t.Fatalf("sharers after adopt = %v, want blade %d under epoch 5", ent.sharers, a)
	}
	if eb, ok := ent.sharers.epoch(b); !ok || eb != 0 {
		t.Fatalf("sharers after adopt = %v, want blade %d under epoch 0", ent.sharers, b)
	}
	h.run(func(p *sim.Proc) {
		h.engines[to].handleEvictNote(p, "", []evictNote{{Key: key, From: a, Epoch: 4}, {Key: key, From: b, Epoch: 0}})
	})
	if !ent.sharers.has(a) || ent.sharers.has(b) {
		t.Fatalf("sharers after a stale and a current notice = %v, want only blade %d", ent.sharers, a)
	}
}
