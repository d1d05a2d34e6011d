package hotcache

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// Property test for the cache tier's staleness guarantee, in the style of
// the coherence package's migration property test: after ANY fault-free
// mixed schedule of tier-routed reads (GetS + cache fills), writes (GetX
// + write-through invalidation), natural evictions (tiny cache nodes)
// and home migrations racing all of it, a
// read must never return data older than the last write acknowledged
// BEFORE the read began, and the directory invariants must hold with the
// cache tier active. Schedules are random but seeded from a table, so
// every failure replays by its seed.
//
// The staleness assertion leans on the write-through protocol: every
// acked write is preceded by a GetX handled at the key's current home,
// and the home invalidates the tier's copy inside the grant — so a read
// that starts after the ack cannot find the superseded copy, and an
// in-flight fill racing the write is aborted by the epoch guard.

// wval builds a block whose first two bytes identify the write (key
// index, per-key sequence number).
func wval(key, seq int) []byte {
	b := make([]byte, blockSize)
	b[0], b[1] = byte(key), byte(seq)
	return b
}

func TestPropertyTierStalenessUnderMixedSchedules(t *testing.T) {
	seeds := []int64{1, 2, 3, 5, 7, 11, 42, 99, 1234, 2024, 31337, 98765}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runTierStalenessProperty(t, seed)
		})
	}
}

func runTierStalenessProperty(t *testing.T, seed int64) {
	const (
		blades     = 4
		cohBlocks  = 8 // tiny: forces coherence-cache evictions
		nodeBlocks = 4 // tinier: forces tier-node evictions
		keys       = 24
		writers    = 3
		readers    = 3
		writerOps  = 50
		readerOps  = 120
		migrations = 12
		tailOps    = 60
	)
	h := newHarness(seed, blades, cohBlocks, Config{
		hotMin:        1, // everything is hot: maximum cache traffic
		blocksPerNode: nodeBlocks,
	})
	rng := rand.New(rand.NewSource(seed * 7919))

	// Control-plane endpoint for migrations, wired like the balancer's.
	h.net.Connect("ctl", "fabric", simnet.FC2G)
	ctl := simnet.NewConn(h.net, "ctl")
	retry := simnet.RetryPolicy{}.WithDefaults()

	// acked[k] is the sequence number of the last ACKED write per key;
	// expected[k] the data. Keys are partitioned across writers (key k
	// belongs to writer k%writers) so both are well-defined mid-flight.
	acked := make([]int, keys)
	expected := make(map[int][]byte)
	seq := make(map[int]int)

	// readTier routes one read through the tier and checks the staleness
	// floor captured BEFORE the read was issued.
	readTier := func(p *sim.Proc, k int, label string) {
		floor := acked[k]
		d, via, err := h.readViaInfo(p, kb(int64(k)))
		if err != nil {
			t.Errorf("%s read key %d: %v", label, k, err)
			return
		}
		if int(d[1]) < floor {
			t.Errorf("%s read key %d (via=%v) returned seq %d, but seq %d was acked before the read began",
				label, k, via, d[1], floor)
		}
	}

	h.run(func(p *sim.Proc) {
		g := sim.NewGroup(h.k)

		for w := 0; w < writers; w++ {
			w := w
			wrng := rand.New(rand.NewSource(seed*1000 + int64(w)))
			g.Add(1)
			h.k.Go(fmt.Sprintf("writer%d", w), func(p *sim.Proc) {
				defer g.Done()
				for i := 0; i < writerOps; i++ {
					k := wrng.Intn(keys/writers)*writers + w // this writer's keys only
					e := h.engines[wrng.Intn(blades)]
					seq[k]++
					v := wval(k, seq[k])
					if err := e.WriteBlock(p, kb(int64(k)), v, 0); err != nil {
						t.Errorf("writer%d op %d key %d: %v", w, i, k, err)
						return
					}
					expected[k] = v // acked
					acked[k] = seq[k]
				}
			})
		}

		for r := 0; r < readers; r++ {
			r := r
			rrng := rand.New(rand.NewSource(seed*2000 + int64(r)))
			g.Add(1)
			h.k.Go(fmt.Sprintf("reader%d", r), func(p *sim.Proc) {
				defer g.Done()
				for i := 0; i < readerOps; i++ {
					// Skewed choice: half the reads hammer 4 keys so the
					// tier sees real hot-key traffic and repeated hits.
					var k int
					if rrng.Intn(2) == 0 {
						k = rrng.Intn(4)
					} else {
						k = rrng.Intn(keys)
					}
					readTier(p, k, fmt.Sprintf("reader%d op %d", r, i))
				}
			})
		}

		mrng := rand.New(rand.NewSource(seed * 3000))
		g.Add(1)
		h.k.Go("migrator", func(p *sim.Proc) {
			defer g.Done()
			for i := 0; i < migrations; i++ {
				k := kb(int64(mrng.Intn(keys)))
				home, err := h.engines[0].Home(k)
				if err != nil {
					t.Errorf("migrator: home(%v): %v", k, err)
					return
				}
				to := mrng.Intn(blades)
				if to == home {
					to = (to + 1) % blades
				}
				// A stale candidate (home moved since we looked) is a
				// declined migrate, not a failure.
				coherence.RequestMigrate(p, ctl, h.peers[home], k, to, retry)
			}
		})

		g.Wait(p)

		// Sequential tail: reads here have no concurrent writers, so they
		// must return EXACTLY the last acked write, through the tier.
		for i := 0; i < tailOps; i++ {
			k := rng.Intn(keys)
			switch rng.Intn(4) {
			case 0, 1: // tier read, exact-match check
				want := expected[k]
				d, err := h.readVia(p, kb(int64(k)))
				if err != nil {
					t.Fatalf("tail op %d read key %d: %v", i, k, err)
				}
				if want != nil && (d[0] != want[0] || d[1] != want[1]) {
					t.Fatalf("tail op %d key %d read (%d,%d), want (%d,%d)",
						i, k, d[0], d[1], want[0], want[1])
				}
			case 2: // write
				seq[k]++
				v := wval(k, seq[k])
				if err := h.engines[rng.Intn(blades)].WriteBlock(p, kb(int64(k)), v, 0); err != nil {
					t.Fatalf("tail op %d write key %d: %v", i, k, err)
				}
				expected[k] = v
				acked[k] = seq[k]
			case 3: // migrate
				key := kb(int64(k))
				home, err := h.engines[0].Home(key)
				if err != nil {
					t.Fatalf("tail op %d home key %d: %v", i, k, err)
				}
				to := rng.Intn(blades)
				if to == home {
					to = (to + 1) % blades
				}
				coherence.RequestMigrate(p, ctl, h.peers[home], key, to, retry)
			}
		}

		// Final reads: every written key, once through the tier and once
		// straight through an engine, must return the last acked write.
		for k := 0; k < keys; k++ {
			want := expected[k]
			if want == nil {
				continue
			}
			d, err := h.readVia(p, kb(int64(k)))
			if err != nil {
				t.Fatalf("final tier read key %d: %v", k, err)
			}
			if d[0] != want[0] || d[1] != want[1] {
				t.Fatalf("final tier read key %d = (%d,%d), want last acked (%d,%d)",
					k, d[0], d[1], want[0], want[1])
			}
			d, err = h.engines[k%blades].ReadBlock(p, kb(int64(k)), 0)
			if err != nil {
				t.Fatalf("final engine read key %d: %v", k, err)
			}
			if d[0] != want[0] || d[1] != want[1] {
				t.Fatalf("final engine read key %d = (%d,%d), want last acked (%d,%d)",
					k, d[0], d[1], want[0], want[1])
			}
		}
	})

	if t.Failed() {
		return
	}

	// Directory invariants must hold with the cache tier active — the
	// tier's shadow copies live outside the directory's jurisdiction and
	// must not have perturbed it.
	ks := make([]cache.Key, keys)
	for k := range ks {
		ks[k] = kb(int64(k))
	}
	if err := coherence.CheckInvariants(h.engines, ks); err != nil {
		t.Fatal(err)
	}

	// The schedule must actually have exercised the machinery.
	var fills, invals int64
	for i := 0; i < blades; i++ {
		s := h.tier.Node(i).Stats()
		fills += s.Fills
		invals += s.Invalidations
	}
	if fills == 0 {
		t.Fatal("schedule filled no cache node; property not exercised")
	}
	if invals == 0 {
		t.Fatal("schedule triggered no write-through invalidation; property not exercised")
	}
	moved := int64(0)
	for _, e := range h.engines {
		moved += e.Stats().HomeMigrations
	}
	if moved == 0 {
		t.Fatal("schedule performed no successful migrations; property not exercised")
	}
}
