package coherence

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// Property test for the migration-extended protocol: after ANY fault-free
// mixed schedule of reads (GetS), writes (GetX) and home migrations, the
// cluster must satisfy the directory invariants and reads must return the
// last acknowledged write. Schedules are random but seeded from a table, so
// every failure is replayable by its seed.
//
// Checked invariants (see the package doc's numbered list):
//
//	a. Every blade agrees on each key's home, and exactly the home holds an
//	   active directory entry for it.
//	b. Directory Modified(o) ⇒ blade o holds the only cached copy, in M.
//	c. Directory Shared ⇒ every cached copy is clean S and registered in
//	   the home's sharer set; at most one M copy exists cluster-wide.
//	d. A read of any key, from any blade, returns the last acked write.

// wval builds a block whose first two bytes identify the write (key index,
// per-key sequence number) — enough to distinguish every write in a run.
func wval(key, seq int) []byte {
	b := make([]byte, blockSize)
	b[0], b[1] = byte(key), byte(seq)
	return b
}

// readRunLens are the run lengths the schedules' reads draw from: short
// ones, the block workloads' 4 and the stream's 64.
var readRunLens = []int{1, 2, 3, 4, 4, 5, 6, 64}

func TestPropertyMixedSchedulesWithMigration(t *testing.T) {
	seeds := []int64{1, 2, 3, 5, 7, 11, 42, 99, 1234, 2024, 31337, 98765}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runMixedScheduleProperty(t, seed)
		})
	}
}

func runMixedScheduleProperty(t *testing.T, seed int64) {
	const (
		blades      = 4
		cacheBlocks = 8  // tiny: forces evictions mid-schedule
		keys        = 72 // room for the readers' 64-block runs
		writers     = 3
		readers     = 3
		writerOps   = 60
		readerOps   = 60
		migrations  = 16
		tailOps     = 80
	)
	h := newHarness(seed, blades, cacheBlocks)
	// The schedule's own randomness is separate from the kernel's seed so
	// the two can't accidentally cancel out.
	rng := rand.New(rand.NewSource(seed * 7919))

	// Control-plane endpoint for migrations, wired like the balancer's.
	h.net.Connect("ctl", "fabric", simnet.FC2G)
	ctl := simnet.NewConn(h.net, "ctl")
	retry := simnet.RetryPolicy{}.WithDefaults()

	// expected[k] is the last acked write per key. The concurrent phase
	// partitions keys across writers (key k belongs to writer k%writers),
	// so "last acked" is well-defined even mid-flight; the sequential tail
	// then writes from arbitrary blades to arbitrary keys.
	expected := make(map[int][]byte)
	seq := make(map[int]int)

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
					n := readRunLens[rrng.Intn(len(readRunLens))]
					k := rrng.Intn(keys - n + 1)
					e := h.engines[rrng.Intn(blades)]
					if _, err := readRun(p, e, int64(k), n); err != nil {
						t.Errorf("reader%d op %d keys %d+%d: %v", r, i, k, n, err)
						return
					}
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
				peer := simnet.Addr(fmt.Sprintf("blade%d", home))
				// A stale candidate (home moved since we looked) is a
				// declined migrate, not a failure.
				RequestMigrate(p, ctl, peer, k, to, retry)
			}
		})

		g.Wait(p)

		// Sequential tail: any blade touching any key, including further
		// migrations interleaved with the I/O.
		for i := 0; i < tailOps; i++ {
			k := rng.Intn(keys)
			e := h.engines[rng.Intn(blades)]
			switch rng.Intn(4) {
			case 0, 1: // read
				d, err := e.ReadBlock(p, kb(int64(k)), 0)
				if err != nil {
					t.Fatalf("tail op %d read key %d: %v", i, k, err)
				}
				if want := expected[k]; want != nil && (d[0] != want[0] || d[1] != want[1]) {
					t.Fatalf("tail op %d key %d read (%d,%d), want (%d,%d)",
						i, k, d[0], d[1], want[0], want[1])
				}
			case 2: // write
				seq[k]++
				v := wval(k, seq[k])
				if err := e.WriteBlock(p, kb(int64(k)), v, 0); err != nil {
					t.Fatalf("tail op %d write key %d: %v", i, k, err)
				}
				expected[k] = v
			case 3: // migrate
				home, err := h.engines[0].Home(kb(int64(k)))
				if err != nil {
					t.Fatalf("tail op %d home key %d: %v", i, k, err)
				}
				to := rng.Intn(blades)
				if to == home {
					to = (to + 1) % blades
				}
				peer := simnet.Addr(fmt.Sprintf("blade%d", home))
				RequestMigrate(p, ctl, peer, kb(int64(k)), to, retry)
			}
		}

		// d. Final reads: every key, from a rotating blade, must return the
		// last acked write.
		for k := 0; k < keys; k++ {
			want := expected[k]
			if want == nil {
				continue
			}
			e := h.engines[k%blades]
			d, err := e.ReadBlock(p, kb(int64(k)), 0)
			if err != nil {
				t.Fatalf("final read key %d: %v", k, err)
			}
			if d[0] != want[0] || d[1] != want[1] {
				t.Fatalf("final read key %d = (%d,%d), want last acked (%d,%d)",
					k, d[0], d[1], want[0], want[1])
			}
		}
	})

	if t.Failed() {
		return
	}
	checkDirectoryInvariants(t, h, keys)

	moved := int64(0)
	for _, e := range h.engines {
		moved += e.Stats().HomeMigrations
	}
	if moved == 0 {
		t.Fatalf("schedule performed no successful migrations; property not exercised")
	}
}

// checkDirectoryInvariants delegates to the exported structural checker
// (verify.go) — the same invariants the hotcache property tests assert
// while the upper cache layer is active.
func checkDirectoryInvariants(t *testing.T, h *harness, keys int) {
	t.Helper()
	ks := make([]cache.Key, keys)
	for k := range ks {
		ks[k] = kb(int64(k))
	}
	if err := CheckInvariants(h.engines, ks); err != nil {
		t.Fatal(err)
	}
}
