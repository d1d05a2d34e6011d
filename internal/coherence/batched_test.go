package coherence

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/sim"
)

// TestBatchedReadVector covers the getsb grant path: cold misses come from
// the backing store, a repeat of the same vector is served entirely local.
func TestBatchedReadVector(t *testing.T) {
	h := newHarness(3, 4, 64)
	keys := make([]cache.Key, 6)
	for i := range keys {
		keys[i] = kb(int64(10 + i))
		h.backing.data[keys[i]] = blk(byte(100 + i))
	}
	h.setBatched(true)
	h.run(func(p *sim.Proc) {
		e := h.engines[0]
		out, err := readRun(p, e, keys[0].LBA, len(keys))
		if err != nil {
			t.Fatalf("cold read: %v", err)
		}
		for i := range keys {
			if out[i][0] != byte(100+i) {
				t.Fatalf("cold read key %d = %d, want %d", i, out[i][0], 100+i)
			}
		}
		out, err = readRun(p, e, keys[0].LBA, len(keys))
		if err != nil {
			t.Fatalf("warm read: %v", err)
		}
		for i := range keys {
			if out[i][0] != byte(100+i) {
				t.Fatalf("warm read key %d = %d, want %d", i, out[i][0], 100+i)
			}
		}
	})
	if hits := h.engines[0].Stats().LocalHits; hits != int64(len(keys)) {
		t.Fatalf("warm pass local hits = %d, want %d", hits, len(keys))
	}
	checkDirectoryInvariants(t, h, 20)
}

// TestBatchedDirtyForwarding covers getsb → downgradeb owner-forwarding:
// a vector written on one blade reads correctly from another while the
// owner's copies are still dirty, and the reader does not install them.
func TestBatchedDirtyForwarding(t *testing.T) {
	h := newHarness(5, 4, 64)
	keys := make([]cache.Key, 5)
	vals := make([][]byte, 5)
	for i := range keys {
		keys[i] = kb(int64(20 + i))
		vals[i] = blk(byte(50 + i))
	}
	h.setBatched(true)
	h.run(func(p *sim.Proc) {
		if err := h.engines[1].writeVector(p, keys, vals, 0, 0); err != nil {
			t.Fatalf("write vector: %v", err)
		}
		out, err := readRun(p, h.engines[2], keys[0].LBA, len(keys))
		if err != nil {
			t.Fatalf("read vector: %v", err)
		}
		for i := range keys {
			if out[i][0] != byte(50+i) {
				t.Fatalf("read key %d = %d, want %d", i, out[i][0], 50+i)
			}
		}
	})
	// Dirty owner-forwarding must not install on the reader (NoCache).
	for _, key := range keys {
		if _, ok := h.engines[2].cache.Peek(key); ok {
			t.Fatalf("reader cached dirty-forwarded key %v", key)
		}
	}
	if pf := h.engines[2].Stats().PeerFetches; pf != int64(len(keys)) {
		t.Fatalf("peer fetches = %d, want %d", pf, len(keys))
	}
	checkDirectoryInvariants(t, h, 30)
}

// TestBatchedWriteInvalidatesSharers covers getxb → invb: after two blades
// share a vector, a batched write from a third invalidates both and later
// reads see the new data.
func TestBatchedWriteInvalidatesSharers(t *testing.T) {
	h := newHarness(7, 4, 64)
	keys := make([]cache.Key, 4)
	newVals := make([][]byte, 4)
	for i := range keys {
		keys[i] = kb(int64(i))
		h.backing.data[keys[i]] = blk(1)
		newVals[i] = blk(byte(200 + i))
	}
	h.setBatched(true)
	h.run(func(p *sim.Proc) {
		for _, r := range []int{0, 2} {
			if _, err := readRun(p, h.engines[r], keys[0].LBA, len(keys)); err != nil {
				t.Fatalf("share read blade %d: %v", r, err)
			}
		}
		if err := h.engines[1].writeVector(p, keys, newVals, 0, 0); err != nil {
			t.Fatalf("write vector: %v", err)
		}
		for _, r := range []int{0, 2, 3} {
			out, err := readRun(p, h.engines[r], keys[0].LBA, len(keys))
			if err != nil {
				t.Fatalf("post-write read blade %d: %v", r, err)
			}
			for i := range keys {
				if out[i][0] != byte(200+i) {
					t.Fatalf("blade %d key %d read %d, want %d", r, i, out[i][0], 200+i)
				}
			}
		}
	})
	inv := int64(0)
	for _, e := range h.engines {
		inv += e.Stats().Invalidations
	}
	if inv == 0 {
		t.Fatal("no invalidations — invb path not exercised")
	}
	checkDirectoryInvariants(t, h, len(keys))
}

// TestBatchedUnbatchedConverge is the ISSUE's convergence property: the
// same sequential schedule of vector operations, driven once through the
// per-key plane and once through the batched plane, must return identical
// data on every read and leave both clusters in a final state where every
// key reads back the last acked write, with directory invariants intact.
// Sequential schedules make "identical" exact; concurrent interleavings
// are covered by TestBatchedConcurrentInvariants below.
func TestBatchedUnbatchedConverge(t *testing.T) {
	seeds := []int64{1, 2, 3, 5, 7, 11, 42, 99, 1234, 2024, 31337, 98765}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runConvergenceProperty(t, seed)
		})
	}
}

// vecOp is one step of the shared schedule: a write of a vector of distinct
// keys, or a read of the run of len(keys) blocks that starts at keys[0].
type vecOp struct {
	blade int
	write bool
	keys  []int64
	vals  [][]byte // writes only
}

// readRunLens are the run lengths the schedules' reads draw from: short
// ones, the block workloads' 4 and the stream's 64.
var readRunLens = []int{1, 2, 3, 4, 4, 5, 6, 64}

func makeSchedule(seed int64, blades, keyspace, steps int) []vecOp {
	rng := rand.New(rand.NewSource(seed * 13))
	seq := make(map[int64]int)
	ops := make([]vecOp, steps)
	for s := range ops {
		op := vecOp{blade: rng.Intn(blades), write: rng.Intn(10) < 4}
		if !op.write {
			n := readRunLens[rng.Intn(len(readRunLens))]
			start := int64(rng.Intn(keyspace - n + 1))
			for i := 0; i < n; i++ {
				op.keys = append(op.keys, start+int64(i))
			}
			ops[s] = op
			continue
		}
		n := 1 + rng.Intn(6)
		picked := make(map[int64]bool, n)
		for len(op.keys) < n {
			k := int64(rng.Intn(keyspace))
			if picked[k] {
				continue
			}
			picked[k] = true
			op.keys = append(op.keys, k)
			seq[k]++
			op.vals = append(op.vals, wval(int(k), seq[k]))
		}
		ops[s] = op
	}
	return ops
}

// runSchedule executes ops on a fresh harness, checking every read against
// the last-acked model, and returns the final per-key read-back.
func runSchedule(t *testing.T, seed int64, ops []vecOp, blades, keyspace, cacheBlocks int, batched bool) map[int64][]byte {
	t.Helper()
	h := newHarness(seed, blades, cacheBlocks)
	h.setBatched(batched)
	model := make(map[int64][]byte)
	final := make(map[int64][]byte)
	plane := "per-key"
	if batched {
		plane = "batched"
	}
	h.run(func(p *sim.Proc) {
		for s, op := range ops {
			e := h.engines[op.blade]
			keys := make([]cache.Key, len(op.keys))
			for i, k := range op.keys {
				keys[i] = kb(k)
			}
			if op.write {
				if batched {
					if err := e.writeVector(p, keys, op.vals, 0, 0); err != nil {
						t.Fatalf("%s step %d write: %v", plane, s, err)
					}
				} else {
					for i, key := range keys {
						if err := e.WriteBlockR(p, key, op.vals[i], 0, 0); err != nil {
							t.Fatalf("%s step %d write key %v: %v", plane, s, key, err)
						}
					}
				}
				for i, k := range op.keys {
					model[k] = op.vals[i]
				}
				continue
			}
			out, err := readRun(p, e, op.keys[0], len(op.keys))
			if err != nil {
				t.Fatalf("%s step %d read: %v", plane, s, err)
			}
			for i, k := range op.keys {
				want := byte(0)
				if model[k] != nil {
					want = model[k][0]
				}
				if out[i][0] != want {
					t.Fatalf("%s step %d key %d read %d, want last acked %d",
						plane, s, k, out[i][0], want)
				}
			}
		}
		// Final read-back of the whole keyspace from a rotating blade.
		for k := 0; k < keyspace; k++ {
			d, err := h.engines[k%blades].ReadBlock(p, kb(int64(k)), 0)
			if err != nil {
				t.Fatalf("%s final read key %d: %v", plane, k, err)
			}
			final[int64(k)] = d
		}
	})
	if !t.Failed() {
		checkDirectoryInvariants(t, h, keyspace)
	}
	return final
}

func runConvergenceProperty(t *testing.T, seed int64) {
	const (
		blades      = 4
		keyspace    = 80 // room for the 64-block reads
		steps       = 80
		cacheBlocks = 8 // tiny: evictions and writebacks mid-schedule
	)
	ops := makeSchedule(seed, blades, keyspace, steps)
	perKey := runSchedule(t, seed, ops, blades, keyspace, cacheBlocks, false)
	if t.Failed() {
		return
	}
	batched := runSchedule(t, seed, ops, blades, keyspace, cacheBlocks, true)
	if t.Failed() {
		return
	}
	for k := int64(0); k < keyspace; k++ {
		pk, bt := perKey[k], batched[k]
		if pk[0] != bt[0] || pk[1] != bt[1] {
			t.Fatalf("final state diverged at key %d: per-key (%d,%d), batched (%d,%d)",
				k, pk[0], pk[1], bt[0], bt[1])
		}
	}
}

// TestBatchedConcurrentInvariants runs key-partitioned concurrent writers
// plus unpartitioned readers entirely on the batched plane across the same
// seed set, then checks last-acked read-back and directory invariants.
func TestBatchedConcurrentInvariants(t *testing.T) {
	seeds := []int64{1, 2, 3, 5, 7, 11, 42, 99, 1234, 2024, 31337, 98765}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runBatchedConcurrent(t, seed)
		})
	}
}

func runBatchedConcurrent(t *testing.T, seed int64) {
	const (
		blades      = 4
		cacheBlocks = 8
		keys        = 72 // room for the 64-block reads
		writers     = 3
		readers     = 3
		writerOps   = 30
		readerOps   = 30
	)
	h := newHarness(seed, blades, cacheBlocks)
	h.setBatched(true)
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
					// A vector of this writer's own keys (key k belongs to
					// writer k%writers), so last-acked stays well-defined.
					n := 1 + wrng.Intn(4)
					picked := make(map[int]bool, n)
					var ks []cache.Key
					var vs [][]byte
					var ids []int
					for len(ks) < n {
						k := wrng.Intn(keys/writers)*writers + w
						if picked[k] {
							continue
						}
						picked[k] = true
						seq[k]++
						ks = append(ks, kb(int64(k)))
						vs = append(vs, wval(k, seq[k]))
						ids = append(ids, k)
					}
					e := h.engines[wrng.Intn(blades)]
					if err := e.writeVector(p, ks, vs, 0, 0); err != nil {
						t.Errorf("writer%d op %d: %v", w, i, err)
						return
					}
					for j, k := range ids {
						expected[k] = vs[j]
					}
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
					start := int64(rrng.Intn(keys - n + 1))
					e := h.engines[rrng.Intn(blades)]
					if _, err := readRun(p, e, start, n); err != nil {
						t.Errorf("reader%d op %d: %v", r, i, err)
						return
					}
				}
			})
		}
		g.Wait(p)

		for k := 0; k < keys; k++ {
			want := expected[k]
			if want == nil {
				continue
			}
			d, err := h.engines[k%blades].ReadBlock(p, kb(int64(k)), 0)
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
}
