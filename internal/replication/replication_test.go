package replication

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/cache"
	"repro/internal/sim"
	"repro/internal/simnet"
)

type rig struct {
	k    *sim.Kernel
	net  *simnet.Network
	mgrs []*Manager
}

func newRig(blades, n int) *rig {
	k := sim.NewKernel(1)
	net := simnet.New(k)
	peers := make([]simnet.Addr, blades)
	for i := range peers {
		peers[i] = simnet.Addr(fmt.Sprintf("blade%d", i))
		net.Connect(peers[i], "fabric", simnet.FC2G)
	}
	r := &rig{k: k, net: net}
	for i := 0; i < blades; i++ {
		conn := simnet.NewConn(net, peers[i])
		r.mgrs = append(r.mgrs, New(k, conn, peers, i, n))
	}
	return r
}

func (r *rig) run(body func(p *sim.Proc)) {
	r.k.Go("test", body)
	r.k.Run()
}

func key(i int64) cache.Key { return cache.Key{Vol: "v", LBA: i} }

func data(v byte) []byte { return bytes.Repeat([]byte{v}, 128) }

func TestReplicatePlacesNMinus1Copies(t *testing.T) {
	r := newRig(5, 3)
	r.run(func(p *sim.Proc) {
		if err := r.mgrs[0].ReplicateDirty(p, key(1), data(7), 1, 0); err != nil {
			t.Errorf("replicate: %v", err)
		}
	})
	total := 0
	for i := 1; i < 5; i++ {
		total += len(r.mgrs[i].held[0])
	}
	if total != 2 {
		t.Fatalf("replica copies = %d, want 2 (N-1)", total)
	}
	if r.mgrs[0].HeldBlocks() != 0 {
		t.Fatal("owner holds a replica for itself")
	}
}

func TestFactorOneIsNoOp(t *testing.T) {
	r := newRig(3, 1)
	r.run(func(p *sim.Proc) {
		if err := r.mgrs[0].ReplicateDirty(p, key(1), data(1), 1, 0); err != nil {
			t.Errorf("replicate: %v", err)
		}
	})
	for _, m := range r.mgrs {
		if m.HeldBlocks() != 0 {
			t.Fatal("N=1 created replicas")
		}
	}
}

func TestBuddiesDeterministicAndDistinct(t *testing.T) {
	r := newRig(6, 4)
	for i := int64(0); i < 50; i++ {
		b1 := r.mgrs[2].buddies(key(i), 0)
		b2 := r.mgrs[2].buddies(key(i), 0)
		if len(b1) != 3 {
			t.Fatalf("buddies = %v, want 3", b1)
		}
		seen := map[int]bool{2: true}
		for j, b := range b1 {
			if b != b2[j] {
				t.Fatal("buddies not deterministic")
			}
			if seen[b] {
				t.Fatalf("duplicate/self buddy in %v", b1)
			}
			seen[b] = true
		}
	}
}

func TestFactorClampedToLiveBlades(t *testing.T) {
	r := newRig(3, 8) // ask for more copies than blades exist
	r.run(func(p *sim.Proc) {
		if err := r.mgrs[0].ReplicateDirty(p, key(1), data(1), 1, 0); err != nil {
			t.Errorf("replicate: %v", err)
		}
	})
	total := 0
	for i := 1; i < 3; i++ {
		total += len(r.mgrs[i].held[0])
	}
	if total != 2 {
		t.Fatalf("copies = %d, want 2 (all other blades)", total)
	}
}

func TestDropReleasesReplicas(t *testing.T) {
	r := newRig(4, 2)
	r.run(func(p *sim.Proc) {
		r.mgrs[0].ReplicateDirty(p, key(5), data(9), 3, 0)
		r.mgrs[0].OnClean(p, key(5), 3)
		p.Sleep(sim.Millisecond) // let async drops land
	})
	for i := 1; i < 4; i++ {
		if len(r.mgrs[i].held[0]) != 0 {
			t.Fatalf("blade %d still holds replica after drop", i)
		}
	}
}

func TestStaleDropIgnored(t *testing.T) {
	r := newRig(4, 2)
	r.run(func(p *sim.Proc) {
		r.mgrs[0].ReplicateDirty(p, key(5), data(9), 7, 0) // version 7
		r.mgrs[0].OnClean(p, key(5), 3)                    // stale destage of v3
		p.Sleep(sim.Millisecond)
	})
	total := 0
	for i := 1; i < 4; i++ {
		total += len(r.mgrs[i].held[0])
	}
	if total != 1 {
		t.Fatalf("replicas = %d after stale drop, want 1", total)
	}
}

func TestNewerPutSupersedes(t *testing.T) {
	r := newRig(4, 2)
	r.run(func(p *sim.Proc) {
		r.mgrs[0].ReplicateDirty(p, key(5), data(1), 1, 0)
		r.mgrs[0].ReplicateDirty(p, key(5), data(2), 2, 0)
	})
	for i := 1; i < 4; i++ {
		for _, rep := range r.mgrs[i].held[0] {
			if rep.Data[0] != 2 || rep.Version != 2 {
				t.Fatalf("replica = v%d d=%d, want v2 d=2", rep.Version, rep.Data[0])
			}
		}
	}
}

func TestRecoverForDestagesDeadOwnersBlocks(t *testing.T) {
	r := newRig(4, 3)
	r.run(func(p *sim.Proc) {
		r.mgrs[0].ReplicateDirty(p, key(1), data(11), 1, 0)
		r.mgrs[0].ReplicateDirty(p, key(2), data(22), 1, 0)
	})
	// Blade 0 dies; survivors destage its replicas.
	disk := make(map[cache.Key][]byte)
	r.run(func(p *sim.Proc) {
		for i := 1; i < 4; i++ {
			r.mgrs[i].RecoverFor(p, 0, func(q *sim.Proc, k cache.Key, d []byte) error {
				disk[k] = d
				return nil
			})
		}
	})
	if !bytes.Equal(disk[key(1)], data(11)) || !bytes.Equal(disk[key(2)], data(22)) {
		t.Fatal("recovery did not destage dead owner's writes")
	}
	for i := 1; i < 4; i++ {
		if len(r.mgrs[i].held[0]) != 0 {
			t.Fatal("replicas not released after recovery")
		}
	}
}

// Property: with factor N over B blades, any set of up to N−1 blade
// failures leaves at least one copy (owner cache or replica) of an
// acknowledged write.
func TestSurvivabilityProperty(t *testing.T) {
	f := func(keyRaw uint16, failMask uint8) bool {
		const blades, n = 5, 3
		r := newRig(blades, n)
		k := key(int64(keyRaw))
		owner := 0
		r.run(func(p *sim.Proc) {
			r.mgrs[owner].ReplicateDirty(p, k, data(byte(keyRaw)), 1, 0)
		})
		// Choose up to N-1 = 2 failures (possibly including the owner).
		var failed []int
		for b := 0; b < blades && len(failed) < n-1; b++ {
			if failMask&(1<<b) != 0 {
				failed = append(failed, b)
			}
		}
		isFailed := func(b int) bool {
			for _, f := range failed {
				if f == b {
					return true
				}
			}
			return false
		}
		copies := 0
		if !isFailed(owner) {
			copies++ // owner's own dirty cache copy survives
		}
		for b := 0; b < blades; b++ {
			if !isFailed(b) && len(r.mgrs[b].held[owner]) > 0 {
				copies++
			}
		}
		return copies >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSetAliveExcludesDeadBuddies(t *testing.T) {
	r := newRig(4, 3)
	for _, m := range r.mgrs {
		m.SetAlive([]int{0, 2, 3}) // blade 1 dead
	}
	for i := int64(0); i < 20; i++ {
		for _, b := range r.mgrs[0].buddies(key(i), 0) {
			if b == 1 {
				t.Fatal("dead blade chosen as buddy")
			}
		}
	}
}

// A manager built without a policy retries a push the way a coherence call
// does: three attempts under a 2 s deadline, with 500 µs then 1 ms of
// backoff, each plus up to 500 µs of jitter, between them.
func TestDefaultPushBacksOffLikeCoherence(t *testing.T) {
	r := newRig(2, 2)
	r.net.SetFaults("blade1", "fabric", simnet.FaultPlan{DropProb: 1})
	var took sim.Duration
	r.run(func(p *sim.Proc) {
		start := p.Now()
		if err := r.mgrs[0].ReplicateDirty(p, key(1), data(7), 1, 0); err == nil {
			t.Error("push to an unreachable buddy succeeded")
		}
		took = p.Now().Sub(start)
	})
	pol := simnet.RetryPolicy{}.WithDefaults()
	if r.mgrs[0].Retry != pol {
		t.Errorf("policy %+v, want the fabric default %+v", r.mgrs[0].Retry, pol)
	}
	if st := r.mgrs[0].conn.Stats(); st.Retries != 2 || st.GaveUp != 1 {
		t.Errorf("rpc stats %+v, want 2 retries and 1 gave-up call", st)
	}
	lo := 3*pol.Timeout + pol.Backoff + 2*pol.Backoff
	if hi := lo + 2*pol.Jitter; took < lo || took >= hi {
		t.Errorf("push gave up after %v, want within [%v, %v)", took, lo, hi)
	}
}

// A replica is the pushed buffer itself, not a copy of it: the owner's
// buffer is frozen once written, so nobody rewrites what the buddy holds.
func TestPutKeepsPushedBuffer(t *testing.T) {
	r := newRig(2, 2)
	d := data(5)
	r.run(func(p *sim.Proc) {
		if err := r.mgrs[0].ReplicateDirty(p, key(1), d, 1, 0); err != nil {
			t.Errorf("replicate: %v", err)
		}
	})
	rep, ok := r.mgrs[1].held[0][key(1)]
	if !ok {
		t.Fatal("buddy holds no replica")
	}
	if &rep.Data[0] != &d[0] {
		t.Error("the replica is a copy of the pushed buffer")
	}
}

// The placement records are bounded by the dirty blocks: once every written
// block has been destaged, none is left. A destage of an older version
// keeps the record of a newer write, which may have its own factor.
func TestPlacementsGoWhenBlocksAreClean(t *testing.T) {
	r := newRig(5, 2)
	m := r.mgrs[0]
	r.run(func(p *sim.Proc) {
		for i := int64(0); i < 20; i++ {
			m.ReplicateDirty(p, key(i), data(byte(i)), 1, 0)
		}
		m.ReplicateDirty(p, key(3), data(33), 2, 4) // a newer write, factor 4
		for i := int64(0); i < 20; i++ {
			m.OnClean(p, key(i), 1)
		}
		pl, ok := m.placed[key(3)]
		if len(m.placed) != 1 || !ok || pl.version != 2 || len(pl.buddies) != 3 {
			t.Errorf("after the first destages: %d records, block 3's %+v, want block 3's version-2 record on 3 buddies", len(m.placed), pl)
		}
		m.OnClean(p, key(3), 2)
		p.Sleep(sim.Millisecond) // let the drops land
	})
	if n := len(m.placed); n != 0 {
		t.Errorf("%d placement records left after every block was destaged", n)
	}
	for i := 1; i < 5; i++ {
		if n := r.mgrs[i].HeldBlocks(); n != 0 {
			t.Errorf("blade %d still holds %d replicas", i, n)
		}
	}
}
