package coherence

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// A run read sends the directory one coh.gets per home blade, and the
// evictions its installs cause one coh.evict per home. These tests pin the
// vector forms of both messages: their count, a redirect of one key, a home
// that stops answering, and a notice that arrives too late.

// served counts the coh.gets and coh.evict messages each blade serves, and
// the keys each coh.gets carried.
type served struct {
	gets, evicts []int   // per blade
	keys         [][]int // per blade, one entry per coh.gets
}

// countVectors wraps every engine's coh.gets and coh.evict handlers.
func countVectors(h *harness) *served {
	s := &served{gets: make([]int, len(h.engines)), evicts: make([]int, len(h.engines)), keys: make([][]int, len(h.engines))}
	for i, e := range h.engines {
		e.conn.Register("coh.gets", func(p *sim.Proc, from simnet.Addr, args any) (any, int) {
			s.gets[i]++
			s.keys[i] = append(s.keys[i], len(args.([]dirReq)))
			return e.handleGetS(p, from, args)
		})
		e.conn.Register("coh.evict", func(p *sim.Proc, from simnet.Addr, args any) (any, int) {
			s.evicts[i]++
			return e.handleEvictNote(p, from, args)
		})
	}
	return s
}

func sum(xs []int) (n int) {
	for _, x := range xs {
		n += x
	}
	return n
}

func dirRequests(h *harness) (n int64) {
	for _, e := range h.engines {
		n += e.Stats().DirRequests
	}
	return n
}

// A cold 64-block read on 8 blades asks each home once, and the second one,
// whose installs evict the first's 64 blocks, tells each home once. The
// directory still counts every key.
func TestColdRunReadOneMessagePerHome(t *testing.T) {
	const blades = 8
	h := newHarness(1, blades, 64)
	for i := int64(0); i < 128; i++ {
		h.backing.data[kb(i)] = blk(byte(i))
	}
	s := countVectors(h)
	h.run(func(p *sim.Proc) {
		for _, lba := range []int64{0, 64} {
			gets, evicts, reqs := sum(s.gets), sum(s.evicts), dirRequests(h)
			out, err := readRun(p, h.engines[0], lba, 64)
			if err != nil {
				t.Fatalf("read %d+64: %v", lba, err)
			}
			for i, d := range out {
				if d[0] != byte(lba+int64(i)) {
					t.Fatalf("block %d reads %d", lba+int64(i), d[0])
				}
			}
			p.Sleep(sim.Millisecond) // the evict casts land
			if n := sum(s.gets) - gets; n > blades {
				t.Errorf("read %d+64: %d coh.gets messages, want ≤ %d", lba, n, blades)
			}
			if n := sum(s.evicts) - evicts; n > blades || (lba == 64) != (n > 0) {
				t.Errorf("read %d+64: %d coh.evict messages, want none before the cache is full and ≤ %d after", lba, n, blades)
			}
			if n := dirRequests(h) - reqs; n != 64 {
				t.Errorf("read %d+64: %d directory requests, want one per key", lba, n)
			}
		}
	})
	checkDirectoryInvariants(t, h, 128)
}

// One key of a vector is migrated away while the vector waits at its old
// home: that key alone comes back as a Redirect and is asked again at the
// new home, as a vector of one; the rest of the vector is served where it
// was sent.
func TestVectorRedirectsOneKey(t *testing.T) {
	const blades, n = 4, 16
	h := newHarness(1, blades, 64)
	h.net.Connect("ctl", "fabric", simnet.FC2G)
	ctl := simnet.NewConn(h.net, "ctl")
	for i := int64(0); i < n; i++ {
		h.backing.data[kb(i)] = blk(byte(40 + i))
	}
	reader := h.engines[0]
	// The home of at least two keys of the run, other than the reader.
	count := make([]int, blades)
	for i := int64(0); i < n; i++ {
		count[homeOf(kb(i), blades)]++
	}
	home := 1
	for b := 2; b < blades; b++ {
		if count[b] > count[home] {
			home = b
		}
	}
	if count[home] < 2 {
		t.Fatalf("no home other than the reader's homes two keys of the run: %v", count)
	}
	var moved cache.Key
	for i := int64(0); ; i++ {
		if moved = kb(i); homeOf(moved, blades) == home {
			break
		}
	}
	to := (home + 1) % blades
	if to == reader.self {
		to = (to + 1) % blades
	}
	s := countVectors(h)
	// The new home takes 1 ms to adopt, so the migration holds the key's
	// directory entry at the old home while the reader's vector arrives.
	adopter := h.engines[to]
	adopter.conn.Register("coh.adopt", func(p *sim.Proc, from simnet.Addr, args any) (any, int) {
		p.Sleep(sim.Millisecond)
		return adopter.handleAdopt(p, from, args)
	})
	h.k.Go("migrate", func(p *sim.Proc) {
		ok, err := RequestMigrate(p, ctl, h.engines[home].peers[home], moved, to, NormalizeRetry(simnet.RetryPolicy{}))
		if err != nil || !ok {
			t.Errorf("migrate %v from %d to %d: moved=%v err=%v", moved, home, to, ok, err)
		}
	})
	h.run(func(p *sim.Proc) {
		p.Sleep(100 * sim.Microsecond) // the migration has the entry
		out, err := readRun(p, reader, 0, n)
		if err != nil {
			t.Fatalf("run read: %v", err)
		}
		for i, d := range out {
			if d[0] != byte(40+i) {
				t.Errorf("block %d reads %d, want %d", i, d[0], 40+i)
			}
		}
	})
	if got := reader.Stats().RedirectsFollowed; got != 1 {
		t.Fatalf("reader followed %d redirects, want 1", got)
	}
	if got := h.engines[home].Stats().RedirectsServed; got != 1 {
		t.Fatalf("old home served %d redirects, want 1", got)
	}
	if s.gets[home] != 1 || s.keys[home][0] != count[home] {
		t.Fatalf("old home served coh.gets carrying %v keys, want one vector of the run's %d", s.keys[home], count[home])
	}
	if want := count[to] + 1; sum(s.keys[to]) != want || s.keys[to][len(s.keys[to])-1] != 1 {
		t.Fatalf("new home served coh.gets carrying %v keys, want its own %d and then the redirected key alone", s.keys[to], count[to])
	}
	checkDirectoryInvariants(t, h, n)
}

// Under E11's lossy fabric, one home stops answering: its vector times out
// through every retry, so the op fails as degraded, and it installs nothing
// — not even the blocks whose homes did answer. Once the home answers again
// the same read succeeds.
func TestVectorToSilentHomeFailsDegraded(t *testing.T) {
	const blades, n = 4, 16
	backing := newMemBacking(2 * sim.Millisecond)
	h := newHarnessFull(3, blades, 64, backing, simnet.RetryPolicy{
		Timeout:    50 * sim.Millisecond,
		Attempts:   4,
		Backoff:    sim.Millisecond,
		MaxBackoff: 8 * sim.Millisecond,
		Jitter:     sim.Millisecond,
	})
	for i := int64(0); i < n; i++ {
		backing.data[kb(i)] = blk(byte(60 + i))
	}
	h.net.SetFaultsAll(simnet.FaultPlan{DropProb: 0.01, DupProb: 0.005, DelayProb: 0.05, MaxExtraDelay: 5 * sim.Millisecond})
	silent := homeOf(kb(0), blades)
	reader := h.engines[(silent+1)%blades]
	h.net.SetFaults(simnet.Addr(fmt.Sprintf("blade%d", silent)), "fabric", simnet.FaultPlan{DropProb: 1})
	h.run(func(p *sim.Proc) {
		_, err := readRun(p, reader, 0, n)
		if !errors.Is(err, ErrDegraded) {
			t.Fatalf("read with a silent home: %v, want ErrDegraded", err)
		}
		if got := reader.Cache().Len(); got != 0 {
			t.Fatalf("the failed read installed %d blocks", got)
		}
		h.net.SetFaults(simnet.Addr(fmt.Sprintf("blade%d", silent)), "fabric", simnet.FaultPlan{})
		out, err := readRun(p, reader, 0, n)
		if err != nil {
			t.Fatalf("read once the home answers: %v", err)
		}
		for i, d := range out {
			if d[0] != byte(60+i) {
				t.Errorf("block %d reads %d, want %d", i, d[0], 60+i)
			}
		}
	})
	if reader.Stats().DegradedOps == 0 {
		t.Fatal("no degraded protocol call counted")
	}
}

// A run's evictions reach their homes as one notice per home. One of those
// notices is held back until the reader has re-read one of its keys and
// registered again under a newer epoch: that key's notice must be ignored,
// or the fresh copy would fall outside the sharer set and miss the next
// write's invalidation. The notice's other keys are deregistered.
func TestLateBatchedEvictNoticeIgnored(t *testing.T) {
	const blades, n = 2, 8
	h := newHarness(1, blades, n)
	for i := int64(0); i < 2*n; i++ {
		h.backing.data[kb(i)] = blk(byte(i + 1))
	}
	reader, writer := h.engines[0], h.engines[1]
	type held struct {
		at   *Engine
		from simnet.Addr
		args any
	}
	var notices []held
	for _, e := range h.engines {
		e.conn.Register("coh.evict", func(p *sim.Proc, from simnet.Addr, args any) (any, int) {
			notices = append(notices, held{e, from, args})
			return nil, 0
		})
	}
	// The key the reader re-reads: one whose home is not the reader, so its
	// eviction travelled in a held notice with at least one other key.
	var again cache.Key
	for i := int64(0); i < n; i++ {
		if again = kb(i); homeOf(again, blades) != reader.self {
			break
		}
	}
	home := h.engines[homeOf(again, blades)]
	h.run(func(p *sim.Proc) {
		if _, err := readRun(p, reader, 0, n); err != nil {
			t.Fatal(err)
		}
		if _, err := readRun(p, reader, n, n); err != nil { // evicts blocks 0..7
			t.Fatal(err)
		}
		p.Sleep(sim.Millisecond)
		batch := notices
		notices = nil
		if len(batch) == 0 || len(batch) > blades {
			t.Fatalf("%d evict notices for one run's evictions, want one per home", len(batch))
		}
		if d, err := reader.ReadBlock(p, again, 0); err != nil || d[0] != byte(again.LBA+1) {
			t.Fatalf("re-read %v: %v", again, err)
		}
		for _, nt := range batch {
			if len(nt.args.([]evictNote)) < 2 && nt.at == home {
				t.Fatalf("the notice to blade %d carries one key: not a batch", home.self)
			}
			nt.at.handleEvictNote(p, nt.from, nt.args)
		}
		for _, nt := range notices { // the re-read's own eviction
			nt.at.handleEvictNote(p, nt.from, nt.args)
		}
	})
	ent := home.dir[again]
	if epoch, ok := ent.sharers.epoch(reader.self); ent.state != dirShared || !ok || epoch == 0 {
		t.Fatalf("%v after the late notice: state %d, sharers %v; want the reader registered under its newer epoch", again, ent.state, ent.sharers)
	}
	for i := int64(0); i < n; i++ {
		k := kb(i)
		if k == again {
			continue
		}
		if ent := h.engines[homeOf(k, blades)].dir[k]; ent.state != dirInvalid {
			t.Errorf("%v still registered after its notice: state %d, sharers %v", k, ent.state, ent.sharers)
		}
	}
	checkDirectoryInvariants(t, h, 2*n)
	h.run(func(p *sim.Proc) {
		if err := writer.WriteBlock(p, again, blk(99), 0); err != nil {
			t.Fatal(err)
		}
		if d, err := reader.ReadBlock(p, again, 0); err != nil || d[0] != 99 {
			t.Fatalf("reader rereads %v as %d (%v) after the write, want 99", again, d[0], err)
		}
	})
}
