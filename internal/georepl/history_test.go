package georepl

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// slowIO is a memIO whose reads yield: a read copies its bytes and then
// takes delay(). At a home over slowIO, a write can land while a read for a
// remote fetch is under way — which memIO, never yielding, cannot show.
type slowIO struct {
	*memIO
	delay func() sim.Duration
}

func (s slowIO) ReadBlocks(p *sim.Proc, vol string, lba int64, count, prio int) ([]byte, error) {
	buf, err := s.memIO.ReadBlocks(p, vol, lba, count, prio)
	p.Sleep(s.delay())
	return buf, err
}

// newSlowGeoRig is newGeoRig over slowIO.
func newSlowGeoRig(t *testing.T, oneWay sim.Duration, cfg Config, delay sim.Duration) *geoRig {
	t.Helper()
	k := sim.NewKernel(1)
	t.Cleanup(k.Close)
	return buildGeoRig(t, k, oneWay, cfg, func() pfs.BlockIO {
		return slowIO{newMemIO(), func() sim.Duration { return delay }}
	})
}

// A home write that lands while the home reads for B's fetch invalidates B:
// B's re-read after the write's acknowledgement returns the new bytes, not
// the old ones that fetch carried.
func TestWriteDuringHomeReadInvalidatesReader(t *testing.T) {
	r := newSlowGeoRig(t, 5*sim.Millisecond, Config{HotThreshold: 100, PrefetchBytes: 1 << 20}, 20*sim.Millisecond)
	r.run(func(p *sim.Proc) {
		r.a.Create(p, "/f", pfs.Policy{})
		if err := r.a.WriteAt(p, "/f", 0, payload(2048, 1)); err != nil {
			t.Fatalf("write: %v", err)
		}
		read := false
		r.k.Go("reader", func(q *sim.Proc) {
			r.b.ReadAt(q, "/f", 0, make([]byte, 2048))
			read = true
		})
		// The fetch reaches A at 5 ms, and A's read of it runs to 25 ms.
		p.Sleep(10 * sim.Millisecond)
		newData := payload(2048, 2)
		if err := r.a.WriteAt(p, "/f", 0, newData); err != nil {
			t.Fatalf("write during the fetch: %v", err)
		}
		p.Sleep(sim.Second)
		if !read {
			t.Fatal("B's first read did not finish")
		}
		buf := make([]byte, 2048)
		if n, err := r.b.ReadAt(p, "/f", 0, buf); err != nil || n != 2048 {
			t.Fatalf("re-read: n=%d err=%v", n, err)
		}
		if !bytes.Equal(buf, newData) {
			t.Fatalf("B re-read the bytes its fetch carried from before the acknowledged write (%d invalidations, %d prefetch hits)",
				r.a.Stats.Invalidations, r.b.Stats.PrefetchHits)
		}
	})
}

// A live holder that answers no invalidation fails the write, naming it,
// and stays a holder: no write that returns nil leaves it serving the old
// bytes, and the first write after the link heals invalidates it.
func TestUnansweredInvalidationFailsTheWrite(t *testing.T) {
	r := newGeoRig(t, 5*sim.Millisecond, Config{HotThreshold: 100, PrefetchBytes: 1 << 20})
	r.run(func(p *sim.Proc) {
		r.a.Create(p, "/f", pfs.Policy{})
		r.a.WriteAt(p, "/f", 0, payload(2048, 1))
		buf := make([]byte, 2048)
		r.b.ReadAt(p, "/f", 0, buf)
		r.fed.wan.SetFaults("A", "B", simnet.FaultPlan{DropProb: 1})
		for round, seed := range []byte{2, 3} {
			newData := payload(2048, seed)
			err := r.a.WriteAt(p, "/f", 0, newData)
			if round == 0 && err != nil && !strings.Contains(err.Error(), " at B") {
				t.Fatalf("the failed write does not name the holder: %v", err)
			}
			if round == 1 && err != nil {
				t.Fatalf("write after the link healed: %v", err)
			}
			r.fed.wan.SetFaults("A", "B", simnet.FaultPlan{})
			if err != nil {
				continue
			}
			if _, err := r.b.ReadAt(p, "/f", 0, buf); err != nil {
				t.Fatalf("round %d: re-read: %v", round, err)
			}
			if !bytes.Equal(buf, newData) {
				t.Fatalf("round %d: a write returned nil and B still serves the old bytes", round)
			}
		}
	})
}

// The history checker. A schedule runs random reads and writes, from
// several clients at random sites and times, over three sites whose I/O
// yields, and records every op. Each write fills its range with its own
// id, one little-endian uint64 per 8-byte word, so every word a read
// returns names the write it came from. check then holds each word to the
// contract of DESIGN §5: a read returns the last write acknowledged before
// it started, or one concurrent with it.

const (
	wordSize = 8
	histFile = 2048 // bytes per checked file
)

// histOp is one recorded client op. Its start and end are steps of the
// schedule, which runs one process at a time, so two ops at the same
// virtual instant are still ordered. A failed write ends never: it may take
// effect at any time after its start.
type histOp struct {
	site, path string
	write      bool
	off        int64
	data       []byte // the bytes written, or the bytes a read returned
	start, end int64
}

func (o histOp) covers(x int64) bool { return o.off <= x && x < o.off+int64(len(o.data)) }

const never = math.MaxInt64

// wordsOf returns n bytes of words each holding id.
func wordsOf(id uint64, n int) []byte {
	out := make([]byte, n)
	for i := 0; i < n; i += wordSize {
		binary.LittleEndian.PutUint64(out[i:], id)
	}
	return out
}

// check returns the first read in ops that returned a word no allowed
// write produced. Write ids are their indices in ops plus one; 0 is the
// never-written word.
func check(ops []histOp) error {
	// superseded reports whether an acknowledged write to word x started
	// after end and ended before t.
	superseded := func(path string, x, end, t int64) bool {
		for _, w := range ops {
			if w.write && w.path == path && w.covers(x) && w.start > end && w.end < t {
				return true
			}
		}
		return false
	}
	for _, r := range ops {
		if r.write {
			continue
		}
		for i := 0; i+wordSize <= len(r.data); i += wordSize {
			x := r.off + int64(i)
			id := binary.LittleEndian.Uint64(r.data[i:])
			var ok bool
			if id == 0 {
				ok = !superseded(r.path, x, math.MinInt64, r.start)
			} else if id <= uint64(len(ops)) {
				w := ops[id-1]
				ok = w.write && w.path == r.path && w.covers(x) && w.start < r.end && !superseded(r.path, x, w.end, r.start)
			}
			if !ok {
				return fmt.Errorf("read at %s of %s [%d, %d) over [%v, %v]: byte %d holds write %d, which is neither the last acknowledged write before the read nor concurrent with it",
					r.site, r.path, r.off, r.off+int64(len(r.data)), r.start, r.end, x, id)
			}
		}
	}
	return nil
}

// runSchedule plays schedule seed and checks its history; lossy puts
// drops, duplicates and delays on every WAN link once the files exist.
func runSchedule(t *testing.T, seed int64, lossy bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pick := func(xs ...int64) int64 { return xs[rng.Intn(len(xs))] }
	cfg := Config{
		PrefetchBytes: pick(512, 2048, 8192),
		HotThreshold:  int(pick(1, 2, 3, 1000)),
		ShipInterval:  sim.Duration(pick(2, 10)) * sim.Millisecond,
	}
	oneWay := sim.Duration(pick(1, 2, 5)) * sim.Millisecond
	// Half the reads take maxDelay and half take no time, so fetches
	// often answer out of order.
	maxDelay := pick(10, 40) * int64(sim.Millisecond)
	k := sim.NewKernel(seed)
	defer k.Close()
	r := buildGeoRig(t, k, oneWay, cfg, func() pfs.BlockIO {
		return slowIO{newMemIO(), func() sim.Duration { return sim.Duration(rng.Int63n(2) * maxDelay) }}
	})
	sites := []*Site{r.a, r.b, r.c}
	paths := []string{"/f0", "/f1", "/f2"}[:2+rng.Intn(2)]

	var ops []histOp
	step := int64(0)
	now := func() int64 { step++; return step }
	record := func(o histOp) int {
		ops = append(ops, o)
		return len(ops) - 1
	}
	// doWrite records a write with its id, runs it and records its end.
	doWrite := func(p *sim.Proc, s *Site, path string, off int64, n int) {
		i := record(histOp{site: s.Name, path: path, write: true, off: off, start: now(), end: never})
		ops[i].data = wordsOf(uint64(i+1), n)
		if err := s.WriteAt(p, path, off, ops[i].data); err == nil {
			ops[i].end = now()
		}
	}
	setup := false
	k.Go("setup", func(p *sim.Proc) {
		for _, path := range paths {
			home := sites[rng.Intn(3)]
			pol := pfs.Policy{}
			if mode := rng.Intn(3); mode > 0 {
				other := sites[(slices.Index(sites, home)+1+rng.Intn(2))%3].Name
				pol.Geo = pfs.GeoPolicy{Mode: []pfs.GeoMode{pfs.GeoSync, pfs.GeoAsync}[mode-1], Sites: []string{other}}
			}
			if err := home.Create(p, path, pol); err != nil {
				t.Errorf("create %s: %v", path, err)
			}
			doWrite(p, home, path, 0, histFile)
		}
		setup = true
	})
	k.RunFor(10 * sim.Second)
	if !setup {
		t.Fatalf("schedule %d: setup did not finish", seed)
	}
	if lossy {
		r.fed.wan.SetFaultsAll(simnet.FaultPlan{DropProb: 0.05, DupProb: 0.05, DelayProb: 0.2, MaxExtraDelay: 30 * sim.Millisecond})
	}

	const clients, opsEach = 6, 20
	left := clients
	for c := 0; c < clients; c++ {
		k.Go("client", func(p *sim.Proc) {
			defer func() { left-- }()
			for range opsEach {
				if rng.Intn(2) == 0 {
					p.Sleep(sim.Duration(rng.Int63n(int64(30 * sim.Millisecond))))
				}
				s, path := sites[rng.Intn(3)], paths[rng.Intn(len(paths))]
				words := histFile / wordSize
				lo := rng.Intn(words)
				n := wordSize * (1 + rng.Intn(min(64, words-lo)))
				off := int64(lo * wordSize)
				if rng.Intn(5) < 2 {
					doWrite(p, s, path, off, n)
					continue
				}
				buf := make([]byte, n)
				start := now()
				got, err := s.ReadAt(p, path, off, buf)
				if err == nil {
					record(histOp{site: s.Name, path: path, off: off, data: buf[:got], start: start, end: now()})
				}
			}
		})
	}
	for limit := k.Now().Add(1800 * sim.Second); left > 0 && k.Now() < limit; {
		k.RunFor(sim.Second)
	}
	if left > 0 {
		t.Fatalf("schedule %d: %d clients did not finish", seed, left)
	}
	if err := check(ops); err != nil {
		t.Fatalf("schedule %d (lossy %v, %d ops): %v", seed, lossy, len(ops), err)
	}
}

// Every schedule's history keeps the contract, over a clean WAN and over
// one that drops, duplicates and delays messages. Under -short a slice of
// 16 schedules runs.
func TestHistoryKeepsTheContract(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 16
	}
	for _, lossy := range []bool{false, true} {
		for seed := int64(1); seed <= int64(n); seed++ {
			runSchedule(t, seed, lossy)
		}
	}
}

// check itself: a read that returns a write superseded before it started
// is caught, and one concurrent with a write may return either value.
func TestCheckerCatchesAStaleRead(t *testing.T) {
	w := func(id uint64, start, end int64) histOp {
		return histOp{write: true, path: "/f", data: wordsOf(id, 16), start: start, end: end}
	}
	rd := func(id uint64, start, end int64) histOp {
		return histOp{path: "/f", data: wordsOf(id, 16), start: start, end: end}
	}
	for _, tc := range []struct {
		ops  []histOp
		good bool
	}{
		{[]histOp{w(1, 0, 10), w(2, 20, 30), rd(2, 40, 50)}, true},
		{[]histOp{w(1, 0, 10), w(2, 20, 30), rd(1, 40, 50)}, false},
		{[]histOp{w(1, 0, 10), w(2, 20, 30), rd(1, 25, 50)}, true},
		{[]histOp{w(1, 0, 10), w(2, 20, never), rd(1, 40, 50)}, true},
		{[]histOp{w(1, 0, 10), rd(0, 40, 50)}, false},
		{[]histOp{w(1, 30, 40), rd(1, 10, 20)}, false},
	} {
		if err := check(tc.ops); (err == nil) != tc.good {
			t.Errorf("check(%v) = %v, want good %v", tc.ops, err, tc.good)
		}
	}
}
