package georepl

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// memIO is an instant in-memory pfs.BlockIO: with local I/O free, test
// timings are dominated by the WAN, which is what §7 is about.
type memIO struct {
	bs   int
	vols map[string]map[int64][]byte
}

func newMemIO() *memIO {
	return &memIO{bs: 512, vols: map[string]map[int64][]byte{"v": make(map[int64][]byte)}}
}

func (m *memIO) BlockSize() int { return m.bs }

func (m *memIO) ReadBlocks(p *sim.Proc, vol string, lba int64, count, prio int) ([]byte, error) {
	buf := make([]byte, count*m.bs)
	for i := 0; i < count; i++ {
		if b, ok := m.vols[vol][lba+int64(i)]; ok {
			copy(buf[i*m.bs:], b)
		}
	}
	return buf, nil
}

func (m *memIO) WriteBlocks(p *sim.Proc, vol string, lba int64, data []byte, prio, repl int) error {
	for i := 0; i < len(data)/m.bs; i++ {
		b := make([]byte, m.bs)
		copy(b, data[i*m.bs:])
		m.vols[vol][lba+int64(i)] = b
	}
	return nil
}

type geoRig struct {
	k   *sim.Kernel
	fed *Federation
	a   *Site
	b   *Site
	c   *Site
}

// newGeoRig builds three sites in a triangle with the given one-way WAN
// latency, each over an instant memIO.
func newGeoRig(t *testing.T, oneWay sim.Duration, cfg Config) *geoRig {
	t.Helper()
	k := sim.NewKernel(1)
	t.Cleanup(k.Close)
	return buildGeoRig(t, k, oneWay, cfg, func() pfs.BlockIO { return newMemIO() })
}

// buildGeoRig is newGeoRig on a given kernel, with each site's file system
// over a BlockIO from mkIO. The caller closes k.
func buildGeoRig(t testing.TB, k *sim.Kernel, oneWay sim.Duration, cfg Config, mkIO func() pfs.BlockIO) *geoRig {
	t.Helper()
	fed := NewFederation(k, cfg)
	mkFS := func() *pfs.FS {
		fs, err := pfs.New(k, pfs.Config{
			IO:           mkIO(),
			Classes:      map[string]string{"c": "v"},
			DefaultClass: "c",
		})
		if err != nil {
			t.Fatal(err)
		}
		return fs
	}
	r := &geoRig{k: k, fed: fed}
	r.a = fed.AddSite("A", mkFS())
	r.b = fed.AddSite("B", mkFS())
	r.c = fed.AddSite("C", mkFS())
	link := simnet.WAN(oneWay, 1_000_000_000)
	fed.Connect("A", "B", link)
	fed.Connect("B", "C", link)
	fed.Connect("A", "C", link)
	return r
}

func (r *geoRig) run(body func(p *sim.Proc)) {
	done := false
	r.k.Go("test", func(p *sim.Proc) {
		body(p)
		done = true
	})
	r.k.RunFor(600 * sim.Second)
	if !done {
		panic("geo test did not finish in virtual time budget")
	}
}

func payload(n int, seed byte) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i)*11 + seed
	}
	return out
}

func TestLocalCreateAndRead(t *testing.T) {
	r := newGeoRig(t, 20*sim.Millisecond, Config{})
	data := payload(4096, 1)
	r.run(func(p *sim.Proc) {
		if err := r.a.Create(p, "/data/f", pfs.Policy{}); err != nil {
			t.Errorf("create: %v", err)
			return
		}
		if err := r.a.WriteAt(p, "/data/f", 0, data); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		got, err := r.a.ReadFile(p, "/data/f")
		if err != nil || !bytes.Equal(got, data) {
			t.Errorf("local read mismatch err=%v", err)
		}
	})
	if r.a.Stats.RemoteReads != 0 {
		t.Fatal("home read went remote")
	}
}

func TestRemoteFirstTouchThenPrefetch(t *testing.T) {
	const oneWay = 40 * sim.Millisecond
	r := newGeoRig(t, oneWay, Config{PrefetchBytes: 64 << 10, HotThreshold: 100})
	data := payload(32<<10, 3)
	var first, second sim.Duration
	r.run(func(p *sim.Proc) {
		r.a.Create(p, "/f", pfs.Policy{})
		r.a.WriteAt(p, "/f", 0, data)

		buf := make([]byte, 4096)
		t0 := p.Now()
		if _, err := r.b.ReadAt(p, "/f", 0, buf); err != nil {
			t.Errorf("remote read: %v", err)
			return
		}
		first = p.Now().Sub(t0)
		if !bytes.Equal(buf, data[:4096]) {
			t.Error("remote read wrong data")
		}
		// The rest of the file was prefetched: local speed.
		t1 := p.Now()
		if _, err := r.b.ReadAt(p, "/f", 8192, buf); err != nil {
			t.Errorf("prefetched read: %v", err)
			return
		}
		second = p.Now().Sub(t1)
		if !bytes.Equal(buf, data[8192:8192+4096]) {
			t.Error("prefetched read wrong data")
		}
	})
	if first < 2*oneWay {
		t.Fatalf("first remote read %v cheaper than a WAN RTT %v", first, 2*oneWay)
	}
	if second*10 > first {
		t.Fatalf("prefetched read %v not ≫ faster than first %v", second, first)
	}
	if r.b.Stats.RemoteReads != 1 || r.b.Stats.PrefetchHits != 1 {
		t.Fatalf("stats = %+v, want 1 remote + 1 prefetch hit", r.b.Stats)
	}
}

func TestHotFilePromotion(t *testing.T) {
	r := newGeoRig(t, 10*sim.Millisecond, Config{PrefetchBytes: 1024, HotThreshold: 3})
	data := payload(16<<10, 5)
	r.run(func(p *sim.Proc) {
		r.a.Create(p, "/hot", pfs.Policy{})
		r.a.WriteAt(p, "/hot", 0, data)
		buf := make([]byte, 512)
		// Access repeatedly from B at scattered offsets.
		for i := 0; i < 4; i++ {
			r.b.ReadAt(p, "/hot", int64(i*4096), buf)
		}
		// The promotion pull runs in the background; let it land.
		p.Sleep(500 * sim.Millisecond)
		if r.b.Stats.Promotions != 1 {
			t.Errorf("promotions = %d, want 1", r.b.Stats.Promotions)
		}
		// Whole file must now be local at B.
		t0 := p.Now()
		got, err := r.b.ReadFile(p, "/hot")
		if err != nil || !bytes.Equal(got, data) {
			t.Errorf("promoted read mismatch err=%v", err)
		}
		if d := p.Now().Sub(t0); d >= 10*sim.Millisecond {
			t.Errorf("promoted full read took %v, want local speed", d)
		}
	})
}

func TestWriteInvalidatesRemoteReplicas(t *testing.T) {
	r := newGeoRig(t, 5*sim.Millisecond, Config{HotThreshold: 1, PrefetchBytes: 1 << 20})
	r.run(func(p *sim.Proc) {
		r.a.Create(p, "/f", pfs.Policy{})
		r.a.WriteAt(p, "/f", 0, payload(2048, 1))
		buf := make([]byte, 2048)
		r.b.ReadAt(p, "/f", 0, buf) // B builds a replica (threshold 1)
		if r.b.Stats.Promotions != 1 {
			t.Errorf("B not promoted")
		}
		// Home write invalidates B.
		newData := payload(2048, 9)
		r.a.WriteAt(p, "/f", 0, newData)
		p.Sleep(50 * sim.Millisecond) // let the invalidation land
		n, err := r.b.ReadAt(p, "/f", 0, buf)
		if err != nil || n != 2048 {
			t.Errorf("read after invalidate: n=%d err=%v", n, err)
			return
		}
		if !bytes.Equal(buf, newData) {
			t.Error("B read stale data after home write")
		}
	})
}

// The home acknowledges a write only once every site with a cache replica
// has dropped it: a re-read there right after the acknowledgement, with no
// pause, sees the new bytes — whether the write came from another site or
// from the caching site itself, forwarded to the home.
func TestReplicaRereadRightAfterAckedWriteIsFresh(t *testing.T) {
	r := newGeoRig(t, 5*sim.Millisecond, Config{HotThreshold: 1, PrefetchBytes: 1 << 20})
	r.run(func(p *sim.Proc) {
		r.a.Create(p, "/f", pfs.Policy{})
		r.a.WriteAt(p, "/f", 0, payload(2048, 1))
		buf := make([]byte, 2048)
		for round, w := range []*Site{r.a, r.b} {
			r.b.ReadAt(p, "/f", 0, buf) // B holds a replica (threshold 1)
			if r.b.Stats.Promotions != int64(round+1) {
				t.Fatalf("round %d: B not promoted", round)
			}
			newData := payload(2048, byte(9+round))
			if err := w.WriteAt(p, "/f", 0, newData); err != nil {
				t.Fatalf("round %d: write at %s: %v", round, w.Name, err)
			}
			if n, err := r.b.ReadAt(p, "/f", 0, buf); err != nil || n != 2048 {
				t.Fatalf("round %d: re-read: n=%d err=%v", round, n, err)
			}
			if !bytes.Equal(buf, newData) {
				t.Fatalf("round %d: B re-read stale bytes right after %s's acknowledged write", round, w.Name)
			}
		}
	})
}

// A site that fetched part of a file, without reading it often enough to be
// promoted, is invalidated by the home's write like a promoted one: its
// re-read right after the acknowledgement fetches the new bytes.
func TestFetchedRangeRereadAfterAckedWriteIsFresh(t *testing.T) {
	r := newGeoRig(t, 5*sim.Millisecond, Config{HotThreshold: 100, PrefetchBytes: 1 << 20})
	r.run(func(p *sim.Proc) {
		r.a.Create(p, "/f", pfs.Policy{})
		r.a.WriteAt(p, "/f", 0, payload(2048, 1))
		buf := make([]byte, 2048)
		r.b.ReadAt(p, "/f", 0, buf)
		newData := payload(2048, 2)
		if err := r.a.WriteAt(p, "/f", 0, newData); err != nil {
			t.Fatalf("write: %v", err)
		}
		if n, err := r.b.ReadAt(p, "/f", 0, buf); err != nil || n != 2048 {
			t.Fatalf("re-read: n=%d err=%v", n, err)
		}
		if !bytes.Equal(buf, newData) {
			t.Fatalf("B re-read its fetched range stale (prefetch hits %d, invalidations %d)",
				r.b.Stats.PrefetchHits, r.a.Stats.Invalidations)
		}
	})
}

// An async durability replica that also read the file is invalidated by the
// next write, but keeps its file: that is the journaled copy, which the
// journal then brings up to date.
func TestAsyncReplicaThatReadKeepsItsCopy(t *testing.T) {
	r := newGeoRig(t, 5*sim.Millisecond, Config{HotThreshold: 100, PrefetchBytes: 1 << 20, ShipInterval: sim.Millisecond})
	pol := pfs.Policy{Geo: pfs.GeoPolicy{Mode: pfs.GeoAsync, Sites: []string{"B"}}}
	r.run(func(p *sim.Proc) {
		r.a.Create(p, "/f", pol)
		r.a.WriteAt(p, "/f", 0, payload(2048, 1))
		p.Sleep(100 * sim.Millisecond) // shipped
		buf := make([]byte, 2048)
		r.b.ReadAt(p, "/f", 0, buf)
		newData := payload(2048, 2)
		r.a.WriteAt(p, "/f", 0, newData)
		if r.a.Stats.Invalidations != 1 {
			t.Fatalf("%d invalidations, want B's", r.a.Stats.Invalidations)
		}
		if _, err := r.b.FS().Stat("/f"); err != nil {
			t.Fatalf("the invalidation removed B's durability copy: %v", err)
		}
		p.Sleep(100 * sim.Millisecond)
		if got, err := r.b.FS().ReadFile(p, "/f"); err != nil || !bytes.Equal(got, newData) {
			t.Fatalf("B's durability copy did not converge: %v", err)
		}
	})
}

// A write to a file cached at a site that is down is still acknowledged:
// the down site cannot serve its stale copy.
func TestWriteAcknowledgedWithCachingSiteDown(t *testing.T) {
	r := newGeoRig(t, 5*sim.Millisecond, Config{HotThreshold: 1, PrefetchBytes: 1 << 20})
	r.run(func(p *sim.Proc) {
		r.a.Create(p, "/f", pfs.Policy{})
		r.a.WriteAt(p, "/f", 0, payload(2048, 1))
		buf := make([]byte, 2048)
		r.b.ReadAt(p, "/f", 0, buf)
		r.fed.FailSite("B")
		if err := r.a.WriteAt(p, "/f", 0, payload(2048, 2)); err != nil {
			t.Fatalf("write with the caching site down: %v", err)
		}
		if _, err := r.b.ReadAt(p, "/f", 0, buf); !errors.Is(err, ErrSiteDown) {
			t.Fatalf("the down site served a read: %v", err)
		}
	})
}

func TestForwardedWrite(t *testing.T) {
	r := newGeoRig(t, 15*sim.Millisecond, Config{})
	data := payload(1024, 7)
	var elapsed sim.Duration
	r.run(func(p *sim.Proc) {
		r.a.Create(p, "/f", pfs.Policy{})
		t0 := p.Now()
		if err := r.b.WriteAt(p, "/f", 0, data); err != nil {
			t.Errorf("forwarded write: %v", err)
			return
		}
		elapsed = p.Now().Sub(t0)
		got, err := r.a.ReadFile(p, "/f")
		if err != nil || !bytes.Equal(got, data) {
			t.Error("forwarded write lost")
		}
	})
	if elapsed < 30*sim.Millisecond {
		t.Fatalf("forwarded write latency %v < WAN RTT", elapsed)
	}
	if r.b.Stats.WritesProxy != 1 || r.a.Stats.WritesHome != 1 {
		t.Fatal("proxy accounting wrong")
	}
}

func TestSyncReplicationLatencyAndDurability(t *testing.T) {
	const oneWay = 25 * sim.Millisecond
	r := newGeoRig(t, oneWay, Config{})
	pol := pfs.Policy{Geo: pfs.GeoPolicy{Mode: pfs.GeoSync, Copies: 1, Sites: []string{"B"}}}
	data := payload(2048, 2)
	var elapsed sim.Duration
	r.run(func(p *sim.Proc) {
		r.a.Create(p, "/key", pol)
		t0 := p.Now()
		if err := r.a.WriteAt(p, "/key", 0, data); err != nil {
			t.Errorf("sync write: %v", err)
			return
		}
		elapsed = p.Now().Sub(t0)
		// The replica is already on B's local FS.
		got, err := r.b.FS().ReadFile(p, "/key")
		if err != nil || !bytes.Equal(got, data) {
			t.Errorf("sync replica missing on B: %v", err)
		}
	})
	if elapsed < 2*oneWay {
		t.Fatalf("sync write %v did not wait for the WAN RTT %v", elapsed, 2*oneWay)
	}
	if r.a.JournalDepth("B") != 0 {
		t.Fatal("sync mode left a journal backlog")
	}
}

func TestAsyncReplicationLocalLatencyThenConvergence(t *testing.T) {
	const oneWay = 25 * sim.Millisecond
	r := newGeoRig(t, oneWay, Config{ShipInterval: sim.Millisecond})
	pol := pfs.Policy{Geo: pfs.GeoPolicy{Mode: pfs.GeoAsync, Sites: []string{"C"}}}
	data := payload(2048, 4)
	var elapsed sim.Duration
	r.run(func(p *sim.Proc) {
		r.a.Create(p, "/bulk", pol)
		t0 := p.Now()
		if err := r.a.WriteAt(p, "/bulk", 0, data); err != nil {
			t.Errorf("async write: %v", err)
			return
		}
		elapsed = p.Now().Sub(t0)
		if elapsed >= oneWay {
			t.Errorf("async write latency %v includes WAN wait", elapsed)
		}
		if r.a.JournalDepth("C") == 0 {
			t.Error("no journal backlog right after async write")
		}
		p.Sleep(200 * sim.Millisecond) // shipper drains
		if r.a.JournalDepth("C") != 0 {
			t.Error("journal did not drain")
		}
		got, err := r.c.FS().ReadFile(p, "/bulk")
		if err != nil || !bytes.Equal(got, data) {
			t.Errorf("async replica did not converge: %v", err)
		}
	})
}

func TestAsyncShipmentsApplyInWriteOrder(t *testing.T) {
	r := newGeoRig(t, 5*sim.Millisecond, Config{ShipInterval: sim.Millisecond})
	pol := pfs.Policy{Geo: pfs.GeoPolicy{Mode: pfs.GeoAsync, Sites: []string{"B"}}}
	r.run(func(p *sim.Proc) {
		r.a.Create(p, "/seq", pol)
		for i := 0; i < 8; i++ {
			r.a.WriteAt(p, "/seq", 0, payload(512, byte(i)))
		}
		p.Sleep(300 * sim.Millisecond)
		got, err := r.b.FS().ReadFile(p, "/seq")
		if err != nil || !bytes.Equal(got, payload(512, 7)) {
			t.Error("final replica content is not the last write (ordering broken)")
		}
	})
}

func TestSiteDisasterSyncNoLoss(t *testing.T) {
	r := newGeoRig(t, 20*sim.Millisecond, Config{})
	pol := pfs.Policy{Geo: pfs.GeoPolicy{Mode: pfs.GeoSync, Sites: []string{"B"}}}
	data := payload(4096, 6)
	r.run(func(p *sim.Proc) {
		r.a.Create(p, "/critical", pol)
		r.a.WriteAt(p, "/critical", 0, data)
		// Site A is destroyed.
		r.fed.FailSite("A")
		recovered, lost := r.fed.Failover("A")
		if recovered != 1 || lost != 0 {
			t.Errorf("failover: recovered=%d lost=%d", recovered, lost)
			return
		}
		// The file is now served by B, complete.
		got, err := r.b.ReadFile(p, "/critical")
		if err != nil || !bytes.Equal(got, data) {
			t.Error("sync-replicated file lost data in site disaster")
		}
	})
}

func TestSiteDisasterAsyncLossWindow(t *testing.T) {
	r := newGeoRig(t, 20*sim.Millisecond, Config{ShipInterval: sim.Second}) // slow shipper
	pol := pfs.Policy{Geo: pfs.GeoPolicy{Mode: pfs.GeoAsync, Sites: []string{"B"}}}
	r.run(func(p *sim.Proc) {
		r.a.Create(p, "/journal", pol)
		r.a.WriteAt(p, "/journal", 0, payload(1024, 1))
		p.Sleep(2 * sim.Second) // first write ships
		r.a.WriteAt(p, "/journal", 1024, payload(1024, 2))
		backlog := r.a.JournalDepth("B")
		if backlog == 0 {
			t.Error("second write already shipped; test premise broken")
		}
		// Disaster strikes before the journal drains.
		r.fed.FailSite("A")
		recovered, _ := r.fed.Failover("A")
		if recovered != 1 {
			t.Errorf("recovered = %d", recovered)
			return
		}
		got, err := r.b.ReadFile(p, "/journal")
		if err != nil {
			t.Errorf("read after failover: %v", err)
			return
		}
		// The RPO window: only the first KiB survived.
		if int64(len(got)) != 1024 {
			t.Errorf("surviving bytes = %d, want 1024 (async loss window)", len(got))
		}
	})
}

func TestFailoverNoReplicaLosesFile(t *testing.T) {
	r := newGeoRig(t, 10*sim.Millisecond, Config{})
	r.run(func(p *sim.Proc) {
		r.a.Create(p, "/unreplicated", pfs.Policy{}) // GeoNone
		r.a.WriteAt(p, "/unreplicated", 0, payload(512, 1))
		r.fed.FailSite("A")
		recovered, lost := r.fed.Failover("A")
		if recovered != 0 || lost != 1 {
			t.Errorf("recovered=%d lost=%d, want 0/1", recovered, lost)
		}
	})
}

func TestDownSiteRejectsIO(t *testing.T) {
	r := newGeoRig(t, 10*sim.Millisecond, Config{})
	r.run(func(p *sim.Proc) {
		r.a.Create(p, "/f", pfs.Policy{})
		r.fed.FailSite("B")
		if _, err := r.b.ReadAt(p, "/f", 0, make([]byte, 10)); !errors.Is(err, ErrSiteDown) {
			t.Errorf("err = %v, want ErrSiteDown", err)
		}
	})
}

func TestDuplicateCreateRejected(t *testing.T) {
	r := newGeoRig(t, 10*sim.Millisecond, Config{})
	r.run(func(p *sim.Proc) {
		r.a.Create(p, "/f", pfs.Policy{})
		if err := r.b.Create(p, "/f", pfs.Policy{}); !errors.Is(err, ErrFileExists) {
			t.Errorf("err = %v, want ErrFileExists (global namespace)", err)
		}
	})
}

// Property: rangeSet add/contains agrees with a brute-force bitmap.
func TestRangeSetProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		rs := &rangeSet{}
		bitmap := make([]bool, 256)
		for _, op := range ops {
			lo := int64(op % 256)
			hi := lo + int64(op>>8)%32
			if hi > 256 {
				hi = 256
			}
			rs.add(lo, hi)
			for i := lo; i < hi; i++ {
				bitmap[i] = true
			}
		}
		// Check contains on sampled windows.
		for lo := int64(0); lo < 256; lo += 7 {
			for _, span := range []int64{1, 3, 17} {
				hi := lo + span
				if hi > 256 {
					continue
				}
				want := true
				for i := lo; i < hi; i++ {
					if !bitmap[i] {
						want = false
						break
					}
				}
				if rs.contains(lo, hi) != want {
					return false
				}
			}
		}
		var covered int64
		for _, b := range bitmap {
			if b {
				covered++
			}
		}
		return rs.covered() == covered
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// ReadFile reads a whole file through the single system image.
func (s *Site) ReadFile(p *sim.Proc, path string) ([]byte, error) {
	m, ok := s.fed.meta[path]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoFile, path)
	}
	buf := make([]byte, m.size)
	n, err := s.ReadAt(p, path, 0, buf)
	return buf[:n], err
}

// JournalDepth returns the number of writes not yet shipped to dst — the
// measurable RPO exposure of async mode.
func (s *Site) JournalDepth(dst string) int { return len(s.journals[dst]) }

// A policy that limits copies but names no sites picks them by name: the
// same file must replicate to the same sites, in the same order, every time
// the targets are resolved (they used to follow the site map's order).
func TestDuraTargetsAreSortedByName(t *testing.T) {
	r := newGeoRig(t, 10*sim.Millisecond, Config{})
	r.fed.AddSite("D", nil)
	for copies, want := range map[int]string{1: "B", 2: "B,C", 0: "B,C,D"} {
		m := &fileMeta{home: "A", policy: pfs.Policy{Geo: pfs.GeoPolicy{Mode: pfs.GeoSync, Copies: copies}}}
		for i := 0; i < 50; i++ {
			if got := strings.Join(r.a.duraTargets(m), ","); got != want {
				t.Fatalf("Copies %d, call %d: targets %s, want %s", copies, i, got, want)
			}
		}
	}
}
