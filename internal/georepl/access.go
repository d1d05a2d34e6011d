package georepl

import (
	"fmt"
	"sort"

	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// rangeSet tracks which byte ranges of a remote file exist locally.
type rangeSet struct {
	runs [][2]int64 // sorted, disjoint [lo, hi)
}

// add inserts [lo, hi), merging overlaps.
func (r *rangeSet) add(lo, hi int64) {
	if hi <= lo {
		return
	}
	r.runs = append(r.runs, [2]int64{lo, hi})
	sort.Slice(r.runs, func(i, j int) bool { return r.runs[i][0] < r.runs[j][0] })
	merged := r.runs[:0]
	for _, run := range r.runs {
		n := len(merged)
		if n > 0 && run[0] <= merged[n-1][1] {
			if run[1] > merged[n-1][1] {
				merged[n-1][1] = run[1]
			}
			continue
		}
		merged = append(merged, run)
	}
	r.runs = merged
}

// contains reports whether [lo, hi) is fully present.
func (r *rangeSet) contains(lo, hi int64) bool {
	if hi <= lo {
		return true
	}
	for _, run := range r.runs {
		if run[0] <= lo && hi <= run[1] {
			return true
		}
	}
	return false
}

// covered returns the total bytes present.
func (r *rangeSet) covered() int64 {
	var n int64
	for _, run := range r.runs {
		n += run[1] - run[0]
	}
	return n
}

// remoteCopy is a site's record of one file homed elsewhere: the ranges
// it has fetched into its local file, how often it has read the file (for
// hot promotion, §7.1: "the system would recognize files that are commonly
// accessed at multiple locations and automatically replicate copies"), and
// whether a whole-file fetch is in flight or has landed. An invalidation
// deletes the record, and a fetch installs only into the record it was sent
// under: the record is the copy's generation.
type remoteCopy struct {
	rangeSet
	reads     int
	promoting bool
	promoted  bool
}

// servesLocally reports whether this site can serve path without the WAN:
// it is home, holds a promoted replica, or holds a synchronously maintained
// durability replica (async replicas may trail and do not serve).
func (s *Site) servesLocally(path string, m *fileMeta) bool {
	if m.home == s.Name {
		return true
	}
	if c := s.copies[path]; c != nil && c.promoted {
		return true
	}
	return m.duraReplicas[s.Name] && m.policy.Geo.Mode == pfs.GeoSync
}

// ReadAt reads through the single system image. Local data is served at
// local speed; remote data pays one WAN round trip and prefetches ahead,
// and files hot at this site are promoted to full local replicas (§7.1).
func (s *Site) ReadAt(p *sim.Proc, path string, off int64, buf []byte) (int, error) {
	if s.Down {
		return 0, ErrSiteDown
	}
	m, ok := s.fed.meta[path]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoFile, path)
	}
	if s.servesLocally(path, m) {
		s.Stats.LocalReads++
		return s.fs.ReadAt(p, path, off, buf)
	}

	// Remote-homed file.
	if off >= m.size {
		return 0, nil
	}
	end := min(off+int64(len(buf)), m.size)
	c := s.copies[path]
	if c == nil {
		c = &remoteCopy{}
		// An async durability site's file is the journal's copy, which may
		// trail the home: its record is never kept, so it installs nothing.
		if !m.duraReplicas[s.Name] {
			s.copies[path] = c
		}
	}
	c.reads++
	if c.contains(off, end) {
		// Previously fetched/prefetched: local performance.
		s.Stats.PrefetchHits++
		s.Stats.LocalReads++
		n, err := s.fs.ReadAt(p, path, off, buf[:end-off])
		if err == nil {
			s.maybePromote(path, m)
		}
		return n, err
	}

	// Fetch the missing range plus the prefetch window from home.
	fetchHi := min(end+s.fed.cfg.PrefetchBytes, m.size)
	resp, err := s.fetch(p, path, m, off, fetchHi-off)
	if err != nil {
		return 0, err
	}
	s.Stats.RemoteReads++

	if err := s.install(p, path, m, c, off, resp.Data); err != nil {
		return 0, err
	}
	n := copy(buf, resp.Data)
	if int64(n) > end-off {
		n = int(end - off)
	}
	s.maybePromote(path, m)
	return n, nil
}

// maybePromote fetches a full replica once the file is hot at this site.
// The fetch runs in the background — the read that crossed the threshold
// is not delayed by the bulk transfer.
func (s *Site) maybePromote(path string, m *fileMeta) {
	c := s.copies[path]
	if c == nil || c.reads < s.fed.cfg.HotThreshold || c.promoted || c.promoting {
		return
	}
	if c.covered() >= m.size {
		// Everything already fetched: promote in place.
		c.promoted = true
		s.Stats.Promotions++
		return
	}
	c.promoting = true
	s.fed.k.Go("geo.promote/"+s.Name, func(q *sim.Proc) {
		defer func() { c.promoting = false }()
		if s.Down {
			return
		}
		resp, err := s.fetch(q, path, m, 0, m.size)
		if err == nil && s.install(q, path, m, c, 0, resp.Data) == nil && s.copies[path] == c {
			c.promoted = true
			s.Stats.Promotions++
		}
	})
}

// fetch reads [off, off+n) of path from its home over the WAN: the one
// fetch verb, used by remote reads and by hot promotion alike.
func (s *Site) fetch(p *sim.Proc, path string, m *fileMeta, off, n int64) (readResp, error) {
	raw, err := s.conn.CallTimeout(p, simnet.Addr(m.home), "geo.read",
		readReq{Path: path, Off: off, N: n}, ctrlSize, 60*sim.Second)
	if err != nil {
		return readResp{}, fmt.Errorf("georepl: fetch from home %s: %w", m.home, err)
	}
	resp := raw.(readResp)
	if resp.Err != "" {
		return readResp{}, fmt.Errorf("georepl: %s", resp.Err)
	}
	return resp, nil
}

// install writes fetched bytes at off into the local file, creating it if
// missing, and records their range in c, the record the fetch was sent
// under. It installs nothing if c is no longer the path's record: the path
// was invalidated while the fetch was in flight, and its bytes may predate
// the write.
func (s *Site) install(p *sim.Proc, path string, m *fileMeta, c *remoteCopy, off int64, data []byte) error {
	s.writes.Lock(p)
	defer s.writes.Unlock()
	if s.copies[path] != c {
		return nil
	}
	if _, err := s.fs.Stat(path); err != nil {
		if err := createLocal(s.fs, path, m.policy); err != nil {
			return err
		}
	}
	if len(data) == 0 {
		return nil
	}
	if _, err := s.fs.WriteAt(p, path, off, data); err != nil {
		return err
	}
	c.add(off, off+int64(len(data)))
	return nil
}
