package georepl

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// Stats counts one site's geo activity.
type Stats struct {
	LocalReads    int64 // served entirely from this site
	RemoteReads   int64 // required a WAN fetch
	PrefetchHits  int64 // served from previously prefetched ranges
	Promotions    int64 // files promoted to full local replicas
	WritesHome    int64 // writes served as home site
	WritesProxy   int64 // writes forwarded to a remote home
	SyncShips     int64
	AsyncShips    int64
	Invalidations int64
}

// Site is one geography in the federation.
type Site struct {
	Name string
	Down bool

	fed  *Federation
	fs   *pfs.FS
	conn *simnet.Conn

	// writes admits one write to the site's file system at a time: pfs
	// writes a partial block by reading and rewriting it whole, so two
	// overlapping writes at once could lose one of them.
	writes *sim.Mutex
	// copies holds this site's record of each remote-homed file it has
	// read (see remoteCopy).
	copies map[string]*remoteCopy
	// journals hold pending async shipments per destination site (§7.2:
	// writes ship "in the order of the writes").
	journals map[string][]writeReq

	Stats Stats
}

// FS exposes the site's local file system (tests and tooling).
func (s *Site) FS() *pfs.FS { return s.fs }

// Wire payloads. A writeReq is also a durability shipment.
type readReq struct {
	Path string
	Off  int64
	N    int64
}
type readResp struct {
	Data []byte
	Err  string
}
type writeReq struct {
	Path string
	Off  int64
	Data []byte
}
type writeResp struct{ Err string }
type invalidateReq struct{ Path string }
type invalidateResp struct{}

// createLocal makes path (and parent directories) on fs.
func createLocal(fs *pfs.FS, path string, policy pfs.Policy) error {
	if i := strings.LastIndex(path, "/"); i > 0 {
		if err := fs.MkdirAll(path[:i]); err != nil {
			return err
		}
	}
	_, err := fs.Create(path, policy)
	return err
}

// Create registers a new file homed at this site.
func (s *Site) Create(p *sim.Proc, path string, policy pfs.Policy) error {
	if s.Down {
		return ErrSiteDown
	}
	if _, exists := s.fed.meta[path]; exists {
		return fmt.Errorf("%w: %q", ErrFileExists, path)
	}
	if err := createLocal(s.fs, path, policy); err != nil {
		return err
	}
	s.fed.meta[path] = &fileMeta{
		home:         s.Name,
		holders:      make(map[string]uint64),
		duraReplicas: make(map[string]bool),
		policy:       policy,
	}
	return nil
}

// duraTargets resolves the durability sites for a file per its policy.
func (s *Site) duraTargets(m *fileMeta) []string {
	if m.policy.Geo.Mode == pfs.GeoNone {
		return nil
	}
	if len(m.policy.Geo.Sites) > 0 {
		return m.policy.Geo.Sites
	}
	var out []string
	copies := m.policy.Geo.Copies
	// By name, not map order: which sites a Copies-limited file replicates
	// to, and the order of its sync ships, must repeat run to run.
	for _, name := range slices.Sorted(maps.Keys(s.fed.sites)) {
		if name == m.home {
			continue
		}
		out = append(out, name)
		if copies > 0 && len(out) >= copies {
			break
		}
	}
	return out
}

// WriteAt writes through the single system image: if this site is the
// file's home, the write applies locally and then replicates per policy;
// otherwise it is forwarded to the home over the WAN.
func (s *Site) WriteAt(p *sim.Proc, path string, off int64, data []byte) error {
	if s.Down {
		return ErrSiteDown
	}
	m, ok := s.fed.meta[path]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoFile, path)
	}
	if m.home != s.Name {
		s.Stats.WritesProxy++
		return s.send(p, m.home, "geo.write", writeReq{Path: path, Off: off, Data: data})
	}
	return s.writeAsHome(p, path, m, off, data)
}

// send delivers a write to dst — forwarded to a home, or shipped to a
// durability copy — and waits for it to apply there.
func (s *Site) send(p *sim.Proc, dst, method string, w writeReq) error {
	raw, err := s.conn.CallTimeout(p, simnet.Addr(dst), method, w, ctrlSize+len(w.Data), 30*sim.Second)
	if err != nil {
		return fmt.Errorf("georepl: %s to %s: %w", method, dst, err)
	}
	if resp := raw.(writeResp); resp.Err != "" {
		return fmt.Errorf("georepl: %s", resp.Err)
	}
	return nil
}

// writeAsHome applies the write locally, drops every other site's copy of
// the file, and runs the §7.2 replication.
func (s *Site) writeAsHome(p *sim.Proc, path string, m *fileMeta, off int64, data []byte) error {
	s.Stats.WritesHome++
	s.writes.Lock(p)
	_, err := s.fs.WriteAt(p, path, off, data)
	s.writes.Unlock()
	if err != nil {
		return err
	}
	if end := off + int64(len(data)); end > m.size {
		m.size = end
	}
	err = s.invalidate(p, path, m)
	// Durability replication per policy.
	switch m.policy.Geo.Mode {
	case pfs.GeoSync:
		targets := s.duraTargets(m)
		for _, dst := range targets {
			m.duraReplicas[dst] = true
			s.Stats.SyncShips++
		}
		if e := sim.Fork(p, "geo.sync", len(targets), func(q *sim.Proc, i int) error {
			return s.send(q, targets[i], "geo.ship", writeReq{Path: path, Off: off, Data: data})
		}); err == nil {
			err = e
		}
	case pfs.GeoAsync:
		for _, dst := range s.duraTargets(m) {
			m.duraReplicas[dst] = true
			s.journals[dst] = append(s.journals[dst], writeReq{Path: path, Off: off, Data: append([]byte(nil), data...)})
			s.Stats.AsyncShips++
		}
	}
	return err
}

// invalidate has every holder of path drop its copy, all at once, and
// returns once each has answered: a read there after the write's
// acknowledgement fetches the new bytes. A holder the federation has failed
// is dropped unanswered, since a failed site serves nothing again. A live
// holder that misses every retry fails the write and stays a holder, to be
// invalidated again by the next write.
func (s *Site) invalidate(p *sim.Proc, path string, m *fileMeta) error {
	stale := slices.Sorted(maps.Keys(m.holders))
	if len(stale) == 0 {
		return nil
	}
	s.Stats.Invalidations += int64(len(stale))
	return sim.Fork(p, "geo.invalidate", len(stale), func(q *sim.Proc, i int) error {
		h, stamp := stale[i], m.holders[stale[i]]
		_, err := s.conn.CallRetry(q, simnet.Addr(h), "geo.invalidate", invalidateReq{Path: path}, ctrlSize, simnet.RetryPolicy{}.WithDefaults())
		if err != nil && !s.fed.sites[h].Down {
			return fmt.Errorf("georepl: invalidate %s at %s: %w", path, h, err)
		}
		// A holder that fetched again after the invalidation was sent may
		// hold the new bytes; it stays a holder until the next write.
		if m.holders[h] == stamp || err != nil {
			delete(m.holders, h)
		}
		return nil
	})
}

// startShipper launches the background process draining async journals in
// write order. It runs until the site goes down or the kernel is closed.
func (s *Site) startShipper() {
	s.fed.k.Go("geo.shipper/"+s.Name, func(p *sim.Proc) {
		for {
			p.Sleep(s.fed.cfg.ShipInterval)
			if s.Down {
				return
			}
			for _, dst := range slices.Sorted(maps.Keys(s.journals)) {
				for len(s.journals[dst]) > 0 {
					if s.send(p, dst, "geo.ship", s.journals[dst][0]) != nil {
						break // destination unreachable; retry next tick
					}
					s.journals[dst] = s.journals[dst][1:]
				}
			}
		}
	})
}

// handleWrite serves a forwarded write as home.
func (s *Site) handleWrite(p *sim.Proc, from simnet.Addr, args any) (any, int) {
	req := args.(writeReq)
	m, ok := s.fed.meta[req.Path]
	if !ok || m.home != s.Name {
		return writeResp{Err: "not home for " + req.Path}, ctrlSize
	}
	if err := s.writeAsHome(p, req.Path, m, req.Off, req.Data); err != nil {
		return writeResp{Err: err.Error()}, ctrlSize
	}
	return writeResp{}, ctrlSize
}

// handleShip applies a durability shipment into the local file system.
func (s *Site) handleShip(p *sim.Proc, from simnet.Addr, args any) (any, int) {
	req := args.(writeReq)
	s.writes.Lock(p)
	defer s.writes.Unlock()
	if _, err := s.fs.Stat(req.Path); err != nil {
		if err := createLocal(s.fs, req.Path, s.fed.meta[req.Path].policy); err != nil {
			return writeResp{Err: err.Error()}, ctrlSize
		}
	}
	if _, err := s.fs.WriteAt(p, req.Path, req.Off, req.Data); err != nil {
		return writeResp{Err: err.Error()}, ctrlSize
	}
	return writeResp{}, ctrlSize
}

// handleRead serves a remote site's fetch as home. It registers the site as
// a holder before it reads: a write that lands during the read then
// invalidates the site, and the site installs nothing from this fetch.
func (s *Site) handleRead(p *sim.Proc, from simnet.Addr, args any) (any, int) {
	req := args.(readReq)
	m, ok := s.fed.meta[req.Path]
	if !ok || m.home != s.Name {
		return readResp{Err: "not home for " + req.Path}, ctrlSize
	}
	m.fetches++
	m.holders[string(from)] = m.fetches
	buf := make([]byte, req.N)
	n, err := s.fs.ReadAt(p, req.Path, req.Off, buf)
	if err != nil {
		return readResp{Err: err.Error()}, ctrlSize
	}
	return readResp{Data: buf[:n]}, ctrlSize + n
}

// handleInvalidate drops this site's record of a remote-homed file, so a
// fetch in flight installs nothing (see install), and removes the local
// file. An async durability replica keeps its file: that is its journaled
// copy, which the journal updates.
func (s *Site) handleInvalidate(p *sim.Proc, from simnet.Addr, args any) (any, int) {
	path := args.(invalidateReq).Path
	delete(s.copies, path)
	if !s.fed.meta[path].duraReplicas[s.Name] {
		s.fs.Remove(path) // not found when the site installed nothing
	}
	return invalidateResp{}, ctrlSize
}
