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

	// ranges tracks which byte ranges of remote-homed files have been
	// fetched locally (partial replicas built by prefetch).
	ranges map[string]*rangeSet
	// accesses counts reads per remote file, for hot promotion (§7.1:
	// "the system would recognize files that are commonly accessed at
	// multiple locations and automatically replicate copies").
	accesses map[string]int
	// journals hold pending async shipments per destination site (§7.2:
	// writes ship "in the order of the writes").
	journals map[string]*journal
	// promoting guards against duplicate in-flight promotion fetches.
	promoting map[string]bool

	stopShip func()
	Stats    Stats
}

// FS exposes the site's local file system (tests and tooling).
func (s *Site) FS() *pfs.FS { return s.fs }

type shipment struct {
	path string
	off  int64
	data []byte
}

type journal struct {
	pending []shipment
}

// Wire payloads.
type readReq struct {
	Path string
	Off  int64
	N    int64
}
type readResp struct {
	Data []byte
	Size int64
	Err  string
}
type writeReq struct {
	Path string
	Off  int64
	Data []byte
}
type writeResp struct{ Err string }
type shipReq struct {
	Path string
	Off  int64
	Data []byte
}
type shipResp struct{ Err string }
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
		home:          s.Name,
		cacheReplicas: make(map[string]bool),
		duraReplicas:  make(map[string]bool),
		policy:        policy,
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
		raw, err := s.conn.CallTimeout(p, simnet.Addr(m.home), "geo.write",
			writeReq{Path: path, Off: off, Data: data}, ctrlSize+len(data), 30*sim.Second)
		if err != nil {
			return fmt.Errorf("georepl: forward to home %s: %w", m.home, err)
		}
		if resp := raw.(writeResp); resp.Err != "" {
			return fmt.Errorf("georepl: %s", resp.Err)
		}
		return nil
	}
	return s.writeAsHome(p, path, m, off, data)
}

// writeAsHome applies the write locally and runs the §7.2 replication.
func (s *Site) writeAsHome(p *sim.Proc, path string, m *fileMeta, off int64, data []byte) error {
	s.Stats.WritesHome++
	if _, err := s.fs.WriteAt(p, path, off, data); err != nil {
		return err
	}
	if end := off + int64(len(data)); end > m.size {
		m.size = end
	}
	// Cache replicas at other sites are now stale: invalidate them
	// (fire-and-forget; the sites drop their copies).
	for _, site := range slices.Sorted(maps.Keys(m.cacheReplicas)) {
		s.conn.Cast(p, simnet.Addr(site), "geo.invalidate", invalidateReq{Path: path}, ctrlSize)
		delete(m.cacheReplicas, site)
		s.Stats.Invalidations++
	}
	// Durability replication per policy.
	switch m.policy.Geo.Mode {
	case pfs.GeoSync:
		targets := s.duraTargets(m)
		for _, dst := range targets {
			m.duraReplicas[dst] = true
			s.Stats.SyncShips++
		}
		return sim.Fork(p, "geo.sync", len(targets), func(q *sim.Proc, i int) error {
			raw, err := s.conn.CallTimeout(q, simnet.Addr(targets[i]), "geo.ship",
				shipReq{Path: path, Off: off, Data: data}, ctrlSize+len(data), 30*sim.Second)
			if err != nil {
				return err
			}
			if resp := raw.(shipResp); resp.Err != "" {
				return fmt.Errorf("georepl: %s", resp.Err)
			}
			return nil
		})
	case pfs.GeoAsync:
		for _, dst := range s.duraTargets(m) {
			m.duraReplicas[dst] = true
			j, ok := s.journals[dst]
			if !ok {
				j = &journal{}
				s.journals[dst] = j
			}
			j.pending = append(j.pending, shipment{path: path, off: off, data: append([]byte(nil), data...)})
			s.Stats.AsyncShips++
		}
	}
	return nil
}

// startShipper launches the background process draining async journals in
// write order.
func (s *Site) startShipper() {
	stopped := false
	s.stopShip = func() { stopped = true }
	s.fed.k.Go("geo.shipper/"+s.Name, func(p *sim.Proc) {
		for {
			p.Sleep(s.fed.cfg.ShipInterval)
			if stopped || s.Down {
				return
			}
			for _, dst := range slices.Sorted(maps.Keys(s.journals)) {
				j := s.journals[dst]
				for len(j.pending) > 0 {
					sh := j.pending[0]
					raw, err := s.conn.CallTimeout(p, simnet.Addr(dst), "geo.ship",
						shipReq{Path: sh.path, Off: sh.off, Data: sh.data}, ctrlSize+len(sh.data), 30*sim.Second)
					if err != nil {
						break // destination unreachable; retry next tick
					}
					if resp := raw.(shipResp); resp.Err != "" {
						break
					}
					j.pending = j.pending[1:]
				}
			}
		}
	})
}

// StopShipper halts the background shipper (drains the event queue in
// tests and benches).
func (s *Site) StopShipper() {
	if s.stopShip != nil {
		s.stopShip()
	}
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
	req := args.(shipReq)
	if _, err := s.fs.Stat(req.Path); err != nil {
		m := s.fed.meta[req.Path]
		pol := pfs.Policy{}
		if m != nil {
			pol = m.policy
		}
		if err := createLocal(s.fs, req.Path, pol); err != nil {
			return shipResp{Err: err.Error()}, ctrlSize
		}
	}
	if _, err := s.fs.WriteAt(p, req.Path, req.Off, req.Data); err != nil {
		return shipResp{Err: err.Error()}, ctrlSize
	}
	return shipResp{}, ctrlSize
}

// handleRead serves a remote site's fetch as home.
func (s *Site) handleRead(p *sim.Proc, from simnet.Addr, args any) (any, int) {
	req := args.(readReq)
	m, ok := s.fed.meta[req.Path]
	if !ok || m.home != s.Name {
		return readResp{Err: "not home for " + req.Path}, ctrlSize
	}
	buf := make([]byte, req.N)
	n, err := s.fs.ReadAt(p, req.Path, req.Off, buf)
	if err != nil {
		return readResp{Err: err.Error()}, ctrlSize
	}
	return readResp{Data: buf[:n], Size: m.size}, ctrlSize + n
}

// handleInvalidate drops a stale cache replica.
func (s *Site) handleInvalidate(p *sim.Proc, from simnet.Addr, args any) (any, int) {
	req := args.(invalidateReq)
	delete(s.ranges, req.Path)
	delete(s.accesses, req.Path)
	if _, err := s.fs.Stat(req.Path); err == nil {
		s.fs.Remove(req.Path)
	}
	return invalidateResp{}, ctrlSize
}
