// Package georepl implements §7 of the paper: multiple geographically
// separated sites managed as a single data image (Figure 3).
//
// Each site runs its own blade cluster and parallel file system; the
// federation's metadata center knows every file's home site, its replica
// sites, and its geographic policy. Reads at a remote site fetch data over
// the WAN once — with sequential prefetch, so "there would be a
// network-induced delay while the initial block of a file is referenced,
// but other blocks within the file would be prefetched, allowing local
// access performance" (§7.1). Files hot at several sites are automatically
// promoted to full local replicas. Writes apply at the home site and
// propagate to policy-selected durability sites synchronously or
// asynchronously (§7.2), trading write latency against the loss window a
// site disaster exposes.
package georepl

import (
	"errors"
	"fmt"
	"maps"
	"slices"

	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// Errors returned by federation operations.
var (
	ErrNoSite     = errors.New("georepl: unknown site")
	ErrSiteDown   = errors.New("georepl: site down")
	ErrNoFile     = errors.New("georepl: no such file")
	ErrFileExists = errors.New("georepl: file exists")
)

const ctrlSize = 96

// fileMeta is the metadata center's record for one file.
type fileMeta struct {
	home string
	// cacheReplicas are sites holding promoted read copies (invalidated
	// on write).
	cacheReplicas map[string]bool
	// readers are the sites the home served a fetch since the last write:
	// they may hold ranges of the file (invalidated on write too).
	readers map[string]bool
	// duraReplicas are policy-selected durability sites (kept updated on
	// write, sync or async).
	duraReplicas map[string]bool
	policy       pfs.Policy
	size         int64
}

// Config tunes the federation.
type Config struct {
	// PrefetchBytes is how far ahead of a remote read the site prefetches
	// (default 256 KiB).
	PrefetchBytes int64
	// HotThreshold promotes a remote file to a full local replica after
	// this many accesses from one site (default 3).
	HotThreshold int
	// ShipInterval drives the async replication journal (default 5 ms).
	ShipInterval sim.Duration
}

// Federation is the multi-site system.
type Federation struct {
	k     *sim.Kernel
	wan   *simnet.Network
	cfg   Config
	sites map[string]*Site
	meta  map[string]*fileMeta // path → record (the "metadata center")
}

// NewFederation builds an empty federation with its own WAN network.
func NewFederation(k *sim.Kernel, cfg Config) *Federation {
	if cfg.PrefetchBytes <= 0 {
		cfg.PrefetchBytes = 256 << 10
	}
	if cfg.HotThreshold <= 0 {
		cfg.HotThreshold = 3
	}
	if cfg.ShipInterval <= 0 {
		cfg.ShipInterval = 5 * sim.Millisecond
	}
	return &Federation{
		k:     k,
		wan:   simnet.New(k),
		cfg:   cfg,
		sites: make(map[string]*Site),
		meta:  make(map[string]*fileMeta),
	}
}

// AddSite registers a site backed by its own file system (over its own
// cluster).
func (f *Federation) AddSite(name string, fs *pfs.FS) *Site {
	s := &Site{
		Name:      name,
		fed:       f,
		fs:        fs,
		conn:      simnet.NewConn(f.wan, simnet.Addr(name)),
		ranges:    make(map[string]*rangeSet),
		accesses:  make(map[string]int),
		journals:  make(map[string]*journal),
		promoting: make(map[string]bool),
	}
	s.conn.Register("geo.read", s.handleRead)
	s.conn.Register("geo.write", s.handleWrite)
	s.conn.Register("geo.ship", s.handleShip)
	s.conn.Register("geo.invalidate", s.handleInvalidate)
	f.sites[name] = s
	s.startShipper()
	return s
}

// Connect joins two sites with the given WAN link.
func (f *Federation) Connect(a, b string, link simnet.LinkSpec) {
	f.wan.Connect(simnet.Addr(a), simnet.Addr(b), link)
}

// Site returns a registered site.
func (f *Federation) Site(name string) (*Site, error) {
	s, ok := f.sites[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSite, name)
	}
	return s, nil
}

// FailSite takes a site dark: its WAN port drops and its local state is
// considered lost to the federation.
func (f *Federation) FailSite(name string) error {
	s, ok := f.sites[name]
	if !ok {
		return ErrNoSite
	}
	s.Down = true
	f.wan.SetDown(simnet.Addr(name), true)
	return nil
}

// Failover promotes, for every file homed at the dead site, one surviving
// durability replica to home — the paper's "real-time disaster recovery".
// Files with no surviving durability replica become unavailable (their
// count is returned as lost).
func (f *Federation) Failover(dead string) (recovered, lost int) {
	for _, path := range slices.Sorted(maps.Keys(f.meta)) {
		m := f.meta[path]
		if m.home != dead {
			continue
		}
		promoted := ""
		for _, site := range slices.Sorted(maps.Keys(m.duraReplicas)) {
			if s, ok := f.sites[site]; ok && !s.Down {
				promoted = site
				break
			}
		}
		if promoted == "" {
			lost++
			continue
		}
		delete(m.duraReplicas, promoted)
		m.home = promoted
		// The new home's copy may trail async shipments; its current
		// file size becomes authoritative.
		if ino, err := f.sites[promoted].fs.Stat(path); err == nil {
			m.size = ino.Size
		}
		recovered++
	}
	return recovered, lost
}
