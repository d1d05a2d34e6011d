// Package pfs implements the paper's parallel file system (§4): a file
// system integrated with the storage system, whose metadata carries
// per-file policy that the lower layers honor — cache retention priority,
// write-back replication factor, RAID class (by placing the file's data in
// a volume backed by that class), and geographic replication mode.
//
// File data lives in virtual volumes accessed through the coherent blade
// cluster; metadata is the in-memory "metadata center" of §7.
package pfs

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/sim"
)

// BlockIO is the data path beneath the file system — in the full system,
// the blade cluster's coherent block interface. WriteBlocks keeps no
// reference to data once it returns: an aligned WriteAt hands it the
// caller's bytes.
type BlockIO interface {
	BlockSize() int
	ReadBlocks(p *sim.Proc, vol string, lba int64, count int, priority int) ([]byte, error)
	WriteBlocks(p *sim.Proc, vol string, lba int64, data []byte, priority, replFactor int) error
}

// intoReader is the read a BlockIO may offer beside ReadBlocks: it fills
// dst, a whole number of blocks, from vol at lba, so a read lands in the
// caller's buffer (controller.Cluster has it). FS reads a BlockIO without
// it through ReadBlocks and one copy.
type intoReader interface {
	ReadBlocksInto(p *sim.Proc, vol string, lba int64, dst []byte, priority int) error
}

// GeoMode selects how a file replicates between sites (§7.2).
type GeoMode int

// Geographic replication modes. "Key files would be synchronously
// replicated while less important files would be asynchronously
// replicated. Unimportant files may not be remotely replicated at all."
const (
	GeoNone GeoMode = iota
	GeoAsync
	GeoSync
)

func (m GeoMode) String() string {
	switch m {
	case GeoNone:
		return "none"
	case GeoAsync:
		return "async"
	case GeoSync:
		return "sync"
	default:
		return "unknown"
	}
}

// GeoPolicy configures a file's inter-site replication (§7.2): the mode,
// how many sites to copy to, and optionally which specific sites.
type GeoPolicy struct {
	Mode GeoMode
	// Copies is the number of remote sites to replicate to (0 = all
	// configured peers when Mode != GeoNone).
	Copies int
	// Sites pins replication to specific site names.
	Sites []string
}

// Policy is the per-file metadata of §4. The zero value means "inherit
// every default".
type Policy struct {
	// CachePriority overrides cache retention and QoS lane (0..3; higher
	// survives eviction longer and wins more fair-queue share). Values
	// outside the range are clamped at Create/SetPolicy time.
	CachePriority int
	// ReplicationN overrides the controller-level write-back fault
	// tolerance (0 = cluster default).
	ReplicationN int
	// Class names the storage class (→ RAID type) holding the file's
	// data; "" = file system default.
	Class string
	// Geo configures inter-site replication.
	Geo GeoPolicy
}

// Extent is a contiguous run of blocks in a backing volume.
type Extent struct {
	Vol    string
	LBA    int64
	Blocks int64
}

// Inode is one file or directory.
type Inode struct {
	Ino    uint64
	name   string
	Dir    bool
	Size   int64
	Policy Policy
	// Extents hold the file's data in order.
	Extents []Extent
	Ctime   sim.Time
	Mtime   sim.Time

	parent   *Inode
	children map[string]*Inode
	partials *partials // nil until the file's first partial-block write
}

// Errors returned by path operations.
var (
	ErrNotFound = errors.New("pfs: no such file or directory")
	ErrExists   = errors.New("pfs: file exists")
	ErrNotDir   = errors.New("pfs: not a directory")
	ErrIsDir    = errors.New("pfs: is a directory")
	ErrBadPath  = errors.New("pfs: invalid path")
	ErrNoClass  = errors.New("pfs: unknown storage class")
)

// Config assembles a file system.
type Config struct {
	// IO is the block data path.
	IO BlockIO
	// Classes maps storage-class names to backing volume names; each
	// volume must already exist below IO.
	Classes map[string]string
	// DefaultClass is used when a file's policy names no class.
	DefaultClass string
}

const (
	// allocChunkBlocks is the allocation granularity.
	allocChunkBlocks = 16
	// volumeBlocks bounds each class volume's address space: 1<<40
	// blocks, effectively unbounded over a DMSD.
	volumeBlocks = 1 << 40
)

// FS is the file system.
type FS struct {
	k        *sim.Kernel
	io       BlockIO
	into     intoReader // io's ReadBlocksInto; nil when io has none
	classes  map[string]string
	defClass string
	root     *Inode
	nextIno  uint64
	allocs   map[string]*allocator

	// Stats
	FilesCreated, FilesRemoved int64
	BytesRead, BytesWritten    int64
}

// New builds an empty file system on k.
func New(k *sim.Kernel, cfg Config) (*FS, error) {
	if cfg.IO == nil {
		return nil, errors.New("pfs: Config.IO required")
	}
	if len(cfg.Classes) == 0 {
		return nil, errors.New("pfs: at least one storage class required")
	}
	if cfg.DefaultClass == "" || cfg.Classes[cfg.DefaultClass] == "" {
		return nil, fmt.Errorf("pfs: default class %q not in Classes", cfg.DefaultClass)
	}
	fs := &FS{
		k:        k,
		io:       cfg.IO,
		classes:  cfg.Classes,
		defClass: cfg.DefaultClass,
		allocs:   make(map[string]*allocator),
	}
	fs.into, _ = cfg.IO.(intoReader)
	fs.root = &Inode{Ino: 1, name: "/", Dir: true, children: make(map[string]*Inode), Ctime: k.Now()}
	fs.nextIno = 2
	for _, vol := range cfg.Classes {
		if _, ok := fs.allocs[vol]; !ok {
			fs.allocs[vol] = &allocator{limit: volumeBlocks}
		}
	}
	return fs, nil
}

// BlockSize returns the data-path block size.
func (fs *FS) BlockSize() int { return fs.io.BlockSize() }

// splitPath normalizes and splits an absolute path.
func splitPath(path string) ([]string, error) {
	if !strings.HasPrefix(path, "/") {
		return nil, fmt.Errorf("%w: %q is not absolute", ErrBadPath, path)
	}
	var parts []string
	for _, seg := range strings.Split(path, "/") {
		switch seg {
		case "", ".":
		case "..":
			return nil, fmt.Errorf("%w: %q contains ..", ErrBadPath, path)
		default:
			parts = append(parts, seg)
		}
	}
	return parts, nil
}

// lookup resolves path to an inode, walking its segments in place; a path
// splitPath refuses fails with splitPath's error.
func (fs *FS) lookup(path string) (*Inode, error) {
	if !strings.HasPrefix(path, "/") || strings.Contains(path, "/../") || strings.HasSuffix(path, "/..") {
		_, err := splitPath(path)
		return nil, err
	}
	cur := fs.root
	for rest := path; rest != ""; {
		var seg string
		if seg, rest, _ = strings.Cut(rest, "/"); seg == "" || seg == "." {
			continue
		}
		if !cur.Dir {
			return nil, fmt.Errorf("%w: %q", ErrNotDir, path)
		}
		next, ok := cur.children[seg]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrNotFound, path)
		}
		cur = next
	}
	return cur, nil
}

// Stat returns the inode for path.
func (fs *FS) Stat(path string) (*Inode, error) { return fs.lookup(path) }

// Mkdir creates a single directory.
func (fs *FS) Mkdir(path string) error {
	parts, err := splitPath(path)
	if err != nil {
		return err
	}
	if len(parts) == 0 {
		return fmt.Errorf("%w: root exists", ErrExists)
	}
	parentPath := "/" + strings.Join(parts[:len(parts)-1], "/")
	parent, err := fs.lookup(parentPath)
	if err != nil {
		return err
	}
	if !parent.Dir {
		return fmt.Errorf("%w: %q", ErrNotDir, parentPath)
	}
	name := parts[len(parts)-1]
	if _, exists := parent.children[name]; exists {
		return fmt.Errorf("%w: %q", ErrExists, path)
	}
	ino := &Inode{
		Ino: fs.nextIno, name: name, Dir: true,
		children: make(map[string]*Inode),
		parent:   parent,
		Ctime:    fs.k.Now(), Mtime: fs.k.Now(),
	}
	fs.nextIno++
	parent.children[name] = ino
	return nil
}

// MkdirAll creates path and any missing parents.
func (fs *FS) MkdirAll(path string) error {
	parts, err := splitPath(path)
	if err != nil {
		return err
	}
	cur := "/"
	for _, seg := range parts {
		cur = joinPath(cur, seg)
		if err := fs.Mkdir(cur); err != nil && !errors.Is(err, ErrExists) {
			return err
		}
	}
	return nil
}

func joinPath(dir, name string) string {
	if dir == "/" {
		return "/" + name
	}
	return dir + "/" + name
}

// clampPolicy normalizes out-of-range policy fields at the metadata
// boundary: CachePriority's documented range is 0..3, and everything
// below pfs (cache lanes, QoS scheduling lanes) indexes arrays with it,
// so an unchecked value must not get past Create/SetPolicy.
func clampPolicy(policy Policy) Policy {
	if policy.CachePriority < 0 {
		policy.CachePriority = 0
	}
	if policy.CachePriority > 3 {
		policy.CachePriority = 3
	}
	return policy
}

// Create makes a new empty file with the given policy.
func (fs *FS) Create(path string, policy Policy) (*Inode, error) {
	policy = clampPolicy(policy)
	if policy.Class != "" && fs.classes[policy.Class] == "" {
		return nil, fmt.Errorf("%w: %q", ErrNoClass, policy.Class)
	}
	parts, err := splitPath(path)
	if err != nil {
		return nil, err
	}
	if len(parts) == 0 {
		return nil, ErrBadPath
	}
	parent, err := fs.lookup("/" + strings.Join(parts[:len(parts)-1], "/"))
	if err != nil {
		return nil, err
	}
	if !parent.Dir {
		return nil, ErrNotDir
	}
	name := parts[len(parts)-1]
	if _, exists := parent.children[name]; exists {
		return nil, fmt.Errorf("%w: %q", ErrExists, path)
	}
	ino := &Inode{
		Ino: fs.nextIno, name: name,
		Policy: policy,
		parent: parent,
		Ctime:  fs.k.Now(), Mtime: fs.k.Now(),
	}
	fs.nextIno++
	parent.children[name] = ino
	fs.FilesCreated++
	return ino, nil
}

// Remove deletes a file or empty directory, returning its blocks to the
// allocator.
func (fs *FS) Remove(path string) error {
	ino, err := fs.lookup(path)
	if err != nil {
		return err
	}
	if ino == fs.root {
		return ErrBadPath
	}
	if ino.Dir && len(ino.children) > 0 {
		return fmt.Errorf("pfs: directory %q not empty", path)
	}
	for _, ext := range ino.Extents {
		fs.allocs[ext.Vol].free(ext.LBA, ext.Blocks)
	}
	delete(ino.parent.children, ino.name)
	if !ino.Dir {
		fs.FilesRemoved++
	}
	return nil
}

// List returns the names in a directory in lexical order. The order is a
// contract: the gateway's ListObjects pagination and every same-seed
// byte-identical experiment table depend on directory enumeration being
// deterministic, so callers must never see map order.
func (fs *FS) List(path string) ([]string, error) {
	ino, err := fs.lookup(path)
	if err != nil {
		return nil, err
	}
	if !ino.Dir {
		return nil, ErrNotDir
	}
	out := make([]string, 0, len(ino.children))
	for name := range ino.children {
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}

// SetPolicy updates a file's policy metadata. Takes effect on subsequent
// I/O and (for Class) subsequent allocations — "the file behavior can
// easily be changed at any time" (§7.2).
func (fs *FS) SetPolicy(path string, policy Policy) error {
	policy = clampPolicy(policy)
	if policy.Class != "" && fs.classes[policy.Class] == "" {
		return fmt.Errorf("%w: %q", ErrNoClass, policy.Class)
	}
	ino, err := fs.lookup(path)
	if err != nil {
		return err
	}
	ino.Policy = policy
	return nil
}

// Policy returns a file's policy metadata.
func (fs *FS) Policy(path string) (Policy, error) {
	ino, err := fs.lookup(path)
	if err != nil {
		return Policy{}, err
	}
	return ino.Policy, nil
}

// classVolume resolves a file's backing volume from its policy.
func (fs *FS) classVolume(policy Policy) string {
	class := policy.Class
	if class == "" {
		class = fs.defClass
	}
	return fs.classes[class]
}
