package raid

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/disk"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Level identifies a RAID layout.
type Level int

// Supported layouts. The paper's file metadata can override the automatic
// RAID type selection per file (§4); these are the choices.
const (
	RAID0 Level = iota
	RAID1
	RAID5
	RAID6
)

func (l Level) String() string {
	switch l {
	case RAID0:
		return "RAID0"
	case RAID1:
		return "RAID1"
	case RAID5:
		return "RAID5"
	case RAID6:
		return "RAID6"
	default:
		return fmt.Sprintf("RAID(%d)", int(l))
	}
}

// MinDisks returns the minimum group size for the level.
func (l Level) MinDisks() int {
	switch l {
	case RAID0:
		return 1
	case RAID1:
		return 2
	case RAID5:
		return 3
	case RAID6:
		return 4
	default:
		return 0
	}
}

// ErrUnrecoverable is returned when the group has lost more disks than its
// redundancy covers.
var ErrUnrecoverable = errors.New("raid: group unrecoverable")

// Group presents a set of disks as one logical block device with the
// chosen redundancy. Any simulation process may call Read/Write; member
// disk I/O within an operation proceeds in parallel, which is where the
// paper's multi-spindle bandwidth comes from.
type Group struct {
	k         *sim.Kernel
	level     Level
	disks     []*disk.Disk
	blockSize int
	stripes   int64
	// rebuilding maps disk index → rebuild bookkeeping. A replaced disk
	// serves I/O only for chunks already reconstructed.
	rebuilding map[int]*rebuildState
	// rowLocks holds the stripe rows of a RAID-5/6 group that a writer holds
	// or waits for (see lockRows).
	rowLocks map[int64]*rowLock
	// rowWrites counts RAID-5/6 stripe-row writes by how parity was made:
	// from new data alone, from the row completed by reads (every degraded
	// row included), or by read-modify-write.
	rowWrites struct{ full, reconstruct, rmw int64 }
}

// RegisterTelemetry publishes the group's row-write mix under s.
func (g *Group) RegisterTelemetry(s telemetry.Scope) {
	s.Int("row_writes_full", func() int64 { return g.rowWrites.full })
	s.Int("row_writes_reconstruct", func() int64 { return g.rowWrites.reconstruct })
	s.Int("row_writes_rmw", func() int64 { return g.rowWrites.rmw })
}

// rowLock is one stripe row's writer lock; refs counts its holder and the
// processes waiting for it.
type rowLock struct {
	mu   *sim.Mutex
	refs int
}

// lockRows blocks p until it is the only writer of every stripe row in
// [lo, hi). Whoever writes parity derived from what it read of a row — a
// small write's read-modify-write, a degraded write's reconstruction, a
// scrub's repair, a rebuild's chunk — holds the row from that read to its
// last write: two that overlapped would both start from the old parity, and
// the later parity write would drop the other's change, leaving a row that
// reads back fine until a degraded read or a rebuild needs its parity. Reads
// take no lock. Rows lock in ascending order, and a record exists only while
// its row is held or awaited, so the map does not grow with rows ever
// written and an uncontended lock costs no simulated event.
func (g *Group) lockRows(p *sim.Proc, lo, hi int64) {
	for s := lo; s < hi; s++ {
		l := g.rowLocks[s]
		if l == nil {
			l = &rowLock{mu: sim.NewMutex(g.k)}
			g.rowLocks[s] = l
		}
		l.refs++
		l.mu.Lock(p)
	}
}

func (g *Group) unlockRows(lo, hi int64) {
	for s := lo; s < hi; s++ {
		l := g.rowLocks[s]
		l.mu.Unlock()
		if l.refs--; l.refs == 0 {
			delete(g.rowLocks, s)
		}
	}
}

// NewGroup builds a RAID group over disks, which must share a spec.
func NewGroup(k *sim.Kernel, level Level, disks []*disk.Disk) (*Group, error) {
	if len(disks) < level.MinDisks() {
		return nil, fmt.Errorf("raid: %v needs ≥%d disks, got %d", level, level.MinDisks(), len(disks))
	}
	bs := disks[0].Spec().BlockSize
	stripes := disks[0].Spec().Blocks
	for _, d := range disks[1:] {
		if d.Spec().BlockSize != bs {
			return nil, errors.New("raid: mixed block sizes in group")
		}
		if d.Spec().Blocks < stripes {
			stripes = d.Spec().Blocks
		}
	}
	return &Group{
		k: k, level: level, disks: disks,
		blockSize: bs, stripes: stripes,
		rebuilding: make(map[int]*rebuildState),
		rowLocks:   make(map[int64]*rowLock),
	}, nil
}

// BlockSize returns the logical block size in bytes.
func (g *Group) BlockSize() int { return g.blockSize }

// Disks returns the member drives.
func (g *Group) Disks() []*disk.Disk { return g.disks }

// Stripes returns the number of stripe rows.
func (g *Group) Stripes() int64 { return g.stripes }

// dataPerStripe returns the logical blocks stored per stripe row.
func (g *Group) dataPerStripe() int {
	switch g.level {
	case RAID0:
		return len(g.disks)
	case RAID1:
		return 1
	case RAID5:
		return len(g.disks) - 1
	case RAID6:
		return len(g.disks) - 2
	}
	return 0
}

// Capacity returns the logical capacity in blocks.
func (g *Group) Capacity() int64 { return g.stripes * int64(g.dataPerStripe()) }

// parityDisks returns the disk indices holding P and Q for stripe s.
// q is -1 for levels without Q; p is -1 for levels without parity.
func (g *Group) parityDisks(s int64) (p, q int) {
	n := int64(len(g.disks))
	switch g.level {
	case RAID5:
		return int(n - 1 - s%n), -1
	case RAID6:
		pd := int(n - 1 - s%n)
		return pd, (pd + 1) % int(n)
	default:
		return -1, -1
	}
}

// dataDisks returns, in coefficient order, the disk indices holding data
// blocks of stripe s.
func (g *Group) dataDisks(s int64) []int {
	p, q := g.parityDisks(s)
	out := make([]int, 0, g.dataPerStripe())
	for i := range g.disks {
		if i != p && i != q {
			out = append(out, i)
		}
	}
	return out
}

// locate maps logical block l to its disk index and on-disk LBA.
func (g *Group) locate(l int64) (diskIdx int, lba int64) {
	switch g.level {
	case RAID0:
		return int(l % int64(len(g.disks))), l / int64(len(g.disks))
	case RAID1:
		return 0, l // primary copy; mirrors at same LBA on other disks
	case RAID5, RAID6:
		dps := int64(g.dataPerStripe())
		s := l / dps
		idx := int(l % dps)
		return g.dataDisks(s)[idx], s
	}
	panic("raid: bad level")
}

// available reports whether disk i can serve stripe s: it must be healthy
// and, if mid-rebuild, already reconstructed past s.
func (g *Group) available(i int, s int64) bool { return g.availableRange(i, s, 1) }

// availableRange reports whether disk i can serve all of stripes [s, s+n).
func (g *Group) availableRange(i int, s, n int64) bool {
	if g.disks[i].Failed() {
		return false
	}
	if st, ok := g.rebuilding[i]; ok {
		for c := s / st.chunk; c <= (s+n-1)/st.chunk; c++ {
			if !st.done[c] {
				return false
			}
		}
	}
	return true
}

// parallel runs fns as concurrent simulation processes, blocking p until
// all complete; the first non-nil error is returned. A lone fn runs on p.
func parallel(p *sim.Proc, fns ...func(q *sim.Proc) error) error {
	if len(fns) == 1 {
		return fns[0](p)
	}
	return sim.Fork(p, "par", len(fns), func(q *sim.Proc, i int) error { return fns[i](q) })
}

// extent is a contiguous run of blocks on one disk, used to coalesce I/O.
type extent struct {
	diskIdx int
	lba     int64
	// logical positions (offsets into the caller's buffer), one per block.
	positions []int64
}

// coalesce groups (disk, lba)→bufferPos mappings into per-disk sequential
// extents so member disks stream instead of seeking per block.
func coalesce(items []extent) []extent {
	sort.Slice(items, func(i, j int) bool {
		if items[i].diskIdx != items[j].diskIdx {
			return items[i].diskIdx < items[j].diskIdx
		}
		return items[i].lba < items[j].lba
	})
	var out []extent
	for _, it := range items {
		n := len(out)
		if n > 0 && out[n-1].diskIdx == it.diskIdx &&
			out[n-1].lba+int64(len(out[n-1].positions)) == it.lba {
			out[n-1].positions = append(out[n-1].positions, it.positions...)
			continue
		}
		out = append(out, it)
	}
	return out
}
