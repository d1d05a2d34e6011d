package raid

import (
	"errors"
	"fmt"
	"slices"

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

// levels describes each level by the shape of its stripe rows, the one
// thing the row engine (writeStripe, rebuildParityRange, ScrubRange) needs
// to know. Of a row's n members, data(n) hold the row's data blocks and the
// rest hold parity: each of them P, the XOR of the data blocks, except the
// last, which holds Q where the level has one. A mirror is a row of one data
// block whose every other member holds P, which for one block is the block
// itself; a RAID-0 row has no parity.
var levels = [...]struct {
	name     string
	minDisks int
	data     func(n int) int
	q        bool
}{
	RAID0: {"RAID0", 1, func(n int) int { return n }, false},
	RAID1: {"RAID1", 2, func(int) int { return 1 }, false},
	RAID5: {"RAID5", 3, func(n int) int { return n - 1 }, false},
	RAID6: {"RAID6", 4, func(n int) int { return n - 2 }, true},
}

func (l Level) known() bool { return l >= 0 && int(l) < len(levels) }

func (l Level) String() string {
	if !l.known() {
		return fmt.Sprintf("RAID(%d)", int(l))
	}
	return levels[l].name
}

// MinDisks returns the minimum group size for the level.
func (l Level) MinDisks() int {
	if !l.known() {
		return 0
	}
	return levels[l].minDisks
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
	// dps is the number of data blocks a stripe row holds; rows[s%n] lists
	// row s's members in role order (see members).
	dps  int
	rows [][]int
	// rebuilding maps disk index → rebuild bookkeeping. A replaced disk
	// serves I/O only for chunks already reconstructed.
	rebuilding map[int]*rebuildState
	// rowLocks holds the stripe rows that a writer holds or waits for (see
	// lockRows); freeLocks keeps the records of rows since unlocked.
	rowLocks  map[int64]*rowLock
	freeLocks sim.Spare[*rowLock]
	spare     sim.Spare[[]byte]     // row writes' scratch blocks (see writeStripe)
	lent      int                   // the scratch blocks row writes hold
	spares    sim.Peak              // how many scratch blocks to keep (see scratch)
	writers   sim.Spare[*rowWriter] // row writes' arrays (see writer)
	// rowWrites counts the writes of stripe rows that have parity by how it
	// was made: from new data alone, from the row completed by reads (every
	// degraded row included), or by read-modify-write.
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
	mu   sim.Mutex
	refs int
}

// lockRows blocks p until it is the only writer of every stripe row in
// [lo, hi). Every row write holds its row, from its first read of the old
// content to its last write, and so do a scrub's repair and a rebuild's
// chunk: two that overlapped would both start from the old parity, and the
// later parity write would drop the other's change, leaving a row that
// reads back fine until a degraded read or a rebuild needs its parity; and a
// rebuild pass that read a row while a write to it was in flight would
// reconstruct the replacement from a half-written row. Reads take no lock.
// Rows lock in ascending order, and a record exists only while its row is
// held or awaited, so the map does not grow with rows ever written and an
// uncontended lock costs no simulated event. A record leaves the map for
// the spare list with its mutex idle, and the next row locked takes it.
func (g *Group) lockRows(p *sim.Proc, lo, hi int64) {
	for s := lo; s < hi; s++ {
		l := g.rowLocks[s]
		if l == nil {
			var ok bool
			if l, ok = g.freeLocks.Get(); !ok {
				l = &rowLock{mu: *sim.NewMutex(g.k)}
			}
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
			g.freeLocks.Put(l)
		}
	}
}

// NewGroup builds a RAID group over disks, which must share a spec.
func NewGroup(k *sim.Kernel, level Level, disks []*disk.Disk) (*Group, error) {
	if !level.known() {
		return nil, fmt.Errorf("raid: unknown level %v", level)
	}
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
	// Parity rotates: row s's parity members are the n−dps consecutive
	// members (mod n) from n−1−s%n on, P first, Q last; its data members
	// are the others, ascending.
	n, dps := len(disks), levels[level].data(len(disks))
	rows := make([][]int, n)
	for r := range rows {
		first := n - 1 - r
		parity := make([]int, 0, n-dps)
		for j := 0; j < n-dps; j++ {
			parity = append(parity, (first+j)%n)
		}
		for i := 0; i < n; i++ {
			if !slices.Contains(parity, i) {
				rows[r] = append(rows[r], i)
			}
		}
		rows[r] = append(rows[r], parity...)
	}
	return &Group{
		k: k, level: level, disks: disks,
		blockSize: bs, stripes: stripes,
		dps: dps, rows: rows,
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
func (g *Group) dataPerStripe() int { return g.dps }

// Capacity returns the logical capacity in blocks.
func (g *Group) Capacity() int64 { return g.stripes * int64(g.dps) }

// members returns the member disks of stripe row s in role order: its data
// members in coefficient order, then its P members, then its Q member where
// the level has one. The slice is the group's own: callers only read it.
func (g *Group) members(s int64) []int { return g.rows[s%int64(len(g.disks))] }

// dataDisks returns, in coefficient order, the disk indices holding data
// blocks of stripe s.
func (g *Group) dataDisks(s int64) []int { return g.members(s)[:g.dps] }

// parity returns the disk indices holding stripe s's P blocks (none for
// RAID-0, one for RAID-5/6, every other member for RAID-1) and the one
// holding its Q (-1 for a level without Q).
func (g *Group) parity(s int64) (P []int, q int) {
	m := g.members(s)
	if !levels[g.level].q {
		return m[g.dps:len(m):len(m)], -1
	}
	return m[g.dps : len(m)-1 : len(m)-1], m[len(m)-1]
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
		for c := s / RebuildChunkStripes; c <= (s+n-1)/RebuildChunkStripes; c++ {
			if !st.done[c] {
				return false
			}
		}
	}
	return true
}
