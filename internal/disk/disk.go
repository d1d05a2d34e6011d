// Package disk models the physical disk farm behind the controller blades:
// block-addressed drives with seek, rotational and media-transfer delays,
// FIFO queues, sparse in-memory block storage, and failure injection for
// RAID rebuild and availability experiments.
package disk

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/qos"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// ErrFailed is returned by operations on a failed disk.
var ErrFailed = errors.New("disk: drive failed")

// ErrOutOfRange is returned for accesses beyond the disk's capacity.
var ErrOutOfRange = errors.New("disk: block out of range")

// Spec describes a drive's geometry and performance.
type Spec struct {
	// BlockSize is the sector/block size in bytes.
	BlockSize int
	// Blocks is the capacity in blocks.
	Blocks int64
	// Seek is the average seek time applied to non-sequential accesses.
	Seek sim.Duration
	// Rotation is the average rotational latency applied with each seek.
	Rotation sim.Duration
	// TransferBps is the sustained media rate in bits per second.
	TransferBps int64
}

// DefaultSpec is a drive of the paper's era: 4 KiB blocks, ~36 GiB,
// 5 ms seek, 3 ms rotational latency, 50 MB/s media rate.
func DefaultSpec() Spec {
	return Spec{
		BlockSize:   4096,
		Blocks:      9 << 20, // 9 Mi blocks = 36 GiB
		Seek:        5 * sim.Millisecond,
		Rotation:    3 * sim.Millisecond,
		TransferBps: 400_000_000, // 50 MB/s
	}
}

// LabSpec is DefaultSpec's drive shrunk to 256 MiB (64 Ki blocks), so
// rebuild experiments and interactive demos finish quickly.
func LabSpec() Spec {
	s := DefaultSpec()
	s.Blocks = 1 << 16
	return s
}

// Bytes returns the drive capacity in bytes.
func (s Spec) Bytes() int64 { return s.Blocks * int64(s.BlockSize) }

// TransferTime returns the media time of count consecutive blocks.
func (s Spec) TransferTime(count int) sim.Duration {
	if s.TransferBps <= 0 {
		return 0
	}
	bits := int64(count) * int64(s.BlockSize) * 8
	return sim.Duration(float64(bits) / float64(s.TransferBps) * float64(sim.Second))
}

// ReadThrough reports whether one access that reads and discards gap
// unwanted blocks lying between two wanted ones is cheaper than two
// accesses: the gap's transfer time against the seek and rotation the second
// access would pay.
func (s Spec) ReadThrough(gap int) bool {
	return s.TransferTime(gap) < s.Seek+s.Rotation
}

// Stats accumulates per-drive activity counters.
type Stats struct {
	Reads, Writes int64
	BytesRead     int64
	BytesWritten  int64
	Busy          sim.Duration
	QueueMax      int
	// LaneQueued and LaneQueueMax break queue occupancy down by QoS lane
	// (foreground 0..3, background last) — the signal E13's skew tables
	// and `yottactl top` use to show who is occupying the drive.
	LaneQueued   [qos.NumLanes]int
	LaneQueueMax [qos.NumLanes]int
}

// Disk is one simulated drive. All I/O is performed by simulation processes
// and is serialized FIFO through the drive.
type Disk struct {
	id      string
	spec    Spec
	k       *sim.Kernel
	store   map[int64][]byte
	gate    *sim.Semaphore
	sched   *qos.FairQueue
	queued  int
	lastEnd int64 // next sequential LBA; -1 forces a seek
	failed  bool
	stats   Stats
}

// New creates a drive named id with the given spec.
func New(k *sim.Kernel, id string, spec Spec) *Disk {
	if spec.BlockSize <= 0 || spec.Blocks <= 0 {
		panic("disk: invalid spec")
	}
	return &Disk{
		id:      id,
		spec:    spec,
		k:       k,
		store:   make(map[int64][]byte),
		gate:    sim.NewSemaphore(k, 1),
		lastEnd: -1,
	}
}

// Spec returns the drive's geometry.
func (d *Disk) Spec() Spec { return d.spec }

// Stats returns a copy of the drive's activity counters.
func (d *Disk) Stats() Stats { return d.stats }

// QueueDepth reports the number of I/Os queued or in service right now —
// the instantaneous load signal the telemetry stall detector watches.
func (d *Disk) QueueDepth() int { return d.queued }

// SetScheduler installs a QoS fair queue in place of the drive's FIFO
// gate. Must be called before any I/O is issued; a nil q restores FIFO.
func (d *Disk) SetScheduler(q *qos.FairQueue) { d.sched = q }

// RegisterTelemetry publishes the drive's counters under s (reads, writes,
// bytes, busy time, live and high-water queue depth).
func (d *Disk) RegisterTelemetry(s telemetry.Scope) {
	s.Int("reads", func() int64 { return d.stats.Reads })
	s.Int("writes", func() int64 { return d.stats.Writes })
	s.Int("bytes_read", func() int64 { return d.stats.BytesRead })
	s.Int("bytes_written", func() int64 { return d.stats.BytesWritten })
	s.Func("busy_ms", func() float64 { return d.stats.Busy.Millis() })
	s.Int("queue_depth", func() int64 { return int64(d.queued) })
	s.Int("queue_max", func() int64 { return int64(d.stats.QueueMax) })
	for i := 0; i < qos.NumLanes; i++ {
		i := i
		ls := s.Sub(fmt.Sprintf("lane/%d", i))
		ls.Int("queue_depth", func() int64 { return int64(d.stats.LaneQueued[i]) })
		ls.Int("queue_max", func() int64 { return int64(d.stats.LaneQueueMax[i]) })
	}
	s.Int("failed", func() int64 {
		if d.failed {
			return 1
		}
		return 0
	})
}

// Failed reports whether the drive has failed.
func (d *Disk) Failed() bool { return d.failed }

// Fail marks the drive failed: queued and future I/O returns ErrFailed and
// stored data becomes unreadable, as with a dead spindle.
func (d *Disk) Fail() {
	d.failed = true
	d.store = make(map[int64][]byte)
}

// Replace swaps in a fresh (empty) drive of the same spec, as a technician
// would before a RAID rebuild.
func (d *Disk) Replace() {
	d.failed = false
	d.store = make(map[int64][]byte)
	d.lastEnd = -1
}

func (d *Disk) check(lba int64, count int) error {
	if d.failed {
		return ErrFailed
	}
	if lba < 0 || count < 0 || lba+int64(count) > d.spec.Blocks {
		return fmt.Errorf("%w: lba=%d count=%d cap=%d", ErrOutOfRange, lba, count, d.spec.Blocks)
	}
	return nil
}

// serviceTime returns the mechanical delay for an access of count blocks
// starting at lba: a seek+rotation unless it continues the previous access,
// plus media transfer time.
func (d *Disk) serviceTime(lba int64, count int) sim.Duration {
	t := d.spec.TransferTime(count)
	if lba != d.lastEnd {
		t += d.spec.Seek + d.spec.Rotation
	}
	return t
}

// acquire waits for the drive, competing in the caller's QoS lane when a
// scheduler is installed (FIFO gate otherwise). The lane gauges update
// unconditionally — they are pure counters, moving no simulated events —
// and the returned lane is handed back to release.
func (d *Disk) acquire(p *sim.Proc, cost int) int {
	lane := qos.LaneOf(p)
	d.queued++
	if d.queued > d.stats.QueueMax {
		d.stats.QueueMax = d.queued
	}
	d.stats.LaneQueued[lane]++
	if d.stats.LaneQueued[lane] > d.stats.LaneQueueMax[lane] {
		d.stats.LaneQueueMax[lane] = d.stats.LaneQueued[lane]
	}
	if d.sched != nil {
		d.sched.Acquire(p, lane, float64(cost))
	} else {
		d.gate.Acquire(p, 1)
	}
	return lane
}

func (d *Disk) release(lane int) {
	d.queued--
	d.stats.LaneQueued[lane]--
	if d.sched != nil {
		d.sched.Release()
	} else {
		d.gate.Release(1)
	}
}

// Read returns count blocks starting at lba. Unwritten blocks read as
// zeros. The calling process blocks for queueing plus service time.
func (d *Disk) Read(p *sim.Proc, lba int64, count int) ([]byte, error) {
	if count < 0 {
		return nil, d.check(lba, count)
	}
	buf := make([]byte, count*d.spec.BlockSize)
	if err := d.ReadInto(p, lba, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// ReadInto is Read filling dst straight out of the sparse store: the one
// copy a block makes on its way up. dst may hold anything; blocks the store
// does not have are zeroed. With no positions it reads len(dst)/BlockSize
// blocks into dst in order. With positions it is one access over the len(pos)
// blocks from lba on that scatters them over dst: block lba+i fills block
// pos[i] of dst, a negative pos[i] reads past the block and discards it, and
// the rest of dst is left alone. That is how a RAID member serves the rows of
// a multi-stripe read in one I/O: its data blocks lie apart in the caller's
// buffer and the parity rows between them belong nowhere.
func (d *Disk) ReadInto(p *sim.Proc, lba int64, dst []byte, pos ...int) error {
	bs := d.spec.BlockSize
	if pos != nil {
		return d.read(p, lba, len(pos), func(i int) []byte {
			if pos[i] < 0 {
				return nil
			}
			return dst[pos[i]*bs : (pos[i]+1)*bs]
		})
	}
	if len(dst)%bs != 0 {
		return fmt.Errorf("disk %s: read of %d bytes is not block-aligned", d.id, len(dst))
	}
	return d.read(p, lba, len(dst)/bs, func(i int) []byte { return dst[i*bs : (i+1)*bs] })
}

// read is one read access of count blocks from lba on: block lba+i is
// copied (or, absent from the store, zeroed) into into(i), unless that is nil.
func (d *Disk) read(p *sim.Proc, lba int64, count int, into func(i int) []byte) error {
	qs := trace.FromProc(p).Child("disk-queue", trace.Queue, d.id)
	lane := d.acquire(p, count)
	qs.End()
	defer d.release(lane)
	if err := d.check(lba, count); err != nil {
		return err
	}
	st := d.serviceTime(lba, count)
	sp := trace.FromProc(p).Child("disk-read", trace.Disk, d.id)
	p.Sleep(st)
	sp.End()
	if d.failed { // failed while waiting
		return ErrFailed
	}
	d.lastEnd = lba + int64(count)
	d.stats.Reads++
	d.stats.BytesRead += int64(count) * int64(d.spec.BlockSize)
	d.stats.Busy += st
	for i := 0; i < count; i++ {
		blk := into(i)
		if blk == nil {
			continue
		}
		if stored, ok := d.store[lba+int64(i)]; ok {
			copy(blk, stored)
		} else {
			clear(blk)
		}
	}
	return nil
}

// Write stores data (a whole number of blocks) starting at lba.
func (d *Disk) Write(p *sim.Proc, lba int64, data []byte) error {
	if len(data)%d.spec.BlockSize != 0 {
		return fmt.Errorf("disk %s: write of %d bytes is not block-aligned", d.id, len(data))
	}
	count := len(data) / d.spec.BlockSize
	qs := trace.FromProc(p).Child("disk-queue", trace.Queue, d.id)
	lane := d.acquire(p, count)
	qs.End()
	defer d.release(lane)
	if err := d.check(lba, count); err != nil {
		return err
	}
	st := d.serviceTime(lba, count)
	sp := trace.FromProc(p).Child("disk-write", trace.Disk, d.id)
	p.Sleep(st)
	sp.End()
	if d.failed {
		return ErrFailed
	}
	d.lastEnd = lba + int64(count)
	d.stats.Writes++
	d.stats.BytesWritten += int64(len(data))
	d.stats.Busy += st
	for i := 0; i < count; i++ {
		src := data[i*d.spec.BlockSize : (i+1)*d.spec.BlockSize]
		// The store is sparse: all-zero blocks are represented by absence
		// (unwritten blocks already read as zeros), which keeps full-disk
		// operations like rebuilds from materializing empty regions.
		if allZero(src) {
			delete(d.store, lba+int64(i))
			continue
		}
		// A block already stored is overwritten in place: reads and Peek
		// copy out, so nothing outside the store holds its bytes.
		if blk, ok := d.store[lba+int64(i)]; ok {
			copy(blk, src)
			continue
		}
		d.store[lba+int64(i)] = bytes.Clone(src)
	}
	return nil
}

// allZero reports whether every byte of b is 0: its first byte is, and b
// equals itself shifted by one byte, which is one memcmp rather than a loop
// over the bytes.
func allZero(b []byte) bool {
	return len(b) == 0 || b[0] == 0 && bytes.Equal(b[1:], b[:len(b)-1])
}

// Peek returns the stored content of one block without any simulated delay
// or queueing. It is a test/verification helper, not a data path.
func (d *Disk) Peek(lba int64) []byte {
	blk, ok := d.store[lba]
	if !ok {
		return make([]byte, d.spec.BlockSize)
	}
	out := make([]byte, len(blk))
	copy(out, blk)
	return out
}

// Farm is a named collection of drives — the paper's "disk farm".
type Farm struct {
	Disks []*Disk
}

// NewFarm builds n identical drives named prefix0..prefix(n-1).
func NewFarm(k *sim.Kernel, prefix string, n int, spec Spec) *Farm {
	f := &Farm{}
	for i := 0; i < n; i++ {
		f.Disks = append(f.Disks, New(k, fmt.Sprintf("%s%d", prefix, i), spec))
	}
	return f
}

// TotalBytes returns the aggregate raw capacity.
func (f *Farm) TotalBytes() int64 {
	var total int64
	for _, d := range f.Disks {
		total += d.Spec().Bytes()
	}
	return total
}

// CorruptBlock silently overwrites one block's stored content without any
// simulated delay — a fault-injection hook for scrub/parity-verification
// tests (it models latent media corruption, not a normal write).
func (d *Disk) CorruptBlock(lba int64, data []byte) {
	if lba < 0 || lba >= d.spec.Blocks {
		return
	}
	blk := make([]byte, d.spec.BlockSize)
	copy(blk, data)
	d.store[lba] = blk
}
