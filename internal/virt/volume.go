package virt

import (
	"fmt"

	"repro/internal/sim"
)

// Volume is a virtual block device carved from a Pool: thick, demand-mapped
// (DMSD) or a read-only snapshot. The operating system above "generally
// cannot perceive them as anything but real disks" (§3) — the interface is
// the same BlockDevice shape as the physical layers below.
type Volume struct {
	pool        *Pool
	name        string
	kind        Kind
	virtExtents int64
	mapping     map[int64]extentRef
	cowMu       *sim.Mutex
	deleted     bool
	// stripe is the device virtual extent 0 belongs on, once the first
	// extent placed has fixed it (see place).
	stripe  int
	striped bool
	// writesSinceAlloc counts extent allocations, for charge-back (§3:
	// "charge back can reflect actual storage usage").
	allocations int64
}

// Name returns the volume's name.
func (v *Volume) Name() string { return v.name }

// Kind returns the provisioning model.
func (v *Volume) Kind() Kind { return v.kind }

// BlockSize returns the logical block size.
func (v *Volume) BlockSize() int { return v.pool.blockSize }

// Capacity returns the virtual size in blocks. For yottabyte-scale DMSDs
// this can overflow; see VirtExtents for the exact extent count.
func (v *Volume) Capacity() int64 { return v.virtExtents * v.pool.extentBlocks }

// VirtExtents returns the virtual size in extents.
func (v *Volume) VirtExtents() int64 { return v.virtExtents }

// MappedExtents returns the number of physically mapped extents — the
// volume's actual storage consumption.
func (v *Volume) MappedExtents() int64 { return int64(len(v.mapping)) }

// PhysicalBytes returns the physically consumed bytes.
func (v *Volume) PhysicalBytes() int64 { return v.MappedExtents() * v.pool.ExtentBytes() }

// Allocations returns how many extent allocations this volume has caused —
// the charge-back counter of §3.
func (v *Volume) Allocations() int64 { return v.allocations }

// inRange reports whether [lba, lba+count) fits the virtual size without
// overflowing (virtual sizes can exceed int64 blocks).
func (v *Volume) inRange(lba int64, count int) bool {
	if lba < 0 || count < 0 {
		return false
	}
	eb := v.pool.extentBlocks
	lastExt := (lba + int64(count) - 1) / eb
	if count == 0 {
		lastExt = lba / eb
	}
	return lastExt < v.virtExtents
}

// extSpan describes the intersection of an I/O with one virtual extent.
type extSpan struct {
	ext      int64 // virtual extent index
	inExt    int64 // starting block within the extent
	blocks   int64 // block count within the extent
	bufStart int64 // offset (blocks) into the caller's buffer
}

func (v *Volume) spans(lba int64, count int) []extSpan {
	eb := v.pool.extentBlocks
	var out []extSpan
	done := int64(0)
	for done < int64(count) {
		cur := lba + done
		ext := cur / eb
		in := cur % eb
		n := eb - in
		if rem := int64(count) - done; n > rem {
			n = rem
		}
		out = append(out, extSpan{ext: ext, inExt: in, blocks: n, bufStart: done})
		done += n
	}
	return out
}

func parDo(p *sim.Proc, fns ...func(q *sim.Proc) error) error {
	if len(fns) == 1 {
		return fns[0](p)
	}
	k := p.Kernel()
	grp := sim.NewGroup(k)
	var firstErr error
	for _, fn := range fns {
		fn := fn
		grp.Add(1)
		k.Go("vpar", func(q *sim.Proc) {
			defer grp.Done()
			if err := fn(q); err != nil && firstErr == nil {
				firstErr = err
			}
		})
	}
	grp.Wait(p)
	return firstErr
}

// Read returns count blocks from virtual address lba. Unmapped ranges read
// as zeros without touching any device.
func (v *Volume) Read(p *sim.Proc, lba int64, count int) ([]byte, error) {
	if count < 0 {
		return nil, fmt.Errorf("%w: lba=%d count=%d", ErrOutOfRange, lba, count)
	}
	buf := make([]byte, int64(count)*int64(v.pool.blockSize))
	if err := v.ReadInto(p, lba, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// ReadInto is Read filling dst, a whole number of blocks that may hold
// anything: each mapped extent's device reads straight into its part of
// dst, and the parts no extent backs are zeroed here.
func (v *Volume) ReadInto(p *sim.Proc, lba int64, dst []byte) error {
	if v.deleted {
		return fmt.Errorf("virt: volume %q deleted", v.name)
	}
	bs := int64(v.pool.blockSize)
	if int64(len(dst))%bs != 0 {
		return fmt.Errorf("virt: read of %d bytes not block-aligned", len(dst))
	}
	count := int(int64(len(dst)) / bs)
	if !v.inRange(lba, count) {
		return fmt.Errorf("%w: lba=%d count=%d", ErrOutOfRange, lba, count)
	}
	eb := v.pool.extentBlocks
	if in := lba % eb; in+int64(count) <= eb {
		// Within one extent — every single-block read: nothing to fan out.
		e, ok := v.mapping[lba/eb]
		if !ok {
			clear(dst)
			return nil
		}
		return v.pool.devices[e.dev].ReadInto(p, e.start+in, dst)
	}
	var fns []func(q *sim.Proc) error
	for _, sp := range v.spans(lba, count) {
		part := dst[sp.bufStart*bs : (sp.bufStart+sp.blocks)*bs]
		e, ok := v.mapping[sp.ext]
		if !ok {
			clear(part)
			continue
		}
		sp, e := sp, e
		fns = append(fns, func(q *sim.Proc) error {
			return v.pool.devices[e.dev].ReadInto(q, e.start+sp.inExt, part)
		})
	}
	if len(fns) == 0 {
		return nil
	}
	return parDo(p, fns...)
}

// Write stores block-aligned data at virtual address lba, allocating
// (DMSD) or copying (shared snapshot extents) physical extents as needed.
func (v *Volume) Write(p *sim.Proc, lba int64, data []byte) error {
	if v.deleted {
		return fmt.Errorf("virt: volume %q deleted", v.name)
	}
	if v.kind == Snapshot {
		return ErrReadOnly
	}
	bs := int64(v.pool.blockSize)
	if int64(len(data))%bs != 0 {
		return fmt.Errorf("virt: write of %d bytes not block-aligned", len(data))
	}
	count := int(int64(len(data)) / bs)
	if !v.inRange(lba, count) {
		return fmt.Errorf("%w: lba=%d count=%d", ErrOutOfRange, lba, count)
	}
	var fns []func(q *sim.Proc) error
	for _, sp := range v.spans(lba, count) {
		sp := sp
		chunk := data[sp.bufStart*bs : (sp.bufStart+sp.blocks)*bs]
		fns = append(fns, func(q *sim.Proc) error {
			return v.writeExtent(q, sp, chunk)
		})
	}
	return parDo(p, fns...)
}

// writeExtent performs the write into a single virtual extent.
func (v *Volume) writeExtent(p *sim.Proc, sp extSpan, chunk []byte) error {
	// Fast path: extent mapped exclusively — write in place.
	if e, ok := v.mapping[sp.ext]; ok && v.pool.refcount[e] == 1 {
		dev := v.pool.devices[e.dev]
		return dev.Write(p, e.start+sp.inExt, chunk)
	}
	// Slow path: allocation or copy-on-write; serialize mapping changes.
	if v.cowMu != nil {
		v.cowMu.Lock(p)
		defer v.cowMu.Unlock()
	}
	e, mapped := v.mapping[sp.ext]
	switch {
	case mapped && v.pool.refcount[e] == 1:
		// Raced another writer that already resolved it.
		dev := v.pool.devices[e.dev]
		return dev.Write(p, e.start+sp.inExt, chunk)

	case !mapped:
		// First write to a DMSD extent: allocate and, if partially
		// covered, surround with zeros (fresh extents must read as zero).
		ne, err := v.place(sp.ext)
		if err != nil {
			return err
		}
		v.allocations++
		dev := v.pool.devices[ne.dev]
		full := sp.blocks == v.pool.extentBlocks
		var werr error
		if full {
			werr = dev.Write(p, ne.start, chunk)
		} else {
			bs := int64(v.pool.blockSize)
			buf := make([]byte, v.pool.extentBlocks*bs)
			copy(buf[sp.inExt*bs:], chunk)
			werr = dev.Write(p, ne.start, buf)
		}
		if werr != nil {
			v.pool.unref(ne)
			return werr
		}
		v.mapping[sp.ext] = ne
		return nil

	default:
		// Shared with a snapshot: copy the old extent, then overwrite.
		ne, err := v.place(sp.ext)
		if err != nil {
			return err
		}
		v.allocations++
		old := make([]byte, v.pool.ExtentBytes())
		if err := v.pool.devices[e.dev].ReadInto(p, e.start, old); err != nil {
			v.pool.unref(ne)
			return err
		}
		bs := int64(v.pool.blockSize)
		copy(old[sp.inExt*bs:], chunk)
		newDev := v.pool.devices[ne.dev]
		if err := newDev.Write(p, ne.start, old); err != nil {
			v.pool.unref(ne)
			return err
		}
		v.pool.unref(e)
		v.mapping[sp.ext] = ne
		return nil
	}
}

// place allocates the physical extent for virtual extent ext of a volume
// that maps on demand. The first extent a volume maps takes the pool's next
// free one; every later one goes to the device its address says, one device
// on per extent from that first. Placed by address, not by order of arrival,
// a sequential range rotates over all the spindle groups however its extents
// came to be written — tail first, interleaved with another volume's, after a
// snapshot — and sequential streams over one pool, all rotating alike, fall
// into step rather than collide (§2's pool-wide load spreading; DESIGN.md
// §16). A device with nothing free falls back to the pool's next extent.
func (v *Volume) place(ext int64) (extentRef, error) {
	n := int64(len(v.pool.devices))
	if v.striped {
		if e, err := v.pool.allocOn(int((int64(v.stripe) + ext) % n)); err == nil {
			return e, nil
		}
	}
	e, err := v.pool.alloc()
	if err == nil && !v.striped {
		v.striped, v.stripe = true, int(((int64(e.dev)-ext)%n+n)%n)
	}
	return e, err
}

// Trim declares [lba, lba+count) unused. Extents entirely inside the range
// are unmapped and returned to the pool (§3: "when a virtual disk block
// becomes unused, the physical block is freed"). Thick volumes ignore trim.
func (v *Volume) Trim(lba int64, count int) error {
	if v.kind != Demand {
		return nil
	}
	if !v.inRange(lba, count) {
		return fmt.Errorf("%w: lba=%d count=%d", ErrOutOfRange, lba, count)
	}
	eb := v.pool.extentBlocks
	firstFull := (lba + eb - 1) / eb
	lastFull := (lba + int64(count)) / eb // exclusive
	for ext := firstFull; ext < lastFull; ext++ {
		if e, ok := v.mapping[ext]; ok {
			v.pool.unref(e)
			delete(v.mapping, ext)
		}
	}
	return nil
}

// SnapshotAs creates a read-only point-in-time copy named name. The copy
// shares extents with the source; source writes COW away from it. Snapshot
// targets live in the pool like any volume and need not match the source's
// size class (§7.2: "remove the restriction of copies being the same size").
func (v *Volume) SnapshotAs(name string) (*Volume, error) {
	if _, exists := v.pool.volumes[name]; exists {
		return nil, fmt.Errorf("virt: volume %q exists", name)
	}
	if v.kind == Snapshot {
		return nil, fmt.Errorf("virt: cannot snapshot a snapshot")
	}
	s := &Volume{
		pool:        v.pool,
		name:        name,
		kind:        Snapshot,
		virtExtents: v.virtExtents,
		mapping:     make(map[int64]extentRef, len(v.mapping)),
	}
	for ext, e := range v.mapping {
		s.mapping[ext] = e
		v.pool.ref(e)
	}
	if v.cowMu == nil {
		v.cowMu = sim.NewMutex(v.pool.k)
	}
	v.pool.volumes[name] = s
	return s, nil
}

// Resize changes the virtual size to newExtents extents. Thick volumes
// allocate or free accordingly; DMSDs adjust bounds only ("host
// applications never have to deal with volume resizing", §3 — growth is
// free until written).
func (v *Volume) Resize(newExtents int64) error {
	if v.kind == Snapshot {
		return ErrReadOnly
	}
	if newExtents <= 0 {
		return fmt.Errorf("virt: invalid size %d", newExtents)
	}
	if v.kind == Thick {
		for e := v.virtExtents; e < newExtents; e++ {
			ne, err := v.pool.alloc()
			if err != nil {
				return err
			}
			v.mapping[e] = ne
		}
		for e := newExtents; e < v.virtExtents; e++ {
			if old, ok := v.mapping[e]; ok {
				v.pool.unref(old)
				delete(v.mapping, e)
			}
		}
	} else {
		for ext, e := range v.mapping {
			if ext >= newExtents {
				v.pool.unref(e)
				delete(v.mapping, ext)
			}
		}
	}
	v.virtExtents = newExtents
	return nil
}

// release returns all of the volume's extents to the pool.
func (v *Volume) release() {
	for ext, e := range v.mapping {
		v.pool.unref(e)
		delete(v.mapping, ext)
	}
	v.deleted = true
}

// MappedExtentIndexes returns the virtual extent indexes currently mapped,
// in unspecified order (used by distributed copy services).
func (v *Volume) MappedExtentIndexes() []int64 {
	out := make([]int64, 0, len(v.mapping))
	for ext := range v.mapping {
		out = append(out, ext)
	}
	return out
}
