package raid

import (
	"fmt"

	"repro/internal/sim"
)

// Read returns count logical blocks starting at lba, reconstructing any
// blocks that live on failed or not-yet-rebuilt disks (degraded read).
func (g *Group) Read(p *sim.Proc, lba int64, count int) ([]byte, error) {
	if count < 0 {
		return nil, fmt.Errorf("raid: read out of range lba=%d count=%d cap=%d", lba, count, g.Capacity())
	}
	buf := make([]byte, count*g.blockSize)
	if err := g.ReadInto(p, lba, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// ReadInto is Read filling dst, a whole number of blocks that may hold
// anything. A block on an available disk is read straight into its place
// in dst; only a run of several stripe rows on one disk (one sequential
// disk I/O whose blocks lie apart in dst) and a reconstructed stripe pass
// through a buffer of their own.
func (g *Group) ReadInto(p *sim.Proc, lba int64, dst []byte) error {
	bs := g.blockSize
	if len(dst)%bs != 0 {
		return fmt.Errorf("raid: read of %d bytes not block-aligned", len(dst))
	}
	count := len(dst) / bs
	if lba < 0 || lba+int64(count) > g.Capacity() {
		return fmt.Errorf("raid: read out of range lba=%d count=%d cap=%d", lba, count, g.Capacity())
	}
	if count == 0 {
		return nil
	}
	if g.level == RAID1 {
		return g.readMirrored(p, lba, dst)
	}
	if count == 1 {
		// The coherence miss path: one block, one disk, nothing to gather.
		if diskIdx, dlba := g.locate(lba); g.available(diskIdx, dlba) {
			return g.disks[diskIdx].ReadInto(p, dlba, dst)
		}
	}

	var items []extent
	var degradedStripes map[int64][]int64 // stripe → logical blocks needing reconstruction
	for i := 0; i < count; i++ {
		l := lba + int64(i)
		diskIdx, dlba := g.locate(l)
		if g.available(diskIdx, dlba) {
			items = append(items, extent{diskIdx: diskIdx, lba: dlba, positions: []int64{int64(i)}})
		} else {
			if g.level == RAID0 {
				return ErrUnrecoverable
			}
			if degradedStripes == nil {
				degradedStripes = make(map[int64][]int64)
			}
			s := dlba // for RAID5/6 the on-disk LBA is the stripe number
			degradedStripes[s] = append(degradedStripes[s], l)
		}
	}

	var fns []func(q *sim.Proc) error
	for _, ext := range coalesce(items) {
		ext := ext
		fns = append(fns, func(q *sim.Proc) error {
			d := g.disks[ext.diskIdx]
			if len(ext.positions) == 1 {
				pos := int(ext.positions[0])
				return d.ReadInto(q, ext.lba, dst[pos*bs:(pos+1)*bs])
			}
			data, err := d.Read(q, ext.lba, len(ext.positions))
			if err != nil {
				return err
			}
			for j, pos := range ext.positions {
				copy(dst[pos*int64(bs):], data[j*bs:(j+1)*bs])
			}
			return nil
		})
	}
	for s, logicals := range degradedStripes {
		s, logicals := s, logicals
		fns = append(fns, func(q *sim.Proc) error {
			stripe, err := g.stripeData(q, s, nil)
			if err != nil {
				return err
			}
			dps := int64(g.dataPerStripe())
			for _, l := range logicals {
				idx := l % dps
				copy(dst[(l-lba)*int64(bs):], stripe[idx])
			}
			return nil
		})
	}
	return parallel(p, fns...)
}

// readMirrored serves a RAID-1 read from the least-recently-used mirror
// that holds the whole range (a replacement mid-rebuild holds only its
// reconstructed chunks), falling back if the chosen mirror fails mid-flight.
func (g *Group) readMirrored(p *sim.Proc, lba int64, dst []byte) error {
	count := int64(len(dst) / g.blockSize)
	for attempt := 0; attempt < len(g.disks); attempt++ {
		idx := -1
		for off := 0; off < len(g.disks); off++ {
			i := (int(lba) + attempt + off) % len(g.disks)
			if g.availableRange(i, lba, count) {
				idx = i
				break
			}
		}
		if idx < 0 {
			return ErrUnrecoverable
		}
		if g.disks[idx].ReadInto(p, lba, dst) == nil {
			return nil
		}
	}
	return ErrUnrecoverable
}

// Write stores data (block-aligned) starting at logical block lba, keeping
// parity/mirrors consistent, including degraded stripes.
func (g *Group) Write(p *sim.Proc, lba int64, data []byte) error {
	if len(data)%g.blockSize != 0 {
		return fmt.Errorf("raid: write of %d bytes not block-aligned", len(data))
	}
	count := len(data) / g.blockSize
	if lba < 0 || lba+int64(count) > g.Capacity() {
		return fmt.Errorf("raid: write out of range lba=%d count=%d cap=%d", lba, count, g.Capacity())
	}
	if count == 0 {
		return nil
	}
	switch g.level {
	case RAID0:
		return g.writeStriped(p, lba, count, data)
	case RAID1:
		return g.writeMirrored(p, lba, count, data)
	default:
		return g.writeParity(p, lba, count, data)
	}
}

func (g *Group) writeStriped(p *sim.Proc, lba int64, count int, data []byte) error {
	var items []extent
	for i := 0; i < count; i++ {
		diskIdx, dlba := g.locate(lba + int64(i))
		if !g.available(diskIdx, dlba) {
			return ErrUnrecoverable
		}
		items = append(items, extent{diskIdx: diskIdx, lba: dlba, positions: []int64{int64(i)}})
	}
	var fns []func(q *sim.Proc) error
	for _, ext := range coalesce(items) {
		ext := ext
		fns = append(fns, func(q *sim.Proc) error {
			out := make([]byte, len(ext.positions)*g.blockSize)
			for j, pos := range ext.positions {
				copy(out[j*g.blockSize:], data[pos*int64(g.blockSize):(pos+1)*int64(g.blockSize)])
			}
			return g.disks[ext.diskIdx].Write(q, ext.lba, out)
		})
	}
	return parallel(p, fns...)
}

func (g *Group) writeMirrored(p *sim.Proc, lba int64, count int, data []byte) error {
	var fns []func(q *sim.Proc) error
	wrote := 0
	for i := range g.disks {
		i := i
		if g.disks[i].Failed() {
			continue
		}
		wrote++
		fns = append(fns, func(q *sim.Proc) error {
			err := g.disks[i].Write(q, lba, data)
			g.markDirty(i, lba, int64(count))
			return err
		})
	}
	if wrote == 0 {
		return ErrUnrecoverable
	}
	return parallel(p, fns...)
}

// writeParity handles RAID-5/6, stripe row by stripe row.
func (g *Group) writeParity(p *sim.Proc, lba int64, count int, data []byte) error {
	dps := int64(g.dataPerStripe())
	first := lba / dps
	last := (lba + int64(count) - 1) / dps
	var fns []func(q *sim.Proc) error
	for s := first; s <= last; s++ {
		s := s
		// logical block range of this stripe intersected with the write
		lo := s * dps
		if lo < lba {
			lo = lba
		}
		hi := (s + 1) * dps
		if hi > lba+int64(count) {
			hi = lba + int64(count)
		}
		newData := make(map[int64][]byte) // stripe-local data index → block
		for l := lo; l < hi; l++ {
			off := (l - lba) * int64(g.blockSize)
			newData[l%dps] = data[off : off+int64(g.blockSize)]
		}
		fns = append(fns, func(q *sim.Proc) error {
			return g.writeStripe(q, s, newData)
		})
	}
	return parallel(p, fns...)
}

// writeStripe updates one RAID-5/6 stripe row with the given new data
// blocks (indexed by stripe-local data position).
func (g *Group) writeStripe(p *sim.Proc, s int64, newData map[int64][]byte) error {
	dps := g.dataPerStripe()
	pd, qd := g.parityDisks(s)
	dataDisks := g.dataDisks(s)

	degraded := false
	for i := range g.disks {
		if !g.available(i, s) {
			degraded = true
			break
		}
	}
	fullStripe := len(newData) == dps

	switch {
	case !degraded && fullStripe:
		// Reconstruct-write: parity from new data alone, no reads.
		blocks := make([][]byte, dps)
		for i := range blocks {
			blocks[i] = newData[int64(i)]
		}
		return g.writeStripeBlocks(p, s, blocks, dataDisks, pd, qd, nil)

	case !degraded:
		// Read-modify-write: read old target blocks and parity, apply deltas.
		return g.rmwStripe(p, s, newData, dataDisks, pd, qd)

	default:
		// Degraded: recover the full old stripe, merge, rewrite what we can.
		old, err := g.stripeData(p, s, nil)
		if err != nil {
			return err
		}
		blocks := make([][]byte, dps)
		for i := range blocks {
			if nd, ok := newData[int64(i)]; ok {
				blocks[i] = nd
			} else {
				blocks[i] = old[i]
			}
		}
		only := make(map[int64]bool, len(newData))
		for idx := range newData {
			only[idx] = true
		}
		return g.writeStripeBlocks(p, s, blocks, dataDisks, pd, qd, only)
	}
}

// writeStripeBlocks writes the given full logical stripe content: data
// blocks whose stripe-local index is in writeIdx (nil = all), plus parity,
// skipping unavailable disks (their content is encoded in the parity).
func (g *Group) writeStripeBlocks(p *sim.Proc, s int64, blocks [][]byte, dataDisks []int, pd, qd int, writeIdx map[int64]bool) error {
	var fns []func(q *sim.Proc) error
	for i, di := range dataDisks {
		i, di := i, di
		if writeIdx != nil && !writeIdx[int64(i)] {
			continue
		}
		if !g.available(di, s) {
			g.markDirty(di, s, 1)
			continue
		}
		fns = append(fns, func(q *sim.Proc) error {
			return g.disks[di].Write(q, s, blocks[i])
		})
	}
	if pd >= 0 {
		pp := XORParity(blocks)
		if g.available(pd, s) {
			fns = append(fns, func(q *sim.Proc) error {
				return g.disks[pd].Write(q, s, pp)
			})
		} else {
			g.markDirty(pd, s, 1)
		}
	}
	if qd >= 0 {
		qq := RSParity(blocks)
		if g.available(qd, s) {
			fns = append(fns, func(q *sim.Proc) error {
				return g.disks[qd].Write(q, s, qq)
			})
		} else {
			g.markDirty(qd, s, 1)
		}
	}
	return parallel(p, fns...)
}

// rmwStripe performs the classic small-write read-modify-write on a
// healthy stripe: read old data + parity, XOR deltas in, write back.
func (g *Group) rmwStripe(p *sim.Proc, s int64, newData map[int64][]byte, dataDisks []int, pd, qd int) error {
	oldData := make(map[int64][]byte)
	var oldP, oldQ []byte
	var readFns []func(q *sim.Proc) error
	for idx := range newData {
		idx := idx
		readFns = append(readFns, func(q *sim.Proc) error {
			d, err := g.disks[dataDisks[idx]].Read(q, s, 1)
			if err == nil {
				oldData[idx] = d
			}
			return err
		})
	}
	readFns = append(readFns, func(q *sim.Proc) error {
		d, err := g.disks[pd].Read(q, s, 1)
		if err == nil {
			oldP = d
		}
		return err
	})
	if qd >= 0 {
		readFns = append(readFns, func(q *sim.Proc) error {
			d, err := g.disks[qd].Read(q, s, 1)
			if err == nil {
				oldQ = d
			}
			return err
		})
	}
	if err := parallel(p, readFns...); err != nil {
		return err
	}

	newP := make([]byte, g.blockSize)
	copy(newP, oldP)
	var newQ []byte
	if qd >= 0 {
		newQ = make([]byte, g.blockSize)
		copy(newQ, oldQ)
	}
	for idx, nd := range newData {
		delta := make([]byte, g.blockSize)
		copy(delta, oldData[idx])
		xorInto(delta, nd)
		xorInto(newP, delta)
		if newQ != nil {
			gfMulInto(newQ, delta, gfPow2(int(idx)))
		}
	}

	var writeFns []func(q *sim.Proc) error
	for idx, nd := range newData {
		idx, nd := idx, nd
		writeFns = append(writeFns, func(q *sim.Proc) error {
			return g.disks[dataDisks[idx]].Write(q, s, nd)
		})
	}
	writeFns = append(writeFns, func(q *sim.Proc) error {
		return g.disks[pd].Write(q, s, newP)
	})
	if qd >= 0 {
		writeFns = append(writeFns, func(q *sim.Proc) error {
			return g.disks[qd].Write(q, s, newQ)
		})
	}
	return parallel(p, writeFns...)
}

// stripeData returns the full data content of stripe s, reading what is
// available and reconstructing the rest from parity. Disks in exclude are
// treated as unavailable (used by rebuild).
func (g *Group) stripeData(p *sim.Proc, s int64, exclude map[int]bool) ([][]byte, error) {
	pd, qd := g.parityDisks(s)
	dataDisks := g.dataDisks(s)
	avail := func(i int) bool { return !exclude[i] && g.available(i, s) }

	data := make([][]byte, len(dataDisks))
	var pBuf, qBuf []byte
	var missing []int
	pLost, qLost := pd < 0, qd < 0

	var fns []func(q *sim.Proc) error
	for i, di := range dataDisks {
		i, di := i, di
		if !avail(di) {
			missing = append(missing, i)
			continue
		}
		fns = append(fns, func(q *sim.Proc) error {
			d, err := g.disks[di].Read(q, s, 1)
			if err == nil {
				data[i] = d
			}
			return err
		})
	}
	needParity := len(missing) > 0
	if pd >= 0 {
		if !avail(pd) {
			pLost = true
		} else if needParity {
			fns = append(fns, func(q *sim.Proc) error {
				d, err := g.disks[pd].Read(q, s, 1)
				if err == nil {
					pBuf = d
				}
				return err
			})
		}
	}
	if qd >= 0 {
		if !avail(qd) {
			qLost = true
		} else if needParity {
			fns = append(fns, func(q *sim.Proc) error {
				d, err := g.disks[qd].Read(q, s, 1)
				if err == nil {
					qBuf = d
				}
				return err
			})
		}
	}
	if err := parallel(p, fns...); err != nil {
		return nil, err
	}
	if len(missing) > 0 {
		if err := Reconstruct(data, pBuf, qBuf, missing, pLost || pBuf == nil, qLost || qBuf == nil); err != nil {
			return nil, err
		}
	}
	return data, nil
}
