package raid

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/sim"
)

// ReadInto is Read filling dst, a whole number of blocks that may hold
// anything, with one I/O per member disk wherever the disk's own cost model
// allows it. A run of several stripe rows puts a disk's data blocks apart
// both in dst and, where parity rotates onto the disk, on the disk itself;
// the disk scatters the first kind straight into dst (disk.ReadScatter) and
// reads through the second kind whenever that is cheaper than seeking over
// it (disk.Spec.ReadThrough) and the disk can serve the rows in between.
// Only a reconstructed stripe passes through a buffer of its own.
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

	// pos is one row of cells per member disk, one cell per stripe row of
	// the run: the block of dst the disk's block in that row fills, or -1
	// for a row that holds nothing this read wants from the disk (parity,
	// a block outside the run, a block the disk cannot serve).
	dps := int64(g.dataPerStripe())
	first, end := lba/dps, lba+int64(count)
	rows := int((end-1)/dps - first + 1)
	pos := make([]int, len(g.disks)*rows)
	for i := range pos {
		pos[i] = -1
	}
	var degraded []int64 // logical blocks needing reconstruction, ascending
	for r := 0; r < rows; r++ {
		s := first + int64(r)
		for idx, di := range g.dataDisks(s) {
			l := s*dps + int64(idx)
			switch {
			case l < lba || l >= end:
			case g.available(di, s):
				pos[di*rows+r] = int(l - lba)
			case g.level == RAID0:
				return ErrUnrecoverable
			default:
				degraded = append(degraded, l)
			}
		}
	}

	var fns []func(q *sim.Proc) error
	for di, d := range g.disks {
		cells := pos[di*rows : (di+1)*rows]
		for a := 0; a < rows; {
			if cells[a] < 0 {
				a++
				continue
			}
			// One I/O covers cells[a:b]: it grows over every wanted row
			// that is adjacent or worth reading through to.
			b := a + 1
			for next := b; next < rows; next++ {
				if cells[next] < 0 {
					continue
				}
				if gap := next - b; gap > 0 &&
					!(d.Spec().ReadThrough(gap) && g.availableRange(di, first+int64(b), int64(gap))) {
					break
				}
				b = next + 1
			}
			at, io := first+int64(a), cells[a:b]
			fns = append(fns, func(q *sim.Proc) error { return d.ReadScatter(q, at, dst, io) })
			a = b
		}
	}
	// One reconstruction per degraded stripe, in stripe order: the order
	// the procs spawn in is the order they queue at the surviving disks.
	for a := 0; a < len(degraded); {
		s := degraded[a] / dps
		b := a + 1
		for b < len(degraded) && degraded[b]/dps == s {
			b++
		}
		logicals := degraded[a:b]
		fns = append(fns, func(q *sim.Proc) error {
			stripe, err := g.stripeData(q, s, nil)
			if err != nil {
				return err
			}
			for _, l := range logicals {
				copy(dst[(l-lba)*int64(bs):], stripe[l%dps])
			}
			return nil
		})
		a = b
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
// blocks (indexed by stripe-local data position), as the row's only writer
// from its reads of the old content to its last write.
func (g *Group) writeStripe(p *sim.Proc, s int64, newData map[int64][]byte) error {
	g.lockRows(p, s, s+1)
	defer g.unlockRows(s, s+1)
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
	parities := len(g.disks) - dps
	// row becomes the whole row in hand: what stays of the old content, then
	// the new blocks over it.
	row := make([][]byte, dps)
	switch {
	case degraded:
		// Recover the full old stripe, merge, rewrite what we can.
		g.rowWrites.reconstruct++
		var err error
		if row, err = g.stripeData(p, s, nil); err != nil {
			return err
		}
	case len(newData) == dps:
		// Full stripe: parity from new data alone, no reads.
		g.rowWrites.full++
	case dps-len(newData) < len(newData)+parities:
		// Reconstruct-write: reading the data blocks that stay is fewer I/Os
		// than read-modify-write's old targets and parity.
		g.rowWrites.reconstruct++
		var fns []func(q *sim.Proc) error
		for i, di := range dataDisks {
			if _, ok := newData[int64(i)]; !ok {
				fns = append(fns, func(q *sim.Proc) (err error) {
					row[i], err = g.disks[di].Read(q, s, 1)
					return err
				})
			}
		}
		if err := parallel(p, fns...); err != nil {
			return err
		}
	default:
		// Read-modify-write: read old target blocks and parity, apply deltas.
		g.rowWrites.rmw++
		return g.rmwStripe(p, s, newData, dataDisks, pd, qd)
	}
	for idx, nd := range newData {
		row[idx] = nd
	}
	return g.writeStripeBlocks(p, s, row, dataDisks, pd, qd, newData)
}

// writeStripeBlocks writes the given full logical stripe content: the data
// blocks whose stripe-local index is in only, plus parity, skipping
// unavailable disks (their content is encoded in the parity).
func (g *Group) writeStripeBlocks(p *sim.Proc, s int64, blocks [][]byte, dataDisks []int, pd, qd int, only map[int64][]byte) error {
	var fns []func(q *sim.Proc) error
	for i, di := range dataDisks {
		i, di := i, di
		if _, ok := only[int64(i)]; !ok {
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
	// In index order, not Go's map order: the order the procs spawn in is
	// the order same-time events break ties in.
	idxs := slices.Sorted(maps.Keys(newData))
	for _, idx := range idxs {
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
	for _, idx := range idxs {
		nd := newData[idx]
		delta := make([]byte, g.blockSize)
		copy(delta, oldData[idx])
		xorInto(delta, nd)
		xorInto(newP, delta)
		if newQ != nil {
			gfMulInto(newQ, delta, gfPow2(int(idx)))
		}
	}

	var writeFns []func(q *sim.Proc) error
	for _, idx := range idxs {
		nd := newData[idx]
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
