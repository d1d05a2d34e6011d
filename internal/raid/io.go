package raid

import (
	"fmt"

	"repro/internal/sim"
)

// ReadInto is Read filling dst, a whole number of blocks that may hold
// anything, with one I/O per member disk wherever the disk's own cost model
// allows it. A run of several stripe rows puts a disk's data blocks apart
// both in dst and, where parity rotates onto the disk, on the disk itself;
// the disk scatters the first kind straight into dst (disk.ReadInto with a
// list of positions) and reads through the second kind whenever that is
// cheaper than seeking over it (disk.Spec.ReadThrough) and the disk can serve
// the rows in between.
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
			case g.dps == len(g.disks):
				return ErrUnrecoverable // no parity to rebuild the block from
			default:
				degraded = append(degraded, l)
			}
		}
	}

	// One I/O per run of cells a member disk serves, in disk order, then one
	// reconstruction per degraded stripe, in stripe order: the order the
	// procs spawn in is the order they queue at the disks.
	reads := make([]memberRead, 0, len(g.disks))
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
			reads = append(reads, memberRead{disk: di, at: first + int64(a), pos: cells[a:b]})
			a = b
		}
	}
	var fixes [][]int64 // runs of degraded, one stripe each
	for a := 0; a < len(degraded); {
		b := a + 1
		for b < len(degraded) && degraded[b]/dps == degraded[a]/dps {
			b++
		}
		fixes = append(fixes, degraded[a:b])
		a = b
	}
	return sim.Fan(p, "par", len(reads)+len(fixes), func(q *sim.Proc, i int) error {
		if i < len(reads) {
			r := reads[i]
			return g.disks[r.disk].ReadInto(q, r.at, dst, r.pos...)
		}
		logicals := fixes[i-len(reads)]
		stripe, err := g.stripeData(q, logicals[0]/dps)
		if err != nil {
			return err
		}
		for _, l := range logicals {
			copy(dst[(l-lba)*int64(bs):], stripe[l%dps])
		}
		return nil
	})
}

// memberRead is one I/O of a multi-row read: rows [at, at+len(pos)) of
// member disk, scattered to the blocks of dst that pos names.
type memberRead struct {
	disk int
	at   int64
	pos  []int
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
// parity consistent, including degraded stripes, stripe row by stripe row.
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
	dps := int64(g.dps)
	w := g.writer()
	w.lba, w.data = lba, data
	err := sim.Fan(p, "par", int((lba+int64(count)-1)/dps-lba/dps+1), w.rowOf)
	g.putWriter(w)
	return err
}

// rowWriter is one row write's arrays, and its fan-outs' lists and items,
// bound once: kept on the group's spare list from row to row (DESIGN §22).
// The writer Write takes also holds the call, and writes its first row.
type rowWriter struct {
	g       *Group
	s       int64    // the row
	newData [][]byte // the row's new data blocks by stripe-local position, nil where the write does not cover one
	keep    []int    // the data members whose blocks stay
	row     [][]byte // the whole row in hand, by stripe-local position
	held    [][]byte // the row's scratch blocks by disk index
	members []int    // the members a read-modify-write reads and rewrites
	reading []int    // the members readRow reads
	writes  []memberWrite
	lba     int64  // Write's first block
	data    []byte // Write's data

	read, write, rowOf func(q *sim.Proc, j int) error
}

// memberWrite is one member disk's block of a row write.
type memberWrite struct {
	disk  int
	block []byte
}

// writer returns a row writer, all of its arrays empty: the one given back
// last, or a new one.
func (g *Group) writer() *rowWriter {
	if w, ok := g.writers.Get(); ok {
		return w
	}
	w := &rowWriter{g: g, newData: make([][]byte, g.dps), row: make([][]byte, g.dps), held: make([][]byte, len(g.disks))}
	w.read, w.write, w.rowOf = w.readMember, w.writeMember, w.writeRowOf
	return w
}

// putWriter empties w and puts it back on the spare list, once its row
// write has returned.
func (g *Group) putWriter(w *rowWriter) {
	clear(w.newData)
	clear(w.row)
	clear(w.held)
	clear(w.writes)
	w.keep, w.members, w.writes = w.keep[:0], w.members[:0], w.writes[:0]
	w.reading, w.data = nil, nil
	g.writers.Put(w)
}

// writeRowOf is a Write's item i: the i-th row it covers, on the call's own
// writer for the first and on a writer of its own for any other.
func (w *rowWriter) writeRowOf(q *sim.Proc, i int) error {
	g, rw := w.g, w
	if i > 0 {
		rw = g.writer()
		defer g.putWriter(rw)
	}
	dps, bs, end := int64(g.dps), int64(g.blockSize), w.lba+int64(len(w.data)/g.blockSize)
	s := w.lba/dps + int64(i)
	for l := max(s*dps, w.lba); l < min((s+1)*dps, end); l++ {
		rw.newData[l%dps] = w.data[(l-w.lba)*bs : (l-w.lba+1)*bs]
	}
	return g.writeStripe(q, s, rw)
}

func (w *rowWriter) readMember(q *sim.Proc, j int) error {
	di := w.reading[j]
	return w.g.disks[di].ReadInto(q, w.s, w.held[di])
}

func (w *rowWriter) writeMember(q *sim.Proc, j int) error {
	return w.g.disks[w.writes[j].disk].Write(q, w.s, w.writes[j].block)
}

// writeStripe updates stripe row s with w's new data blocks (nil:
// unchanged), as the row's only writer from its reads of the old content to
// its last write. A row without parity writes its new blocks and reads
// nothing. The blocks it reads and its new parity are scratch blocks, given
// back once its disk writes have returned.
func (g *Group) writeStripe(p *sim.Proc, s int64, w *rowWriter) error {
	g.lockRows(p, s, s+1)
	defer g.unlockRows(s, s+1)
	w.s = s
	newData := w.newData
	members := g.members(s)
	dataDisks := members[:g.dps]
	pm, qd := g.parity(s)
	if len(pm) == 0 {
		for i, di := range dataDisks {
			if newData[i] != nil && !g.available(di, s) {
				return ErrUnrecoverable // no parity to keep the block in
			}
		}
		return g.writeRow(p, w, nil, nil)
	}
	keep := w.keep
	for i, di := range dataDisks {
		if newData[i] == nil {
			keep = append(keep, di)
		}
	}
	w.keep = keep
	degraded := false
	for _, di := range members {
		if !g.available(di, s) {
			degraded = true
			break
		}
	}
	parities := len(members) - len(dataDisks)
	// row becomes the whole row in hand: what stays of the old content, then
	// the new blocks over it.
	row, held := w.row, w.held
	defer g.giveBack(held)
	switch {
	case degraded:
		// Recover the full old stripe, merge, rewrite what we can.
		g.rowWrites.reconstruct++
		var err error
		if row, err = g.stripeData(p, s); err != nil {
			return err
		}
	case len(keep) == 0:
		// Full stripe: parity from new data alone, no reads.
		g.rowWrites.full++
	case len(keep) < len(dataDisks)-len(keep)+parities:
		// Reconstruct-write: reading the data blocks that stay is fewer I/Os
		// than read-modify-write's old targets and parity.
		g.rowWrites.reconstruct++
		if err := g.readRow(p, w, keep); err != nil {
			return err
		}
		for i, di := range dataDisks {
			row[i] = held[di]
		}
	default:
		// Read-modify-write: read old target blocks and parity, apply deltas.
		g.rowWrites.rmw++
		return g.rmwStripe(p, w)
	}
	for i, nd := range newData {
		if nd != nil {
			row[i] = nd
		}
	}
	held[pm[0]] = xorParity(g.scratch(), row)
	var Q []byte
	if qd >= 0 {
		Q = rsParity(g.scratch(), row)
		held[qd] = Q
	}
	return g.writeRow(p, w, held[pm[0]], Q)
}

// writeRow writes w's row's new data blocks (nil: unchanged), P to each of
// its P members and Q to its Q member, skipping a member that cannot take its
// block: the parity encodes it, and a rebuild of that member reconstructs it
// once the row is free.
func (g *Group) writeRow(p *sim.Proc, w *rowWriter, P, Q []byte) error {
	s := w.s
	put := func(di int, b []byte) {
		if g.available(di, s) {
			w.writes = append(w.writes, memberWrite{di, b})
		}
	}
	for i, di := range g.dataDisks(s) {
		if w.newData[i] != nil {
			put(di, w.newData[i])
		}
	}
	pm, qd := g.parity(s)
	for _, di := range pm {
		put(di, P)
	}
	if qd >= 0 {
		put(qd, Q)
	}
	return sim.Fan(p, "par", len(w.writes), w.write)
}

// rmwStripe performs the classic small-write read-modify-write on w's
// healthy row: it reads the old blocks it replaces and the parity into
// scratch blocks in w.held, XORs each block's delta into the parity, and
// writes blocks and parity back to the members it read. Those writes are
// unconditional: a member that failed since the reads fails the row write.
func (g *Group) rmwStripe(p *sim.Proc, w *rowWriter) error {
	s, newData, rows := w.s, w.newData, w.held
	pm, qd := g.parity(s)
	dataDisks := g.dataDisks(s)
	members := w.members
	for i, di := range dataDisks {
		if newData[i] != nil {
			members = append(members, di)
		}
	}
	members = append(members, pm...)
	if qd >= 0 {
		members = append(members, qd)
	}
	w.members = members
	if err := g.readRow(p, w, members); err != nil {
		return err
	}
	for i, di := range dataDisks {
		if newData[i] == nil {
			continue
		}
		delta := rows[di] // the old block, read for this write alone
		xorInto(delta, newData[i])
		for _, pd := range pm {
			xorInto(rows[pd], delta)
		}
		if qd >= 0 {
			gfMulInto(rows[qd], delta, gfPow2(i))
		}
		copy(delta, newData[i]) // rows holds scratch blocks only
	}
	for _, di := range members {
		w.writes = append(w.writes, memberWrite{di, rows[di]})
	}
	return sim.Fan(p, "par", len(w.writes), w.write)
}

// stripeData returns the data blocks of stripe s: it reads the available
// data members, and as many of the available parity members as make up for
// those missing, and solves the row.
func (g *Group) stripeData(p *sim.Proc, s int64) ([][]byte, error) {
	var disks []int
	for _, di := range g.members(s) {
		if len(disks) < g.dps && g.available(di, s) {
			disks = append(disks, di)
		}
	}
	rows, err := g.readRows(p, s, 1, disks)
	if err != nil {
		return nil, err
	}
	return g.solveRow(s, rows, 0)
}

// readRows reads rows [s, s+n) off each listed member disk at once, into one
// buffer, and returns them by disk index, nil for a disk not listed. The
// reads spawn in the order given, which is the order same-time events break
// ties in; a lone read runs on p.
func (g *Group) readRows(p *sim.Proc, s int64, n int, disks []int) ([][]byte, error) {
	rows := make([][]byte, len(g.disks))
	size := n * g.blockSize
	buf := make([]byte, len(disks)*size)
	for j, di := range disks {
		rows[di] = buf[j*size : (j+1)*size : (j+1)*size]
	}
	return rows, sim.Fan(p, "par", len(disks), func(q *sim.Proc, j int) error {
		return g.disks[disks[j]].ReadInto(q, s, rows[disks[j]])
	})
}

// readRow reads w's row off each listed member disk at once, each into a
// scratch block that it puts in w.held at the disk's index.
func (g *Group) readRow(p *sim.Proc, w *rowWriter, disks []int) error {
	for _, di := range disks {
		w.held[di] = g.scratch()
	}
	w.reading = disks
	return sim.Fan(p, "par", len(disks), w.read)
}

// scratch returns a block, holding anything, from the group's spare list: the
// one given back last, or a new one. The list keeps no more blocks than the
// row writes of its recent windows held at once (sim.Peak).
func (g *Group) scratch() []byte {
	g.lent++
	if keep := g.spares.Use(g.lent) - g.lent; keep >= 0 {
		g.spare.Trim(keep)
	}
	if b, ok := g.spare.Get(); ok {
		return b
	}
	return make([]byte, g.blockSize)
}

// giveBack puts the scratch blocks in rows, nil for none, back on the spare
// list: a disk copies what it stores.
func (g *Group) giveBack(rows [][]byte) {
	for _, b := range rows {
		if b != nil {
			g.spare.Put(b)
			g.lent--
		}
	}
}

// solveRow returns the data blocks of stripe s, the off-th row of the
// member reads in rows (by disk index, as readRows returns them), and
// rebuilds from parity the block of any data member whose rows are nil. A
// parity member whose rows are nil counts as lost.
func (g *Group) solveRow(s int64, rows [][]byte, off int) ([][]byte, error) {
	block := func(di int) []byte {
		if di < 0 || rows[di] == nil {
			return nil
		}
		return rows[di][off*g.blockSize : (off+1)*g.blockSize]
	}
	dataDisks := g.dataDisks(s)
	data := make([][]byte, len(dataDisks))
	var missing []int
	for i, di := range dataDisks {
		if data[i] = block(di); data[i] == nil {
			missing = append(missing, i)
		}
	}
	if len(missing) > 0 {
		pm, qd := g.parity(s)
		var P []byte
		for _, pd := range pm {
			if P = block(pd); P != nil {
				break
			}
		}
		if err := Reconstruct(data, P, block(qd), missing); err != nil {
			return nil, err
		}
	}
	return data, nil
}
