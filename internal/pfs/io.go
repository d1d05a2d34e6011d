package pfs

import (
	"fmt"
	"slices"

	"repro/internal/sim"
)

// allocator hands out contiguous block runs within one volume's address
// space: first-fit from the free list, else bump allocation.
type allocator struct {
	next     int64
	limit    int64
	freeList [][2]int64 // {lba, blocks}
}

func (a *allocator) alloc(blocks int64) (int64, error) {
	for i, run := range a.freeList {
		if run[1] >= blocks {
			lba := run[0]
			if run[1] == blocks {
				a.freeList = append(a.freeList[:i], a.freeList[i+1:]...)
			} else {
				a.freeList[i] = [2]int64{run[0] + blocks, run[1] - blocks}
			}
			return lba, nil
		}
	}
	if a.next+blocks > a.limit {
		return 0, fmt.Errorf("pfs: volume address space exhausted")
	}
	lba := a.next
	a.next += blocks
	return lba, nil
}

func (a *allocator) free(lba, blocks int64) {
	a.freeList = append(a.freeList, [2]int64{lba, blocks})
}

// ensureCapacity grows ino's extents to cover at least blocks blocks.
func (fs *FS) ensureCapacity(ino *Inode, blocks int64) error {
	cur := int64(0)
	for _, e := range ino.Extents {
		cur += e.Blocks
	}
	if cur >= blocks {
		return nil
	}
	need := blocks - cur
	// Round to the allocation chunk.
	need = (need + allocChunkBlocks - 1) / allocChunkBlocks * allocChunkBlocks
	vol := fs.classVolume(ino.Policy)
	if vol == "" {
		return ErrNoClass
	}
	lba, err := fs.allocs[vol].alloc(need)
	if err != nil {
		return err
	}
	// Merge with the previous extent when contiguous in the same volume.
	if n := len(ino.Extents); n > 0 {
		last := &ino.Extents[n-1]
		if last.Vol == vol && last.LBA+last.Blocks == lba {
			last.Blocks += need
			return nil
		}
	}
	ino.Extents = append(ino.Extents, Extent{Vol: vol, LBA: lba, Blocks: need})
	return nil
}

// locate maps a file block index to its backing volume block.
func (ino *Inode) locate(fileBlock int64) (vol string, lba int64, ok bool) {
	rem := fileBlock
	for _, e := range ino.Extents {
		if rem < e.Blocks {
			return e.Vol, e.LBA + rem, true
		}
		rem -= e.Blocks
	}
	return "", 0, false
}

// run describes a maximal contiguous backing-volume run of file blocks.
type run struct {
	vol       string
	lba       int64
	blocks    int64
	fileBlock int64
}

// runs decomposes file blocks [start, start+count) into backing runs.
func (ino *Inode) runs(start, count int64) ([]run, error) {
	var out []run
	for b := start; b < start+count; {
		vol, lba, ok := ino.locate(b)
		if !ok {
			return nil, fmt.Errorf("pfs: block %d beyond file extents", b)
		}
		r := run{vol: vol, lba: lba, blocks: 1, fileBlock: b}
		b++
		for b < start+count {
			v2, l2, ok := ino.locate(b)
			if !ok || v2 != vol || l2 != r.lba+r.blocks {
				break
			}
			r.blocks++
			b++
		}
		out = append(out, r)
	}
	return out, nil
}

// WriteAt writes data at byte offset off, extending the file as needed.
// Partial blocks use read-modify-write through the coherent cache; the
// file's policy supplies cache priority and replication factor.
func (fs *FS) WriteAt(p *sim.Proc, path string, off int64, data []byte) (int, error) {
	ino, err := fs.lookup(path)
	if err != nil {
		return 0, err
	}
	if ino.Dir {
		return 0, ErrIsDir
	}
	if off < 0 {
		return 0, ErrBadPath
	}
	if len(data) == 0 {
		return 0, nil
	}
	bs := int64(fs.io.BlockSize())
	end := off + int64(len(data))
	if err := fs.ensureCapacity(ino, (end+bs-1)/bs); err != nil {
		return 0, err
	}

	firstBlock := off / bs
	lastBlock := (end - 1) / bs
	prio := ino.Policy.CachePriority
	repl := ino.Policy.ReplicationN
	// A partial write holds the file's partials.mu until its write-back lands,
	// and lists its first and last block from its arrival; a write covering a
	// listed block takes mu too (see partials), others take nothing.
	partial := off%bs != 0 || end%bs != 0
	if pw := ino.partials; partial || pw != nil && slices.ContainsFunc(pw.blocks, func(b int64) bool { return firstBlock <= b && b <= lastBlock }) {
		if pw == nil {
			pw = &partials{mu: *sim.NewMutex(fs.k)}
			ino.partials = pw
		}
		if partial {
			pw.blocks = append(pw.blocks, firstBlock, lastBlock)
			defer func() {
				for _, b := range [2]int64{firstBlock, lastBlock} {
					i := slices.Index(pw.blocks, b)
					pw.blocks = slices.Delete(pw.blocks, i, i+1)
				}
			}()
		}
		pw.mu.Lock(p)
		defer pw.mu.Unlock()
	}

	// A write of whole blocks goes down from data itself: the block path
	// copies what it keeps before it returns. Otherwise assemble a
	// block-aligned image of the affected range, reading any boundary block
	// whose existing content is partially retained.
	buf := data
	if partial {
		buf = make([]byte, (lastBlock-firstBlock+1)*bs)
		if (off%bs != 0 || firstBlock == lastBlock) && firstBlock*bs < ino.Size {
			if err := fs.readBlocks(p, ino, firstBlock, buf[:bs], prio); err != nil {
				return 0, err
			}
		}
		if end%bs != 0 && lastBlock != firstBlock && lastBlock*bs < ino.Size {
			if err := fs.readBlocks(p, ino, lastBlock, buf[(lastBlock-firstBlock)*bs:], prio); err != nil {
				return 0, err
			}
		}
		copy(buf[off-firstBlock*bs:], data)
	}

	// Write runs in parallel across backing extents.
	runs, err := ino.runs(firstBlock, lastBlock-firstBlock+1)
	if err != nil {
		return 0, err
	}
	err = sim.Fork(p, "pfs.write", len(runs), func(q *sim.Proc, i int) error {
		r := runs[i]
		o := (r.fileBlock - firstBlock) * bs
		return fs.io.WriteBlocks(q, r.vol, r.lba, buf[o:o+r.blocks*bs], prio, repl)
	})
	if err != nil {
		return 0, err
	}
	if end > ino.Size {
		ino.Size = end
	}
	ino.Mtime = fs.k.Now()
	fs.BytesWritten += int64(len(data))
	return len(data), nil
}

// partials orders a file's partial-block writes, which read a block, merge
// and write it back whole: two at once could each read the old block, and
// the second write-back undo the first.
type partials struct {
	mu     sim.Mutex
	blocks []int64 // the first and last block of each partial write in flight
}

// readRun fills dst, a whole number of blocks, from vol at lba: straight
// through the block path's ReadBlocksInto or, for a BlockIO without it,
// through ReadBlocks and one copy.
func (fs *FS) readRun(p *sim.Proc, vol string, lba int64, dst []byte, prio int) error {
	if fs.into != nil {
		return fs.into.ReadBlocksInto(p, vol, lba, dst, prio)
	}
	d, err := fs.io.ReadBlocks(p, vol, lba, len(dst)/fs.io.BlockSize(), prio)
	copy(dst, d)
	return err
}

// readBlocks fills dst, a whole number of blocks, with the file's blocks
// from start on: one readRun per backing run, the runs in parallel.
func (fs *FS) readBlocks(p *sim.Proc, ino *Inode, start int64, dst []byte, prio int) error {
	bs := int64(fs.io.BlockSize())
	runs, err := ino.runs(start, int64(len(dst))/bs)
	if err != nil {
		return err
	}
	if len(runs) == 1 {
		// Every read inside an extent: nothing to fan out.
		return fs.readRun(p, runs[0].vol, runs[0].lba, dst, prio)
	}
	return sim.Fork(p, "pfs.read", len(runs), func(q *sim.Proc, i int) error {
		r := runs[i]
		o := (r.fileBlock - start) * bs
		return fs.readRun(q, r.vol, r.lba, dst[o:o+r.blocks*bs], prio)
	})
}

// ReadAt reads up to len(buf) bytes from byte offset off, returning the
// number read. Reads past EOF are truncated (n may be < len(buf)). A read
// that fails may have filled part of buf.
func (fs *FS) ReadAt(p *sim.Proc, path string, off int64, buf []byte) (int, error) {
	ino, err := fs.lookup(path)
	if err != nil {
		return 0, err
	}
	if ino.Dir {
		return 0, ErrIsDir
	}
	if off < 0 {
		return 0, ErrBadPath
	}
	if off >= ino.Size {
		return 0, nil
	}
	n := int64(len(buf))
	if off+n > ino.Size {
		n = ino.Size - off
	}
	if n == 0 {
		return 0, nil
	}
	bs := int64(fs.io.BlockSize())
	firstBlock := off / bs
	// Whole blocks land in buf itself; a range with a partial block is
	// read whole into a scratch buffer and the bytes asked for copied out.
	dst := buf[:n]
	aligned := off%bs == 0 && n%bs == 0
	if !aligned {
		lastBlock := (off + n - 1) / bs
		dst = make([]byte, (lastBlock-firstBlock+1)*bs)
	}
	if err := fs.readBlocks(p, ino, firstBlock, dst, ino.Policy.CachePriority); err != nil {
		return 0, err
	}
	if !aligned {
		copy(buf[:n], dst[off-firstBlock*bs:])
	}
	fs.BytesRead += n
	return int(n), nil
}

// WriteFile replaces a file's contents (creating it if absent) — the
// convenience used by examples and workloads.
func (fs *FS) WriteFile(p *sim.Proc, path string, data []byte, policy Policy) error {
	if _, err := fs.lookup(path); err != nil {
		if _, cerr := fs.Create(path, policy); cerr != nil {
			return cerr
		}
	}
	_, err := fs.WriteAt(p, path, 0, data)
	return err
}

// ReadFile returns a file's full contents.
func (fs *FS) ReadFile(p *sim.Proc, path string) ([]byte, error) {
	ino, err := fs.lookup(path)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, ino.Size)
	n, err := fs.ReadAt(p, path, 0, buf)
	return buf[:n], err
}
