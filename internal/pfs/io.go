package pfs

import (
	"fmt"

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
// file's policy supplies cache priority and replication factor, and the
// installed WriteHook (geo layer) runs before WriteAt returns.
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

	// Assemble a block-aligned image of the affected range, reading any
	// boundary block whose existing content is partially retained.
	buf := make([]byte, (lastBlock-firstBlock+1)*bs)
	needFirst := off%bs != 0
	needLast := end%bs != 0
	if firstBlock == lastBlock {
		if (needFirst || needLast) && firstBlock*bs < ino.Size {
			old, err := fs.readBlocks(p, ino, firstBlock, 1, prio)
			if err != nil {
				return 0, err
			}
			copy(buf, old)
		}
	} else {
		if needFirst && firstBlock*bs < ino.Size {
			old, err := fs.readBlocks(p, ino, firstBlock, 1, prio)
			if err != nil {
				return 0, err
			}
			copy(buf, old)
		}
		if needLast && lastBlock*bs < ino.Size {
			old, err := fs.readBlocks(p, ino, lastBlock, 1, prio)
			if err != nil {
				return 0, err
			}
			copy(buf[(lastBlock-firstBlock)*bs:], old)
		}
	}
	copy(buf[off-firstBlock*bs:], data)

	// Write runs in parallel across backing extents.
	runs, err := ino.runs(firstBlock, lastBlock-firstBlock+1)
	if err != nil {
		return 0, err
	}
	grp := sim.NewGroup(fs.k)
	var firstErr error
	for _, r := range runs {
		r := r
		grp.Add(1)
		fs.k.Go("pfs.write", func(q *sim.Proc) {
			defer grp.Done()
			o := (r.fileBlock - firstBlock) * bs
			err := fs.io.WriteBlocks(q, r.vol, r.lba, buf[o:o+r.blocks*bs], prio, repl)
			if err != nil && firstErr == nil {
				firstErr = err
			}
		})
	}
	grp.Wait(p)
	if firstErr != nil {
		return 0, firstErr
	}
	if end > ino.Size {
		ino.Size = end
	}
	ino.Mtime = fs.k.Now()
	fs.BytesWritten += int64(len(data))
	if fs.hook != nil {
		if err := fs.hook(p, path, ino, off, data); err != nil {
			return len(data), err
		}
	}
	return len(data), nil
}

// readBlocks reads file blocks [start, start+count) into a byte slice.
func (fs *FS) readBlocks(p *sim.Proc, ino *Inode, start, count int64, prio int) ([]byte, error) {
	runs, err := ino.runs(start, count)
	if err != nil {
		return nil, err
	}
	if len(runs) == 1 {
		// One backing run — every read inside an extent: the block path's
		// own slice is the result, nothing to fan out or to assemble.
		return fs.io.ReadBlocks(p, runs[0].vol, runs[0].lba, int(count), prio)
	}
	bs := int64(fs.io.BlockSize())
	buf := make([]byte, count*bs)
	grp := sim.NewGroup(fs.k)
	var firstErr error
	for _, r := range runs {
		r := r
		grp.Add(1)
		fs.k.Go("pfs.read", func(q *sim.Proc) {
			defer grp.Done()
			d, err := fs.io.ReadBlocks(q, r.vol, r.lba, int(r.blocks), prio)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			copy(buf[(r.fileBlock-start)*bs:], d)
		})
	}
	grp.Wait(p)
	if firstErr != nil {
		return nil, firstErr
	}
	return buf, nil
}

// ReadAt reads up to len(buf) bytes from byte offset off, returning the
// number read. Reads past EOF are truncated (n may be < len(buf)).
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
	lastBlock := (off + n - 1) / bs
	raw, err := fs.readBlocks(p, ino, firstBlock, lastBlock-firstBlock+1, ino.Policy.CachePriority)
	if err != nil {
		return 0, err
	}
	copy(buf[:n], raw[off-firstBlock*bs:])
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
