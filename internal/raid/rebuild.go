package raid

import (
	"errors"
	"fmt"

	"repro/internal/sim"
)

// RebuildChunkStripes is the number of stripe rows reconstructed per rebuild
// work unit. Chunks are the distribution granularity: the cluster layer
// hands chunks to different controller blades (§2.4), and a chunk whose
// blade dies is simply reissued elsewhere.
const RebuildChunkStripes int64 = 256

type rebuildState struct {
	chunk int64
	total int64
	done  map[int64]bool
	// epoch counts degraded writes that raced a chunk's reconstruction;
	// RebuildChunk retries until it completes without interference.
	epoch map[int64]uint64
}

// markDirty records that a write touched stripes [s, s+count) while disk idx
// was unavailable, so an in-flight reconstruction of those chunks is stale.
func (g *Group) markDirty(idx int, s, count int64) {
	st := g.rebuilding[idx]
	if st == nil {
		return
	}
	for c := s / st.chunk; c <= (s+count-1)/st.chunk; c++ {
		if !st.done[c] {
			st.epoch[c]++
		}
	}
}

// StartRebuild replaces the failed disk idx with a fresh drive and opens a
// rebuild: the disk serves I/O again chunk by chunk as reconstruction
// progresses. It returns the number of chunks to rebuild.
func (g *Group) StartRebuild(idx int) (chunks int64, err error) {
	if idx < 0 || idx >= len(g.disks) {
		return 0, fmt.Errorf("raid: no disk %d", idx)
	}
	if !g.disks[idx].Failed() {
		return 0, errors.New("raid: disk has not failed")
	}
	if g.level == RAID0 {
		return 0, ErrUnrecoverable
	}
	g.disks[idx].Replace()
	st := &rebuildState{
		chunk: RebuildChunkStripes,
		done:  make(map[int64]bool),
		epoch: make(map[int64]uint64),
	}
	st.total = (g.stripes + st.chunk - 1) / st.chunk
	g.rebuilding[idx] = st
	return st.total, nil
}

// Rebuilding reports whether disk idx is mid-rebuild.
func (g *Group) Rebuilding(idx int) bool { return g.rebuilding[idx] != nil }

// RebuildProgress returns the fraction of chunks completed for disk idx
// (1.0 if not rebuilding).
func (g *Group) RebuildProgress(idx int) float64 {
	st := g.rebuilding[idx]
	if st == nil {
		return 1
	}
	return float64(len(st.done)) / float64(st.total)
}

// RebuildChunk reconstructs chunk c of disk idx's rebuild. It may be called
// from any simulation process; disjoint chunks may be rebuilt concurrently
// by different workers. Completing the final chunk closes the rebuild.
func (g *Group) RebuildChunk(p *sim.Proc, idx int, c int64) error {
	st := g.rebuilding[idx]
	if st == nil {
		return errors.New("raid: disk not rebuilding")
	}
	if c < 0 || c >= st.total {
		return fmt.Errorf("raid: chunk %d out of range", c)
	}
	if st.done[c] {
		return nil
	}
	lo := c * st.chunk
	hi := lo + st.chunk
	if hi > g.stripes {
		hi = g.stripes
	}
	if g.level != RAID1 {
		// No write to the chunk's rows between reading the survivors and
		// marking the chunk done: a writer that waited finds the disk whole.
		// (The epoch below then never moves; a mirror's writers take no lock.)
		g.lockRows(p, lo, hi)
		defer g.unlockRows(lo, hi)
	}
	for {
		e := st.epoch[c]
		var err error
		if g.level == RAID1 {
			err = g.rebuildMirrorRange(p, idx, lo, hi)
		} else {
			err = g.rebuildParityRange(p, idx, lo, hi)
		}
		if err != nil {
			return err
		}
		if st.epoch[c] == e {
			st.done[c] = true
			if int64(len(st.done)) == st.total {
				delete(g.rebuilding, idx)
			}
			return nil
		}
		// A degraded write raced us; reconstruct this chunk again.
	}
}

func (g *Group) rebuildMirrorRange(p *sim.Proc, idx int, lo, hi int64) error {
	src := -1
	for i := range g.disks {
		if i != idx && g.available(i, lo) {
			src = i
			break
		}
	}
	if src < 0 {
		return ErrUnrecoverable
	}
	data, err := g.disks[src].Read(p, lo, int(hi-lo))
	if err != nil {
		return err
	}
	return g.disks[idx].Write(p, lo, data)
}

// rebuildParityRange reconstructs disk idx's blocks for stripes [lo,hi):
// it streams the whole range from every surviving disk in parallel (one
// sequential read each), reconstructs in memory, and writes the result as
// one sequential write — the access pattern real rebuilds use.
func (g *Group) rebuildParityRange(p *sim.Proc, idx int, lo, hi int64) error {
	n := int(hi - lo)
	raw := make([][]byte, len(g.disks))
	var fns []func(q *sim.Proc) error
	for i := range g.disks {
		i := i
		if i == idx || !g.available(i, lo) {
			continue
		}
		fns = append(fns, func(q *sim.Proc) error {
			d, err := g.disks[i].Read(q, lo, n)
			if err == nil {
				raw[i] = d
			}
			return err
		})
	}
	if err := parallel(p, fns...); err != nil {
		return err
	}

	out := make([]byte, n*g.blockSize)
	for s := lo; s < hi; s++ {
		off := int(s-lo) * g.blockSize
		blockOf := func(di int) []byte {
			if raw[di] == nil {
				return nil
			}
			return raw[di][off : off+g.blockSize]
		}
		pd, qd := g.parityDisks(s)
		dataDisks := g.dataDisks(s)
		data := make([][]byte, len(dataDisks))
		var missing []int
		targetDataIdx := -1
		for i, di := range dataDisks {
			if di == idx {
				missing = append(missing, i)
				targetDataIdx = i
				continue
			}
			if b := blockOf(di); b != nil {
				data[i] = b
			} else {
				missing = append(missing, i)
			}
		}
		var pBuf, qBuf []byte
		pLost, qLost := true, true
		if pd >= 0 && pd != idx {
			if b := blockOf(pd); b != nil {
				pBuf, pLost = b, false
			}
		}
		if qd >= 0 && qd != idx {
			if b := blockOf(qd); b != nil {
				qBuf, qLost = b, false
			}
		}
		if len(missing) > 0 {
			if err := Reconstruct(data, pBuf, qBuf, missing, pLost, qLost); err != nil {
				return err
			}
		}
		var target []byte
		switch {
		case targetDataIdx >= 0:
			target = data[targetDataIdx]
		case pd == idx:
			target = XORParity(data)
		case qd == idx:
			target = RSParity(data)
		default:
			return fmt.Errorf("raid: disk %d holds no block in stripe %d", idx, s)
		}
		copy(out[off:], target)
	}
	return g.disks[idx].Write(p, lo, out)
}

// Rebuild runs a complete rebuild of disk idx with the given number of
// concurrent workers, blocking p until done. The cluster layer distributes
// chunks across blades instead; this is the single-controller path the
// baseline uses.
func (g *Group) Rebuild(p *sim.Proc, idx int, workers int) error {
	st := g.rebuilding[idx]
	if st == nil {
		return errors.New("raid: disk not rebuilding (call StartRebuild)")
	}
	if workers < 1 {
		workers = 1
	}
	total := st.total
	next := int64(0)
	var fns []func(q *sim.Proc) error
	var firstErr error
	for w := 0; w < workers; w++ {
		fns = append(fns, func(q *sim.Proc) error {
			for {
				if next >= total {
					return nil
				}
				c := next
				next++
				if err := g.RebuildChunk(q, idx, c); err != nil {
					if firstErr == nil {
						firstErr = err
					}
					return err
				}
			}
		})
	}
	if err := parallel(p, fns...); err != nil {
		return err
	}
	return firstErr
}

// ScrubRange verifies parity for stripes [lo, hi): every stripe's P (and
// Q) is recomputed from data and compared with what the disks hold — the
// §2.4 maintenance function that catches latent corruption before a disk
// failure turns it into data loss. Inconsistent stripes are repaired by
// rewriting parity from data, and their count is returned. The range is read
// in one pass that takes no lock; a stripe that pass finds inconsistent is
// read again, judged and repaired as its only writer, because a write in
// flight may have changed it since.
func (g *Group) ScrubRange(p *sim.Proc, lo, hi int64) (bad int64, err error) {
	if g.level != RAID5 && g.level != RAID6 {
		return 0, nil // mirror scrub is a plain compare; not modeled
	}
	if lo < 0 {
		lo = 0
	}
	if hi > g.stripes {
		hi = g.stripes
	}
	if hi <= lo {
		return 0, nil
	}
	suspects, err := g.scrub(p, lo, hi, false)
	if err != nil {
		return 0, err
	}
	for _, s := range suspects {
		g.lockRows(p, s, s+1)
		still, err := g.scrub(p, s, s+1, true)
		g.unlockRows(s, s+1)
		if err != nil {
			return bad, err
		}
		bad += int64(len(still))
	}
	return bad, nil
}

// scrub reads stripes [lo, hi) off every member disk and returns those whose
// P or Q does not match their data. With repair set it rewrites the parity of
// each, which only the holder of those rows may ask for.
func (g *Group) scrub(p *sim.Proc, lo, hi int64, repair bool) (bad []int64, err error) {
	n := int(hi - lo)
	raw := make([][]byte, len(g.disks))
	var fns []func(q *sim.Proc) error
	for i := range g.disks {
		i := i
		if !g.available(i, lo) {
			return nil, ErrUnrecoverable
		}
		fns = append(fns, func(q *sim.Proc) error {
			d, err := g.disks[i].Read(q, lo, n)
			if err == nil {
				raw[i] = d
			}
			return err
		})
	}
	if err := parallel(p, fns...); err != nil {
		return nil, err
	}
	for s := lo; s < hi; s++ {
		off := int(s-lo) * g.blockSize
		pd, qd := g.parityDisks(s)
		data := make([][]byte, 0, g.dataPerStripe())
		for _, di := range g.dataDisks(s) {
			data = append(data, raw[di][off:off+g.blockSize])
		}
		wantP := XORParity(data)
		okP := bytesEqual(raw[pd][off:off+g.blockSize], wantP)
		var wantQ []byte
		okQ := true
		if qd >= 0 {
			wantQ = RSParity(data)
			okQ = bytesEqual(raw[qd][off:off+g.blockSize], wantQ)
		}
		if okP && okQ {
			continue
		}
		bad = append(bad, s)
		if !repair {
			continue
		}
		if !okP {
			if err := g.disks[pd].Write(p, s, wantP); err != nil {
				return bad, err
			}
		}
		if !okQ {
			if err := g.disks[qd].Write(p, s, wantQ); err != nil {
				return bad, err
			}
		}
	}
	return bad, nil
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
