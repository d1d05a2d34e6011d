package raid

import (
	"bytes"
	"errors"
	"fmt"
	"slices"

	"repro/internal/sim"
)

// RebuildChunkStripes is the number of stripe rows reconstructed per rebuild
// work unit. Chunks are the distribution granularity: the cluster layer
// hands chunks to different controller blades (§2.4), and a chunk whose
// blade dies is simply reissued elsewhere.
const RebuildChunkStripes int64 = 256

// rebuildState is a replacement disk's rebuild: its total chunks and those
// done, which the disk serves.
type rebuildState struct {
	total int64
	done  map[int64]bool
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
	if g.dps == len(g.disks) {
		return 0, ErrUnrecoverable // no parity to rebuild it from
	}
	g.disks[idx].Replace()
	st := &rebuildState{
		total: (g.stripes + RebuildChunkStripes - 1) / RebuildChunkStripes,
		done:  make(map[int64]bool),
	}
	g.rebuilding[idx] = st
	return st.total, nil
}

// Rebuilding reports whether disk idx is mid-rebuild.
func (g *Group) Rebuilding(idx int) bool { return g.rebuilding[idx] != nil }

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
	lo := c * RebuildChunkStripes
	hi := min(lo+RebuildChunkStripes, g.stripes)
	// No write to the chunk's rows between reading the survivors and
	// marking the chunk done: a writer that waited finds the disk whole.
	g.lockRows(p, lo, hi)
	defer g.unlockRows(lo, hi)
	if err := g.rebuildParityRange(p, idx, lo, hi); err != nil {
		return err
	}
	st.done[c] = true
	if int64(len(st.done)) == st.total {
		delete(g.rebuilding, idx)
	}
	return nil
}

// rebuildParityRange reconstructs disk idx's blocks for stripes [lo,hi):
// it streams the whole range from as many surviving disks as a row has data
// blocks, in parallel (one sequential read each), reconstructs in memory, and
// writes the result as one sequential write — the access pattern real
// rebuilds use. A mirror's survivor is the one copy it reads.
func (g *Group) rebuildParityRange(p *sim.Proc, idx int, lo, hi int64) error {
	n := int(hi - lo)
	var survivors []int
	for i := range g.disks {
		if i != idx && len(survivors) < g.dps && g.available(i, lo) {
			survivors = append(survivors, i)
		}
	}
	rows, err := g.readRows(p, lo, n, survivors)
	if err != nil {
		return err
	}
	out := make([]byte, n*g.blockSize)
	for s := lo; s < hi; s++ {
		data, err := g.solveRow(s, rows, int(s-lo))
		if err != nil {
			return err
		}
		dst := out[int(s-lo)*g.blockSize:][:g.blockSize]
		switch pm, qd := g.parity(s); {
		case idx == qd:
			rsParity(dst, data)
		case slices.Contains(pm, idx):
			xorParity(dst, data)
		default:
			copy(dst, data[slices.Index(g.dataDisks(s), idx)])
		}
	}
	return g.disks[idx].Write(p, lo, out)
}

// ScrubRange verifies parity for stripes [lo, hi): every stripe's P (and
// Q) is recomputed from data and compared with what the disks hold — the
// §2.4 maintenance function that catches latent corruption before a disk
// failure turns it into data loss. For a mirror this compares every copy with
// the row's data member. Inconsistent stripes are repaired by rewriting parity
// from data, and their count is returned. The range is read in one pass that
// takes no lock; a stripe that pass finds inconsistent is read again, judged
// and repaired as its only writer, because a write in flight may have changed
// it since. A group without parity has nothing to verify.
func (g *Group) ScrubRange(p *sim.Proc, lo, hi int64) (bad int64, err error) {
	lo, hi = max(lo, 0), min(hi, g.stripes)
	if hi <= lo || g.dps == len(g.disks) {
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
// P or Q does not match their data. With repair set it rewrites each parity
// block that does not, which only the holder of those rows may ask for.
func (g *Group) scrub(p *sim.Proc, lo, hi int64, repair bool) (bad []int64, err error) {
	members := make([]int, len(g.disks))
	for i := range g.disks {
		if !g.available(i, lo) {
			return nil, ErrUnrecoverable
		}
		members[i] = i
	}
	rows, err := g.readRows(p, lo, int(hi-lo), members)
	if err != nil {
		return nil, err
	}
	bs := g.blockSize
	for s := lo; s < hi; s++ {
		data, err := g.solveRow(s, rows, int(s-lo))
		if err != nil {
			return bad, err
		}
		off := int(s-lo) * bs
		_, qd := g.parity(s)
		wantP, wantQ := xorParity(nil, data), []byte(nil)
		if qd >= 0 {
			wantQ = rsParity(nil, data)
		}
		want := func(di int) []byte {
			if di == qd {
				return wantQ
			}
			return wantP
		}
		var wrong []int // the parity members whose block is not what the data makes
		for _, di := range g.members(s)[g.dps:] {
			if !bytes.Equal(rows[di][off:off+bs], want(di)) {
				wrong = append(wrong, di)
			}
		}
		if len(wrong) == 0 {
			continue
		}
		bad = append(bad, s)
		if !repair {
			continue
		}
		for _, di := range wrong {
			if err := g.disks[di].Write(p, s, want(di)); err != nil {
				return bad, err
			}
		}
	}
	return bad, nil
}
