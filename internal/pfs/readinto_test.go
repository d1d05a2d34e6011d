package pfs

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/sim"
)

// sliceIO hides fakeIO's ReadBlocksInto: FS reads through ReadBlocks and
// its one copy, as it does any BlockIO without the method.
type sliceIO struct{ BlockIO }

// stripedFile builds a file of blocks blocks whose extents interleave with
// another file's, so a read across an allocation chunk spans two backing
// runs, and returns its bytes.
func stripedFile(t *testing.T, fs *FS, k *sim.Kernel, blocks int) []byte {
	t.Helper()
	bs := fs.BlockSize()
	data := make([]byte, blocks*bs)
	for i := range data {
		data[i] = byte(i*7 + i/bs)
	}
	chunk := allocChunkBlocks * bs
	runFS(k, func(p *sim.Proc) {
		for _, path := range []string{"/f", "/other"} {
			if _, err := fs.Create(path, Policy{}); err != nil {
				t.Error(err)
				return
			}
		}
		for off := 0; off < len(data); off += chunk {
			if _, err := fs.WriteAt(p, "/f", int64(off), data[off:min(off+chunk, len(data))]); err != nil {
				t.Error(err)
				return
			}
			if _, err := fs.WriteAt(p, "/other", int64(off), make([]byte, chunk)); err != nil {
				t.Error(err)
				return
			}
		}
	})
	return data
}

// A read through ReadBlocksInto and one through the ReadBlocks adapter give
// the same bytes and ask the block path for the same runs, in the same
// order: aligned, unaligned at either end, across extents, and past EOF.
func TestReadAtIntoMatchesSliceAdapter(t *testing.T) {
	const blocks = 40 // 2½ allocation chunks: /f has three extents
	const bs = 512
	cases := []struct {
		name     string
		off, len int64
	}{
		{"aligned", 0, 8 * bs},
		{"unaligned head", 100, 8*bs - 100},
		{"unaligned tail", bs, 3*bs + 17},
		{"unaligned both", 1000, 2000},
		{"one partial block", 5*bs + 3, 10},
		{"multi-extent aligned", 12 * bs, 24 * bs},
		{"multi-extent unaligned", 15*bs + 511, 2*bs + 2},
		{"past EOF", 38 * bs, 8 * bs},
		{"past EOF unaligned", 39*bs + 1, bs},
		{"at EOF", blocks * bs, bs},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var got [2][]byte
			var calls [2][]ioCall
			var want []byte
			for i, hide := range []bool{false, true} {
				k := sim.NewKernel(1)
				io := newFakeIO("vol.default")
				var bio BlockIO = io
				if hide {
					bio = sliceIO{io}
				}
				fs, err := New(k, Config{IO: bio, Classes: map[string]string{"default": "vol.default"}, DefaultClass: "default"})
				if err != nil {
					t.Fatal(err)
				}
				data := stripedFile(t, fs, k, blocks)
				io.calls = nil
				buf := bytes.Repeat([]byte{0xee}, int(tc.len))
				var n int
				runFS(k, func(p *sim.Proc) {
					n, err = fs.ReadAt(p, "/f", tc.off, buf)
				})
				if err != nil {
					t.Fatal(err)
				}
				got[i], calls[i] = buf[:n], io.calls
				want = data[min(tc.off, int64(len(data))):min(tc.off+tc.len, int64(len(data)))]
			}
			for i, via := range []string{"ReadBlocksInto", "the adapter"} {
				if !bytes.Equal(got[i], want) {
					t.Errorf("through %s: %d bytes that are not the file's %d", via, len(got[i]), len(want))
				}
			}
			if fmt.Sprint(calls[0]) != fmt.Sprint(calls[1]) {
				t.Fatalf("block path calls differ:\n into    %v\n adapter %v", calls[0], calls[1])
			}
		})
	}
}

// An aligned read hands the caller's buffer itself down: the one run's
// destination is buf, and a read across extents fills consecutive
// sub-slices of it.
func TestAlignedReadFillsCallersBuffer(t *testing.T) {
	const bs = 512
	fs, io, k := newTestFS(t)
	stripedFile(t, fs, k, 40)
	for _, tc := range []struct {
		off, len int64
		runs     int
	}{{0, 8 * bs, 1}, {12 * bs, 24 * bs, 3}} {
		io.dsts = nil
		buf := make([]byte, tc.len)
		runFS(k, func(p *sim.Proc) {
			if _, err := fs.ReadAt(p, "/f", tc.off, buf); err != nil {
				t.Error(err)
			}
		})
		if len(io.dsts) != tc.runs {
			t.Fatalf("read at %d: %d block path reads, want %d", tc.off, len(io.dsts), tc.runs)
		}
		at := 0
		for i, dst := range io.dsts {
			if &dst[0] != &buf[at] {
				t.Fatalf("read at %d: run %d filled a buffer of its own, not buf[%d:]", tc.off, i, at)
			}
			at += len(dst)
		}
		if at != len(buf) {
			t.Fatalf("read at %d: runs filled %d bytes of %d", tc.off, at, len(buf))
		}
	}
}
