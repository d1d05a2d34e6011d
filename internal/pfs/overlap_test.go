package pfs

import (
	"bytes"
	"testing"

	"repro/internal/sim"
)

// slowIO is fakeIO with a latency on every block read and write, so that
// writes issued together overlap.
type slowIO struct{ *fakeIO }

func (s slowIO) ReadBlocksInto(p *sim.Proc, vol string, lba int64, dst []byte, prio int) error {
	p.Sleep(sim.Millisecond)
	return s.fakeIO.ReadBlocksInto(p, vol, lba, dst, prio)
}

func (s slowIO) WriteBlocks(p *sim.Proc, vol string, lba int64, data []byte, prio, repl int) error {
	p.Sleep(sim.Millisecond)
	return s.fakeIO.WriteBlocks(p, vol, lba, data, prio, repl)
}

// patch is one write: bytes and where they go.
type patch struct {
	off  int64
	data []byte
}

// writeTogether issues patches, in order and all at once, to a 2-block file
// of 'x' and returns the file after every write was acknowledged.
func writeTogether(t *testing.T, patches ...patch) []byte {
	t.Helper()
	k := sim.NewKernel(1)
	fs, err := New(k, Config{IO: slowIO{newFakeIO("vol")}, Classes: map[string]string{"default": "vol"}, DefaultClass: "default"})
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	runFS(k, func(p *sim.Proc) {
		if err := fs.WriteFile(p, "/f", bytes.Repeat([]byte("x"), 1024), Policy{}); err != nil {
			t.Fatal(err)
		}
		if err := sim.Fork(p, "writers", len(patches), func(q *sim.Proc, i int) error {
			_, err := fs.WriteAt(q, "/f", patches[i].off, patches[i].data)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		got, _ = fs.ReadFile(p, "/f")
	})
	return got
}

// Two acknowledged writes to disjoint bytes of one block both survive: each
// read-merge-write holds the block until its write-back lands, so the second
// reads what the first wrote.
func TestOverlappingPartialWritesBothLand(t *testing.T) {
	got := writeTogether(t, patch{10, []byte("AAAA")}, patch{100, []byte("BBBB")})
	want := bytes.Repeat([]byte("x"), 1024)
	copy(want[10:], "AAAA")
	copy(want[100:], "BBBB")
	if !bytes.Equal(got, want) {
		t.Errorf("block 0 after two partial writes: %q..., %q...; want both", got[10:14], got[100:104])
	}
}

// A whole-block write that covers a block a partial write holds waits for
// it and lands whole; one to another block of the file goes by.
func TestAlignedWriteWaitsForHeldBlock(t *testing.T) {
	got := writeTogether(t, patch{10, []byte("AAAA")}, patch{0, bytes.Repeat([]byte("Z"), 512)}, patch{512, bytes.Repeat([]byte("W"), 512)})
	// Block 0: the partial write arrived first and holds it, so the whole
	// block write lands last; block 1 is only ever written whole.
	want := append(bytes.Repeat([]byte("Z"), 512), bytes.Repeat([]byte("W"), 512)...)
	if !bytes.Equal(got, want) {
		t.Errorf("file %q..., %q...; want block 0 all Z and block 1 all W", got[:16], got[512:528])
	}
}
