package pfs

import (
	"bytes"
	"errors"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// fakeIO is an in-memory BlockIO recording per-write policy parameters and
// every read it serves.
type fakeIO struct {
	bs   int
	vols map[string]map[int64][]byte
	// lastPrio/lastRepl record the policy knobs seen per volume.
	lastPrio map[string]int
	lastRepl map[string]int
	reads    int64
	writes   int64
	// calls lists the reads served, in order; dsts the buffer each filled.
	calls []ioCall
	dsts  [][]byte
}

// ioCall is one read the block path served: where, and how many blocks.
type ioCall struct {
	vol   string
	lba   int64
	count int
}

func newFakeIO(vols ...string) *fakeIO {
	f := &fakeIO{
		bs:       512,
		vols:     make(map[string]map[int64][]byte),
		lastPrio: make(map[string]int),
		lastRepl: make(map[string]int),
	}
	for _, v := range vols {
		f.vols[v] = make(map[int64][]byte)
	}
	return f
}

func (f *fakeIO) BlockSize() int { return f.bs }

func (f *fakeIO) ReadBlocks(p *sim.Proc, vol string, lba int64, count int, prio int) ([]byte, error) {
	buf := make([]byte, count*f.bs)
	if err := f.ReadBlocksInto(p, vol, lba, buf, prio); err != nil {
		return nil, err
	}
	return buf, nil
}

func (f *fakeIO) ReadBlocksInto(p *sim.Proc, vol string, lba int64, dst []byte, prio int) error {
	store, ok := f.vols[vol]
	if !ok {
		return errors.New("fakeio: no volume " + vol)
	}
	f.reads++
	f.calls = append(f.calls, ioCall{vol: vol, lba: lba, count: len(dst) / f.bs})
	f.dsts = append(f.dsts, dst)
	for i := 0; i < len(dst)/f.bs; i++ {
		blk := dst[i*f.bs : (i+1)*f.bs]
		if b, ok := store[lba+int64(i)]; ok {
			copy(blk, b)
		} else {
			clear(blk)
		}
	}
	return nil
}

func (f *fakeIO) WriteBlocks(p *sim.Proc, vol string, lba int64, data []byte, prio, repl int) error {
	store, ok := f.vols[vol]
	if !ok {
		return errors.New("fakeio: no volume " + vol)
	}
	f.writes++
	f.lastPrio[vol] = prio
	f.lastRepl[vol] = repl
	for i := 0; i < len(data)/f.bs; i++ {
		b := make([]byte, f.bs)
		copy(b, data[i*f.bs:])
		store[lba+int64(i)] = b
	}
	return nil
}

func runFS(k *sim.Kernel, body func(p *sim.Proc)) {
	k.Go("test", body)
	k.Run()
}

func newTestFS(t *testing.T) (*FS, *fakeIO, *sim.Kernel) {
	t.Helper()
	k := sim.NewKernel(1)
	io := newFakeIO("vol.default", "vol.mirror")
	fs, err := New(k, Config{
		IO:           io,
		Classes:      map[string]string{"default": "vol.default", "mirror": "vol.mirror"},
		DefaultClass: "default",
	})
	if err != nil {
		t.Fatal(err)
	}
	return fs, io, k
}

func TestCreateWriteRead(t *testing.T) {
	fs, _, k := newTestFS(t)
	data := []byte("big science requires large research teams and huge amounts of data")
	runFS(k, func(p *sim.Proc) {
		if err := fs.MkdirAll("/lab/exp1"); err != nil {
			t.Errorf("mkdir: %v", err)
			return
		}
		if err := fs.WriteFile(p, "/lab/exp1/readme.txt", data, Policy{}); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		got, err := fs.ReadFile(p, "/lab/exp1/readme.txt")
		if err != nil {
			t.Errorf("read: %v", err)
			return
		}
		if !bytes.Equal(got, data) {
			t.Errorf("round trip mismatch: %q", got)
		}
	})
	ino, err := fs.Stat("/lab/exp1/readme.txt")
	if err != nil {
		t.Fatal(err)
	}
	if ino.Size != int64(len(data)) {
		t.Fatalf("size = %d, want %d", ino.Size, len(data))
	}
}

func TestUnalignedOverwrite(t *testing.T) {
	fs, _, k := newTestFS(t)
	runFS(k, func(p *sim.Proc) {
		base := bytes.Repeat([]byte("x"), 2000)
		fs.WriteFile(p, "/f", base, Policy{})
		// Overwrite a span crossing block boundaries at odd offsets.
		patch := bytes.Repeat([]byte("Y"), 700)
		if _, err := fs.WriteAt(p, "/f", 333, patch); err != nil {
			t.Errorf("patch: %v", err)
			return
		}
		want := append([]byte(nil), base...)
		copy(want[333:], patch)
		got, _ := fs.ReadFile(p, "/f")
		if !bytes.Equal(got, want) {
			t.Error("unaligned overwrite corrupted data")
		}
	})
}

func TestSparseExtension(t *testing.T) {
	fs, _, k := newTestFS(t)
	runFS(k, func(p *sim.Proc) {
		fs.Create("/sparse", Policy{})
		if _, err := fs.WriteAt(p, "/sparse", 5000, []byte("tail")); err != nil {
			t.Errorf("sparse write: %v", err)
			return
		}
		ino, _ := fs.Stat("/sparse")
		if ino.Size != 5004 {
			t.Errorf("size = %d, want 5004", ino.Size)
		}
		buf := make([]byte, 4)
		n, err := fs.ReadAt(p, "/sparse", 5000, buf)
		if err != nil || n != 4 || string(buf) != "tail" {
			t.Errorf("read tail: %q n=%d err=%v", buf, n, err)
		}
	})
}

func TestReadPastEOF(t *testing.T) {
	fs, _, k := newTestFS(t)
	runFS(k, func(p *sim.Proc) {
		fs.WriteFile(p, "/f", []byte("abc"), Policy{})
		buf := make([]byte, 10)
		n, err := fs.ReadAt(p, "/f", 1, buf)
		if err != nil || n != 2 || string(buf[:n]) != "bc" {
			t.Errorf("short read: n=%d err=%v", n, err)
		}
		n, err = fs.ReadAt(p, "/f", 100, buf)
		if err != nil || n != 0 {
			t.Errorf("past-EOF read: n=%d err=%v", n, err)
		}
	})
}

func TestPolicyClassPlacesData(t *testing.T) {
	fs, io, k := newTestFS(t)
	runFS(k, func(p *sim.Proc) {
		fs.WriteFile(p, "/important", bytes.Repeat([]byte("a"), 600), Policy{Class: "mirror"})
		fs.WriteFile(p, "/ordinary", bytes.Repeat([]byte("b"), 600), Policy{})
	})
	if len(io.vols["vol.mirror"]) == 0 {
		t.Fatal("mirror-class file not placed in mirror volume")
	}
	if len(io.vols["vol.default"]) == 0 {
		t.Fatal("default file not in default volume")
	}
	ino, _ := fs.Stat("/important")
	for _, e := range ino.Extents {
		if e.Vol != "vol.mirror" {
			t.Fatal("extent in wrong volume")
		}
	}
}

func TestPolicyKnobsReachIO(t *testing.T) {
	fs, io, k := newTestFS(t)
	runFS(k, func(p *sim.Proc) {
		fs.WriteFile(p, "/hot", []byte("data"), Policy{CachePriority: 3, ReplicationN: 4})
	})
	if io.lastPrio["vol.default"] != 3 {
		t.Fatalf("priority = %d, want 3", io.lastPrio["vol.default"])
	}
	if io.lastRepl["vol.default"] != 4 {
		t.Fatalf("replication = %d, want 4", io.lastRepl["vol.default"])
	}
}

func TestUnknownClassRejected(t *testing.T) {
	fs, _, _ := newTestFS(t)
	if _, err := fs.Create("/f", Policy{Class: "nope"}); !errors.Is(err, ErrNoClass) {
		t.Fatalf("err = %v, want ErrNoClass", err)
	}
	fs.Create("/g", Policy{})
	if err := fs.SetPolicy("/g", Policy{Class: "nope"}); !errors.Is(err, ErrNoClass) {
		t.Fatalf("setpolicy err = %v, want ErrNoClass", err)
	}
}

func TestSetPolicyDynamic(t *testing.T) {
	fs, io, k := newTestFS(t)
	runFS(k, func(p *sim.Proc) {
		fs.WriteFile(p, "/f", []byte("v1"), Policy{})
		fs.SetPolicy("/f", Policy{ReplicationN: 3, Geo: GeoPolicy{Mode: GeoSync, Copies: 2}})
		fs.WriteAt(p, "/f", 0, []byte("v2"))
	})
	if io.lastRepl["vol.default"] != 3 {
		t.Fatal("policy change did not affect subsequent writes")
	}
	pol, _ := fs.Policy("/f")
	if pol.Geo.Mode != GeoSync || pol.Geo.Copies != 2 {
		t.Fatal("geo policy not stored")
	}
}

func TestDirectoryOps(t *testing.T) {
	fs, _, k := newTestFS(t)
	runFS(k, func(p *sim.Proc) {
		fs.MkdirAll("/a/b/c")
		fs.Create("/a/b/f1", Policy{})
		fs.Create("/a/b/f2", Policy{})
		names, err := fs.List("/a/b")
		if err != nil {
			t.Errorf("list: %v", err)
			return
		}
		sort.Strings(names)
		want := []string{"c", "f1", "f2"}
		if len(names) != 3 {
			t.Errorf("names = %v, want %v", names, want)
			return
		}
		for i := range want {
			if names[i] != want[i] {
				t.Errorf("names = %v, want %v", names, want)
			}
		}
	})
	if err := fs.Remove("/a/b"); err == nil {
		t.Fatal("removed non-empty directory")
	}
	if err := fs.Remove("/a/b/c"); err != nil {
		t.Fatalf("remove empty dir: %v", err)
	}
}

func TestRemoveFreesAndReusesBlocks(t *testing.T) {
	fs, _, k := newTestFS(t)
	var firstExt, secondExt Extent
	runFS(k, func(p *sim.Proc) {
		fs.WriteFile(p, "/f1", bytes.Repeat([]byte("a"), 512*8), Policy{})
		ino, _ := fs.Stat("/f1")
		firstExt = ino.Extents[0]
		fs.Remove("/f1")
		fs.WriteFile(p, "/f2", bytes.Repeat([]byte("b"), 512*8), Policy{})
		ino2, _ := fs.Stat("/f2")
		secondExt = ino2.Extents[0]
	})
	if firstExt.LBA != secondExt.LBA {
		t.Fatalf("freed blocks not reused: %v vs %v", firstExt, secondExt)
	}
}

func TestPathValidation(t *testing.T) {
	fs, _, _ := newTestFS(t)
	if _, err := fs.Stat("relative"); !errors.Is(err, ErrBadPath) {
		t.Fatal("relative path accepted")
	}
	if _, err := fs.Stat("/a/../b"); !errors.Is(err, ErrBadPath) {
		t.Fatal(".. accepted")
	}
	if _, err := fs.Stat("/missing"); !errors.Is(err, ErrNotFound) {
		t.Fatal("missing path wrong error")
	}
	if _, err := fs.Create("/x/y", Policy{}); !errors.Is(err, ErrNotFound) {
		t.Fatal("create under missing dir wrong error")
	}
	fs.Create("/f", Policy{})
	if _, err := fs.Create("/f", Policy{}); !errors.Is(err, ErrExists) {
		t.Fatal("duplicate create wrong error")
	}
}

// Property: arbitrary sequences of writes at arbitrary offsets produce the
// same final content as an in-memory shadow buffer.
func TestWriteReadEquivalenceProperty(t *testing.T) {
	f := func(writes []uint16) bool {
		k := sim.NewKernel(1)
		io := newFakeIO("v")
		fs, err := New(k, Config{IO: io, Classes: map[string]string{"c": "v"}, DefaultClass: "c"})
		if err != nil {
			return false
		}
		shadow := make([]byte, 0)
		ok := true
		k.Go("t", func(p *sim.Proc) {
			fs.Create("/f", Policy{})
			for i, w := range writes {
				if i >= 12 {
					break
				}
				off := int64(w) % 3000
				val := byte(w>>8) | 1
				chunk := bytes.Repeat([]byte{val}, int(w%700)+1)
				if _, err := fs.WriteAt(p, "/f", off, chunk); err != nil {
					ok = false
					return
				}
				if need := off + int64(len(chunk)); need > int64(len(shadow)) {
					shadow = append(shadow, make([]byte, need-int64(len(shadow)))...)
				}
				copy(shadow[off:], chunk)
			}
			got, err := fs.ReadFile(p, "/f")
			if err != nil || !bytes.Equal(got, shadow) {
				ok = false
			}
		})
		k.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
