package pfs

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/sim"
)

// newPathFS builds an FS with two classes for the path/metadata tests —
// the surface the object gateway's metadata tier leans on.
func newPathFS(t *testing.T) *FS {
	t.Helper()
	k := sim.NewKernel(1)
	io := newFakeIO("volA", "volB")
	fs, err := New(k, Config{
		IO:           io,
		Classes:      map[string]string{"default": "volA", "bulk": "volB"},
		DefaultClass: "default",
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return fs
}

func TestMkdirAllDeepAndIdempotent(t *testing.T) {
	fs := newPathFS(t)
	deep := "/gateway/t/alpha/b/photos/p"
	if err := fs.MkdirAll(deep); err != nil {
		t.Fatalf("MkdirAll(%q): %v", deep, err)
	}
	// Every intermediate directory must exist.
	for _, p := range []string{"/gateway", "/gateway/t", "/gateway/t/alpha", "/gateway/t/alpha/b", "/gateway/t/alpha/b/photos", deep} {
		ino, err := fs.Stat(p)
		if err != nil {
			t.Fatalf("Stat(%q): %v", p, err)
		}
		if !ino.Dir {
			t.Fatalf("Stat(%q): not a directory", p)
		}
	}
	// Idempotent: repeating must not error or duplicate.
	if err := fs.MkdirAll(deep); err != nil {
		t.Fatalf("MkdirAll twice: %v", err)
	}
	// Creating below an existing file must fail with ErrNotDir.
	if _, err := fs.Create("/gateway/t/alpha/obj", Policy{}); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := fs.MkdirAll("/gateway/t/alpha/obj/sub"); err == nil {
		t.Fatalf("MkdirAll below a file succeeded")
	}
	// Relative and parent-escaping paths are rejected.
	if err := fs.MkdirAll("relative/path"); !errors.Is(err, ErrBadPath) {
		t.Fatalf("MkdirAll(relative) err = %v, want ErrBadPath", err)
	}
	if err := fs.MkdirAll("/a/../b"); !errors.Is(err, ErrBadPath) {
		t.Fatalf("MkdirAll(..) err = %v, want ErrBadPath", err)
	}
}

func TestListSortedOrderForPagination(t *testing.T) {
	fs := newPathFS(t)
	if err := fs.MkdirAll("/bucket"); err != nil {
		t.Fatalf("MkdirAll: %v", err)
	}
	// Create in deliberately non-lexical order.
	names := []string{"zeta", "alpha", "m/05", "m/01", "beta"}
	for _, n := range names {
		path := "/bucket/" + n
		if err := fs.MkdirAll(parentOf(path)); err != nil {
			t.Fatalf("MkdirAll(%q): %v", parentOf(path), err)
		}
		if _, err := fs.Create(path, Policy{}); err != nil {
			t.Fatalf("Create(%q): %v", path, err)
		}
	}
	got, err := fs.List("/bucket")
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	want := append([]string(nil), got...)
	sort.Strings(want)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("List not sorted: got %v", got)
		}
	}
	if len(got) != 4 { // alpha, beta, m, zeta
		t.Fatalf("List returned %v, want 4 entries", got)
	}
	// The order must be stable across calls — a paginating caller resumes
	// from a marker and must see the same sequence every time.
	for i := 0; i < 5; i++ {
		again, err := fs.List("/bucket")
		if err != nil {
			t.Fatalf("List again: %v", err)
		}
		if fmt.Sprint(again) != fmt.Sprint(got) {
			t.Fatalf("List order unstable: %v vs %v", again, got)
		}
	}
	if _, err := fs.List("/bucket/alpha"); !errors.Is(err, ErrNotDir) {
		t.Fatalf("List(file) err = %v, want ErrNotDir", err)
	}
}

func parentOf(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			if i == 0 {
				return "/"
			}
			return path[:i]
		}
	}
	return "/"
}

func TestSetPolicyRoundTrip(t *testing.T) {
	fs := newPathFS(t)
	if _, err := fs.Create("/f", Policy{}); err != nil {
		t.Fatalf("Create: %v", err)
	}
	want := Policy{CachePriority: 2, ReplicationN: 3, Class: "bulk", Geo: GeoPolicy{Mode: GeoAsync, Copies: 1}}
	if err := fs.SetPolicy("/f", want); err != nil {
		t.Fatalf("SetPolicy: %v", err)
	}
	got, err := fs.Policy("/f")
	if err != nil {
		t.Fatalf("Policy: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Policy round-trip: got %+v want %+v", got, want)
	}
	// Out-of-range priorities clamp at the metadata boundary.
	if err := fs.SetPolicy("/f", Policy{CachePriority: 99}); err != nil {
		t.Fatalf("SetPolicy(clamp): %v", err)
	}
	if got, _ := fs.Policy("/f"); got.CachePriority != 3 {
		t.Fatalf("CachePriority 99 clamped to %d, want 3", got.CachePriority)
	}
	if err := fs.SetPolicy("/f", Policy{CachePriority: -7}); err != nil {
		t.Fatalf("SetPolicy(clamp-): %v", err)
	}
	if got, _ := fs.Policy("/f"); got.CachePriority != 0 {
		t.Fatalf("CachePriority -7 clamped to %d, want 0", got.CachePriority)
	}
	// Unknown classes are rejected and leave the policy untouched.
	if err := fs.SetPolicy("/f", Policy{Class: "nope"}); !errors.Is(err, ErrNoClass) {
		t.Fatalf("SetPolicy(bad class) err = %v, want ErrNoClass", err)
	}
	if got, _ := fs.Policy("/f"); got.CachePriority != 0 {
		t.Fatalf("failed SetPolicy mutated policy: %+v", got)
	}
	if _, err := fs.Policy("/missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Policy(missing) err = %v, want ErrNotFound", err)
	}
}

// lookup walks a path in place and answers as splitPath and a walk over its
// segments did, text included: a ".." anywhere outranks a missing or
// non-directory segment before it. A lookup that finds its inode allocates
// nothing.
func TestLookupWalksInPlace(t *testing.T) {
	fs := newPathFS(t)
	if err := fs.MkdirAll("/a/b"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create("/a/f", Policy{}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ path, want string }{
		{"/", "/"},
		{"//a/./b/", "b"},
		{"/a/f", "f"},
		{"a/b", `pfs: invalid path: "a/b" is not absolute`},
		{"", `pfs: invalid path: "" is not absolute`},
		{"/a/../b", `pfs: invalid path: "/a/../b" contains ..`},
		{"/missing/..", `pfs: invalid path: "/missing/.." contains ..`},
		{"/a/f/x/..", `pfs: invalid path: "/a/f/x/.." contains ..`},
		{"/a/f/x", `pfs: not a directory: "/a/f/x"`},
		{"/a/missing/b", `pfs: no such file or directory: "/a/missing/b"`},
	} {
		got := ""
		if ino, err := fs.lookup(c.path); err != nil {
			got = err.Error()
		} else {
			got = ino.name
		}
		if got != c.want {
			t.Errorf("lookup(%q) = %s, want %s", c.path, got, c.want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { fs.lookup("/a/b") }); n != 0 {
		t.Errorf("a lookup that succeeds allocates %v objects, want 0", n)
	}
}
