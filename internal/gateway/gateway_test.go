package gateway

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/pfs"
	"repro/internal/qos"
	"repro/internal/security"
	"repro/internal/sim"
)

// testIO is an in-memory BlockIO counting every data-path touch — the
// instrument behind the zero-pfs-I/O auth assertion.
type testIO struct {
	bs            int
	vols          map[string]map[int64][]byte
	reads, writes int64
	readDelay     sim.Duration
}

func newTestIO(vols ...string) *testIO {
	io := &testIO{bs: 4096, vols: make(map[string]map[int64][]byte), readDelay: 100 * sim.Microsecond}
	for _, v := range vols {
		io.vols[v] = make(map[int64][]byte)
	}
	return io
}

func (f *testIO) BlockSize() int { return f.bs }

func (f *testIO) ReadBlocks(p *sim.Proc, vol string, lba int64, count, prio int) ([]byte, error) {
	store, ok := f.vols[vol]
	if !ok {
		return nil, fmt.Errorf("testio: no volume %q", vol)
	}
	f.reads++
	p.Sleep(f.readDelay)
	buf := make([]byte, count*f.bs)
	for i := 0; i < count; i++ {
		if b, ok := store[lba+int64(i)]; ok {
			copy(buf[i*f.bs:], b)
		}
	}
	return buf, nil
}

func (f *testIO) WriteBlocks(p *sim.Proc, vol string, lba int64, data []byte, prio, repl int) error {
	store, ok := f.vols[vol]
	if !ok {
		return fmt.Errorf("testio: no volume %q", vol)
	}
	f.writes++
	p.Sleep(100 * sim.Microsecond)
	for i := 0; i*f.bs < len(data); i++ {
		store[lba+int64(i)] = append([]byte(nil), data[i*f.bs:(i+1)*f.bs]...)
	}
	return nil
}

type env struct {
	k    *sim.Kernel
	io   *testIO
	fs   *pfs.FS
	auth *security.Authority
	gw   *Gateway
}

func newEnv(t *testing.T, cfg Config) *env {
	t.Helper()
	k := sim.NewKernel(1)
	io := newTestIO("volA", "volB")
	fs, err := pfs.New(k, pfs.Config{
		IO:           io,
		Classes:      map[string]string{"default": "volA", "bulk": "volB"},
		DefaultClass: "default",
	})
	if err != nil {
		t.Fatalf("pfs.New: %v", err)
	}
	auth := security.NewAuthority(k)
	cfg.FS = fs
	cfg.Auth = auth
	gw, err := New(k, cfg)
	if err != nil {
		t.Fatalf("gateway.New: %v", err)
	}
	return &env{k: k, io: io, fs: fs, auth: auth, gw: gw}
}

// run executes fn as a simulation process to completion.
func (e *env) run(t *testing.T, fn func(p *sim.Proc) error) {
	t.Helper()
	done := false
	var err error
	e.k.Go("test", func(p *sim.Proc) {
		err = fn(p)
		done = true
	})
	for i := 0; i < 1000 && !done; i++ {
		e.k.RunFor(sim.Second)
	}
	if !done {
		t.Fatalf("test body did not complete")
	}
	if err != nil {
		t.Fatalf("test body: %v", err)
	}
}

// token registers a tenant (if new) and mints a token.
func (e *env) token(t *testing.T, tenant string) string {
	t.Helper()
	if _, err := e.auth.Tenant(tenant); err != nil {
		if _, err := e.auth.CreateTenant(tenant); err != nil {
			t.Fatalf("CreateTenant(%q): %v", tenant, err)
		}
	}
	tok, err := e.auth.Issue(tenant, 3600*sim.Second)
	if err != nil {
		t.Fatalf("Issue(%q): %v", tenant, err)
	}
	return tok
}

func patternedData(n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i*7 + n)
	}
	return data
}

func TestPutGetRoundTrip(t *testing.T) {
	e := newEnv(t, Config{Layout: LayoutConfig{PartBytes: 64 << 10, SegmentBytes: 256 << 10, SmallMax: 16 << 10}})
	tok := e.token(t, "alpha")
	e.run(t, func(p *sim.Proc) error {
		if err := e.gw.CreateBucket(p, tok, "data", BucketOptions{Priority: -1}); err != nil {
			return err
		}
		// Small object → segment aggregation.
		small := patternedData(5000)
		if _, err := e.gw.PutObject(p, tok, "data", "small/one", small); err != nil {
			return err
		}
		got, ver, err := e.gw.GetObject(p, tok, "data", "small/one")
		if err != nil {
			return err
		}
		if !bytes.Equal(got, small) {
			return fmt.Errorf("small object corrupted: %d bytes", len(got))
		}
		if !ver.Layout.Segment || len(ver.Layout.Parts) != 1 {
			return fmt.Errorf("small object not segment-aggregated: %+v", ver.Layout)
		}
		// Large object → fixed-size parts (64 KiB split → 4 parts).
		large := patternedData(200 << 10)
		if _, err := e.gw.PutObject(p, tok, "data", "big/blob", large); err != nil {
			return err
		}
		got, ver, err = e.gw.GetObject(p, tok, "data", "big/blob")
		if err != nil {
			return err
		}
		if !bytes.Equal(got, large) {
			return fmt.Errorf("large object corrupted")
		}
		if ver.Layout.Segment || len(ver.Layout.Parts) != 4 {
			return fmt.Errorf("large object parts = %d, want 4", len(ver.Layout.Parts))
		}
		for _, part := range ver.Layout.Parts {
			if !strings.HasPrefix(part.Path, "/gateway/t/alpha/b/data/") {
				return fmt.Errorf("part escaped tenant subtree: %q", part.Path)
			}
		}
		// Empty object: metadata only.
		if _, err := e.gw.PutObject(p, tok, "data", "empty", nil); err != nil {
			return err
		}
		got, ver, err = e.gw.GetObject(p, tok, "data", "empty")
		if err != nil {
			return err
		}
		if len(got) != 0 || len(ver.Layout.Parts) != 0 {
			return fmt.Errorf("empty object: %d bytes, %d parts", len(got), len(ver.Layout.Parts))
		}
		st := e.gw.Stats()
		if st.Puts != 3 || st.Gets != 3 {
			return fmt.Errorf("counters: %+v", st)
		}
		if st.BytesIn != 5000+(200<<10) || st.BytesOut != st.BytesIn {
			return fmt.Errorf("byte counters: in=%d out=%d", st.BytesIn, st.BytesOut)
		}
		return nil
	})
}

func TestSegmentAggregationSharesFiles(t *testing.T) {
	e := newEnv(t, Config{Layout: LayoutConfig{SegmentBytes: 64 << 10, SmallMax: 8 << 10, Align: 4096}})
	tok := e.token(t, "alpha")
	e.run(t, func(p *sim.Proc) error {
		if err := e.gw.CreateBucket(p, tok, "tiny", BucketOptions{Priority: -1}); err != nil {
			return err
		}
		// 32 × 4 KiB objects at 64 KiB/segment → exactly 2 segment files.
		for i := 0; i < 32; i++ {
			if _, err := e.gw.PutObject(p, tok, "tiny", fmt.Sprintf("o%02d", i), patternedData(4096)); err != nil {
				return err
			}
		}
		segs, err := e.fs.List("/gateway/t/alpha/b/tiny/seg")
		if err != nil {
			return err
		}
		if len(segs) != 2 {
			return fmt.Errorf("segment files = %d, want 2 (%v)", len(segs), segs)
		}
		// Every object still reads back intact.
		for i := 0; i < 32; i++ {
			got, ver, err := e.gw.GetObject(p, tok, "tiny", fmt.Sprintf("o%02d", i))
			if err != nil {
				return err
			}
			if !bytes.Equal(got, patternedData(4096)) {
				return fmt.Errorf("object o%02d corrupted", i)
			}
			if ver.Layout.Parts[0].Off%4096 != 0 {
				return fmt.Errorf("segment slice misaligned: %+v", ver.Layout.Parts[0])
			}
		}
		return nil
	})
}

func TestListObjectsPrefixPagination(t *testing.T) {
	e := newEnv(t, Config{})
	tok := e.token(t, "alpha")
	e.run(t, func(p *sim.Proc) error {
		if err := e.gw.CreateBucket(p, tok, "logs", BucketOptions{Priority: -1}); err != nil {
			return err
		}
		// 25 keys under run/, 5 under other/.
		for i := 0; i < 25; i++ {
			if _, err := e.gw.PutObject(p, tok, "logs", fmt.Sprintf("run/%03d", i), patternedData(64)); err != nil {
				return err
			}
		}
		for i := 0; i < 5; i++ {
			if _, err := e.gw.PutObject(p, tok, "logs", fmt.Sprintf("other/%d", i), patternedData(64)); err != nil {
				return err
			}
		}
		var all []string
		marker := ""
		pages := 0
		for {
			rows, trunc, err := e.gw.ListObjects(p, tok, "logs", "run/", marker, 10)
			if err != nil {
				return err
			}
			pages++
			for _, r := range rows {
				all = append(all, r.Key)
			}
			if !trunc {
				break
			}
			marker = rows[len(rows)-1].Key
		}
		if pages != 3 || len(all) != 25 {
			return fmt.Errorf("pagination: %d pages, %d keys", pages, len(all))
		}
		for i, key := range all {
			if want := fmt.Sprintf("run/%03d", i); key != want {
				return fmt.Errorf("page order: [%d] = %q, want %q", i, key, want)
			}
		}
		// Prefix isolation: other/ keys never leak into run/ pages.
		rows, _, err := e.gw.ListObjects(p, tok, "logs", "other/", "", 100)
		if err != nil {
			return err
		}
		if len(rows) != 5 {
			return fmt.Errorf("prefix other/: %d rows", len(rows))
		}
		return nil
	})
}

func TestVersioningAndDelete(t *testing.T) {
	e := newEnv(t, Config{})
	tok := e.token(t, "alpha")
	e.run(t, func(p *sim.Proc) error {
		if err := e.gw.CreateBucket(p, tok, "ver", BucketOptions{Versioning: true, Priority: -1}); err != nil {
			return err
		}
		var seqs []uint64
		for i := 1; i <= 3; i++ {
			v, err := e.gw.PutObject(p, tok, "ver", "doc", patternedData(100*i))
			if err != nil {
				return err
			}
			seqs = append(seqs, v.Seq)
		}
		got, ver, err := e.gw.GetObject(p, tok, "ver", "doc")
		if err != nil {
			return err
		}
		if len(got) != 300 || ver.Seq != seqs[2] {
			return fmt.Errorf("latest version: %d bytes seq %d", len(got), ver.Seq)
		}
		if got, _, err = e.gw.GetObjectVersion(p, tok, "ver", "doc", seqs[0]); err != nil || len(got) != 100 {
			return fmt.Errorf("old version: %d bytes, %v", len(got), err)
		}
		// Delete adds a marker: latest get fails, old versions survive.
		if err := e.gw.DeleteObject(p, tok, "ver", "doc"); err != nil {
			return err
		}
		if _, _, err := e.gw.GetObject(p, tok, "ver", "doc"); !errors.Is(err, ErrNoObject) {
			return fmt.Errorf("get after delete: %v", err)
		}
		if _, _, err := e.gw.GetObjectVersion(p, tok, "ver", "doc", seqs[1]); err != nil {
			return fmt.Errorf("versioned data lost after delete: %v", err)
		}
		vers, err := e.gw.Versions(p, tok, "ver", "doc")
		if err != nil {
			return err
		}
		if len(vers) != 4 || !vers[3].Deleted {
			return fmt.Errorf("version chain: %d entries, last deleted=%v", len(vers), vers[len(vers)-1].Deleted)
		}
		// Deleted keys disappear from listings.
		rows, _, err := e.gw.ListObjects(p, tok, "ver", "", "", 100)
		if err != nil {
			return err
		}
		if len(rows) != 0 {
			return fmt.Errorf("deleted key still listed: %v", rows)
		}

		// Unversioned bucket: replace frees the old version's part files.
		if err := e.gw.CreateBucket(p, tok, "flat", BucketOptions{Priority: -1}); err != nil {
			return err
		}
		big := patternedData(3 << 20) // 3 parts at the default 1 MiB split
		v1, err := e.gw.PutObject(p, tok, "flat", "blob", big)
		if err != nil {
			return err
		}
		if _, err := e.gw.PutObject(p, tok, "flat", "blob", patternedData(2<<20)); err != nil {
			return err
		}
		for _, part := range v1.Layout.Parts {
			if _, err := e.fs.Stat(part.Path); !errors.Is(err, pfs.ErrNotFound) {
				return fmt.Errorf("replaced part %q not freed: %v", part.Path, err)
			}
		}
		vers, err = e.gw.Versions(p, tok, "flat", "blob")
		if err != nil {
			return err
		}
		if len(vers) != 1 {
			return fmt.Errorf("unversioned bucket kept %d versions", len(vers))
		}
		return nil
	})
}

func TestMultipartUpload(t *testing.T) {
	e := newEnv(t, Config{})
	tok := e.token(t, "alpha")
	e.run(t, func(p *sim.Proc) error {
		if err := e.gw.CreateBucket(p, tok, "mp", BucketOptions{Priority: -1}); err != nil {
			return err
		}
		id, err := e.gw.InitMultipart(p, tok, "mp", "video")
		if err != nil {
			return err
		}
		p1, p2, p3 := patternedData(100<<10), patternedData(50<<10), patternedData(75<<10)
		// Upload out of order; re-upload part 2 (the replacement wins).
		if err := e.gw.UploadPart(p, tok, "mp", id, 3, p3); err != nil {
			return err
		}
		if err := e.gw.UploadPart(p, tok, "mp", id, 1, p1); err != nil {
			return err
		}
		if err := e.gw.UploadPart(p, tok, "mp", id, 2, patternedData(10)); err != nil {
			return err
		}
		if err := e.gw.UploadPart(p, tok, "mp", id, 2, p2); err != nil {
			return err
		}
		ver, err := e.gw.CompleteMultipart(p, tok, "mp", id)
		if err != nil {
			return err
		}
		want := append(append(append([]byte(nil), p1...), p2...), p3...)
		if ver.Size != int64(len(want)) {
			return fmt.Errorf("assembled size %d, want %d", ver.Size, len(want))
		}
		got, _, err := e.gw.GetObject(p, tok, "mp", "video")
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("multipart object corrupted")
		}
		// Completed uploads are gone.
		if err := e.gw.UploadPart(p, tok, "mp", id, 4, p1); !errors.Is(err, ErrNoUpload) {
			return fmt.Errorf("upload still open after complete: %v", err)
		}
		// Abort frees uploaded part files.
		id2, err := e.gw.InitMultipart(p, tok, "mp", "scrap")
		if err != nil {
			return err
		}
		if err := e.gw.UploadPart(p, tok, "mp", id2, 1, p1); err != nil {
			return err
		}
		if err := e.gw.AbortMultipart(p, tok, "mp", id2); err != nil {
			return err
		}
		if _, _, err := e.gw.GetObject(p, tok, "mp", "scrap"); !errors.Is(err, ErrNoObject) {
			return fmt.Errorf("aborted upload visible: %v", err)
		}
		return nil
	})
}

// TestCrossTenantDeniedAndAudited is the satellite regression: a
// cross-tenant Get on a private bucket must fail with the security
// package's denial error AND land in the Authority's audit trail.
func TestCrossTenantDeniedAndAudited(t *testing.T) {
	e := newEnv(t, Config{})
	alice := e.token(t, "alice")
	mallory := e.token(t, "mallory")
	e.run(t, func(p *sim.Proc) error {
		if err := e.gw.CreateBucket(p, alice, "private", BucketOptions{Priority: -1}); err != nil {
			return err
		}
		if _, err := e.gw.PutObject(p, alice, "private", "secret", patternedData(128)); err != nil {
			return err
		}
		if _, _, err := e.gw.GetObject(p, mallory, "private", "secret"); !errors.Is(err, security.ErrDenied) {
			return fmt.Errorf("cross-tenant get: err = %v, want security.ErrDenied", err)
		}
		found := false
		for _, ev := range e.auth.Denials() {
			if ev.Tenant == "mallory" && ev.Action == "gateway.get" && ev.Target == "private" {
				found = true
			}
		}
		if !found {
			return fmt.Errorf("denied cross-tenant get not audited: %+v", e.auth.Denials())
		}
		// Grants flow through SetBucketACL synchronously, read ≠ write.
		if err := e.gw.SetBucketACL(p, alice, "private", ACL{Grants: map[string]security.Access{"mallory": security.ReadOnly}}); err != nil {
			return err
		}
		if _, _, err := e.gw.GetObject(p, mallory, "private", "secret"); err != nil {
			return fmt.Errorf("granted read denied: %v", err)
		}
		if _, err := e.gw.PutObject(p, mallory, "private", "sneak", patternedData(10)); !errors.Is(err, security.ErrDenied) {
			return fmt.Errorf("read-only grant allowed write: %v", err)
		}
		// Non-owners cannot rewrite the ACL, and the attempt is audited.
		if err := e.gw.SetBucketACL(p, mallory, "private", ACL{Public: security.ReadWrite}); !errors.Is(err, security.ErrDenied) {
			return fmt.Errorf("non-owner ACL change: %v", err)
		}
		// Bad token: rejected through the Authority (no parallel path).
		if _, _, err := e.gw.GetObject(p, "forged-token", "private", "secret"); !errors.Is(err, security.ErrBadToken) {
			return fmt.Errorf("forged token: %v", err)
		}
		return nil
	})
}

// TestAuthPathZeroPfsIO is the tentpole assertion: the IAM tier answers
// authentication and authorization entirely from memory — across
// thousands of auth decisions (grants, denials, probes) not one block is
// read or written through pfs, and the hit latency stays far under yig's
// 10ms bound.
func TestAuthPathZeroPfsIO(t *testing.T) {
	e := newEnv(t, Config{})
	alice := e.token(t, "alice")
	bob := e.token(t, "bob")
	e.run(t, func(p *sim.Proc) error {
		if err := e.gw.CreateBucket(p, alice, "pub", BucketOptions{ACL: ACL{Public: security.ReadOnly}, Priority: -1}); err != nil {
			return err
		}
		if err := e.gw.CreateBucket(p, alice, "priv", BucketOptions{Priority: -1}); err != nil {
			return err
		}
		if _, err := e.gw.PutObject(p, alice, "pub", "obj", patternedData(8192)); err != nil {
			return err
		}

		reads, writes := e.io.reads, e.io.writes
		fsReads, fsWrites := e.fs.BytesRead, e.fs.BytesWritten
		for i := 0; i < 2000; i++ {
			if _, err := e.gw.Authorize(p, alice, "priv", true); err != nil {
				return fmt.Errorf("owner probe: %v", err)
			}
			if _, err := e.gw.Authorize(p, bob, "pub", false); err != nil {
				return fmt.Errorf("public-read probe: %v", err)
			}
			if _, err := e.gw.Authorize(p, bob, "priv", false); !errors.Is(err, security.ErrDenied) {
				return fmt.Errorf("denied probe: %v", err)
			}
			if _, err := e.gw.Authorize(p, bob, "pub", true); !errors.Is(err, security.ErrDenied) {
				return fmt.Errorf("write probe on read-only: %v", err)
			}
		}
		if e.io.reads != reads || e.io.writes != writes {
			return fmt.Errorf("auth path touched the block layer: reads %d→%d writes %d→%d",
				reads, e.io.reads, writes, e.io.writes)
		}
		if e.fs.BytesRead != fsReads || e.fs.BytesWritten != fsWrites {
			return fmt.Errorf("auth path did pfs I/O: read %d→%d written %d→%d",
				fsReads, e.fs.BytesRead, fsWrites, e.fs.BytesWritten)
		}
		if p99 := e.gw.Stats().IAMHitP99; p99 >= 10*sim.Millisecond {
			return fmt.Errorf("IAM hit p99 %v, want < 10ms", p99)
		}
		return nil
	})
}

// TestDataPathBilledToBucketOwner: whatever tenant issues the request,
// the data tier runs under the bucket owner's QoS identity — that is the
// tenant whose admission tokens and SLO accounting the op consumes.
func TestDataPathBilledToBucketOwner(t *testing.T) {
	e := newEnv(t, Config{})
	alice := e.token(t, "alice")
	bob := e.token(t, "bob")
	var seen []string
	e.fs.SetWriteHook(func(p *sim.Proc, path string, ino *pfs.Inode, off int64, data []byte) error {
		seen = append(seen, qos.FromProc(p).Tenant)
		return nil
	})
	e.run(t, func(p *sim.Proc) error {
		if err := e.gw.CreateBucket(p, alice, "shared", BucketOptions{ACL: ACL{Public: security.ReadWrite}, Priority: -1}); err != nil {
			return err
		}
		// bob writes into alice's public-write bucket.
		if _, err := e.gw.PutObject(p, bob, "shared", "from-bob", patternedData(4096)); err != nil {
			return err
		}
		if len(seen) == 0 {
			return fmt.Errorf("write hook never fired")
		}
		for _, tenant := range seen {
			if tenant != "alice" {
				return fmt.Errorf("data write billed to %q, want bucket owner alice", tenant)
			}
		}
		// The caller's own context is restored afterwards.
		if got := qos.FromProc(p).Tenant; got != "" {
			return fmt.Errorf("caller ctx leaked: tenant %q", got)
		}
		return nil
	})
}

func TestBucketNamespaceAndStatus(t *testing.T) {
	e := newEnv(t, Config{MetaShards: 4})
	tok := e.token(t, "alpha")
	e.run(t, func(p *sim.Proc) error {
		for _, name := range []string{"aaa", "bbb", "ccc", "ddd", "eee"} {
			if err := e.gw.CreateBucket(p, tok, name, BucketOptions{Priority: -1}); err != nil {
				return err
			}
		}
		if err := e.gw.CreateBucket(p, tok, "aaa", BucketOptions{Priority: -1}); !errors.Is(err, ErrBucketExists) {
			return fmt.Errorf("duplicate bucket: %v", err)
		}
		for _, bad := range []string{"", "UPPER", "has/slash", "..", "-lead", strings.Repeat("x", 64)} {
			if err := e.gw.CreateBucket(p, tok, bad, BucketOptions{Priority: -1}); !errors.Is(err, ErrBadName) {
				return fmt.Errorf("bad name %q accepted: %v", bad, err)
			}
		}
		infos := e.gw.Buckets()
		if len(infos) != 5 {
			return fmt.Errorf("Buckets() = %d rows", len(infos))
		}
		for i := 1; i < len(infos); i++ {
			if infos[i-1].Name >= infos[i].Name {
				return fmt.Errorf("Buckets() unsorted: %v", infos)
			}
		}
		if s := e.gw.Status(); !strings.Contains(s, "5 buckets") || !strings.Contains(s, "shards 4") {
			return fmt.Errorf("Status() = %q", s)
		}
		if r := e.gw.Report(); !strings.Contains(r, "shard 3:") || !strings.Contains(r, "aaa") {
			return fmt.Errorf("Report() missing content:\n%s", r)
		}
		return nil
	})
}

// A GET that resolved a version keeps reading its part files while a PUT
// replaces the object; a second PUT then allocates. Freed at the index
// flip, the old version's extents went to that second PUT and the GET
// returned its bytes (or a mix) under the old version's header. The part
// files must outlive their last reader — and not a moment longer.
func TestGetSurvivesReplacingPuts(t *testing.T) {
	e := newEnv(t, Config{Layout: LayoutConfig{PartBytes: 64 << 10, SegmentBytes: 256 << 10, SmallMax: 16 << 10}})
	tok := e.token(t, "alpha")
	const size = 256 << 10
	fill := func(b byte) []byte { return bytes.Repeat([]byte{b}, size) }
	e.run(t, func(p *sim.Proc) error {
		if err := e.gw.CreateBucket(p, tok, "data", BucketOptions{Priority: -1}); err != nil {
			return err
		}
		v1, err := e.gw.PutObject(p, tok, "data", "obj", fill(1))
		if err != nil {
			return err
		}
		// Reads now outlast two whole PUTs (each ~1 ms of index ops and
		// 100 µs writes), so the GET below is mid-read through both.
		e.io.readDelay = 5 * sim.Millisecond
		var got []byte
		var gotVer Version
		var getErr error
		grp := sim.NewGroup(e.k)
		grp.Add(1)
		e.k.Go("get", func(q *sim.Proc) {
			defer grp.Done()
			got, gotVer, getErr = e.gw.GetObject(q, tok, "data", "obj")
		})
		// The GET was spawned first, so its lookup is ahead of these PUTs'
		// index ops in the shard's FIFO: it resolves v1.
		for b := byte(2); b <= 3; b++ {
			if _, err := e.gw.PutObject(p, tok, "data", "obj", fill(b)); err != nil {
				return err
			}
		}
		if _, err := e.fs.Stat(v1.Layout.Parts[0].Path); err != nil {
			return fmt.Errorf("v1's part files freed under a GET still reading them: %v", err)
		}
		grp.Wait(p)
		if getErr != nil {
			return getErr
		}
		if gotVer.Seq != v1.Seq {
			return fmt.Errorf("GET resolved seq %d, want v1 (%d): the schedule no longer overlaps", gotVer.Seq, v1.Seq)
		}
		if !bytes.Equal(got, fill(1)) {
			return fmt.Errorf("GET of v1 torn: first byte %d, last byte %d, want 1 throughout", got[0], got[size-1])
		}
		for _, part := range v1.Layout.Parts {
			if _, err := e.fs.Stat(part.Path); err == nil {
				return fmt.Errorf("v1 part %s never reclaimed after its last reader left", part.Path)
			}
		}
		if n := len(e.gw.reading); n != 0 {
			return fmt.Errorf("%d versions still tracked as being read", n)
		}
		latest, _, err := e.gw.GetObject(p, tok, "data", "obj")
		if err != nil {
			return err
		}
		if !bytes.Equal(latest, fill(3)) {
			return fmt.Errorf("latest version corrupted")
		}
		return nil
	})
}
