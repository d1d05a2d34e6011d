package security

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// memStore is a plain in-memory BlockStore (what's "on disk").
type memStore struct {
	bs   int
	vols map[string]map[int64][]byte
}

func newMemStore(vols ...string) *memStore {
	m := &memStore{bs: 512, vols: make(map[string]map[int64][]byte)}
	for _, v := range vols {
		m.vols[v] = make(map[int64][]byte)
	}
	return m
}

func (m *memStore) BlockSize() int { return m.bs }

func (m *memStore) ReadBlocks(p *sim.Proc, vol string, lba int64, count, prio int) ([]byte, error) {
	buf := make([]byte, count*m.bs)
	for i := 0; i < count; i++ {
		if b, ok := m.vols[vol][lba+int64(i)]; ok {
			copy(buf[i*m.bs:], b)
		}
	}
	return buf, nil
}

func (m *memStore) WriteBlocks(p *sim.Proc, vol string, lba int64, data []byte, prio, repl int) error {
	for i := 0; i < len(data)/m.bs; i++ {
		b := make([]byte, m.bs)
		copy(b, data[i*m.bs:])
		m.vols[vol][lba+int64(i)] = b
	}
	return nil
}

type rig struct {
	k     *sim.Kernel
	auth  *Authority
	mask  *LUNMask
	store *memStore
	gw    *Gateway
}

func newRig(t *testing.T, encrypt bool) *rig {
	t.Helper()
	k := sim.NewKernel(1)
	auth := NewAuthority(k)
	mask := NewLUNMask()
	store := newMemStore("vol.a", "vol.b")
	gw := NewGateway(GatewayConfig{
		Authority: auth, Mask: mask, Store: store,
		EncryptAtRest: encrypt,
	})
	gw.ExportLUN("lunA", "vol.a")
	gw.ExportLUN("lunB", "vol.b")
	return &rig{k: k, auth: auth, mask: mask, store: store, gw: gw}
}

func (r *rig) run(body func(p *sim.Proc)) {
	r.k.Go("test", body)
	r.k.Run()
}

func (r *rig) token(t *testing.T, tenant string) string {
	t.Helper()
	if _, err := r.auth.Tenant(tenant); err != nil {
		if _, err := r.auth.CreateTenant(tenant); err != nil {
			t.Fatal(err)
		}
	}
	tok, err := r.auth.Issue(tenant, sim.Duration(1)*3600*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	return tok
}

func block(v byte) []byte { return bytes.Repeat([]byte{v}, 512) }

func TestAuthenticatedRoundTrip(t *testing.T) {
	r := newRig(t, true)
	tok := r.token(t, "physics")
	r.mask.Allow("lunA", "physics", ReadWrite)
	r.run(func(p *sim.Proc) {
		if err := r.gw.Write(p, tok, "lunA", 0, block(7), 0, 0); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		got, err := r.gw.Read(p, tok, "lunA", 0, 1, 0)
		if err != nil {
			t.Errorf("read: %v", err)
			return
		}
		if !bytes.Equal(got, block(7)) {
			t.Error("round trip mismatch through encryption")
		}
	})
}

func TestAtRestCiphertext(t *testing.T) {
	r := newRig(t, true)
	tok := r.token(t, "physics")
	r.mask.Allow("lunA", "physics", ReadWrite)
	r.run(func(p *sim.Proc) {
		r.gw.Write(p, tok, "lunA", 3, block(9), 0, 0)
	})
	// What reached the store must not be the plaintext (a removed disk
	// reveals nothing, §5.1).
	onDisk := r.store.vols["vol.a"][3]
	if bytes.Equal(onDisk, block(9)) {
		t.Fatal("plaintext stored at rest")
	}
	if len(onDisk) != 512 {
		t.Fatal("ciphertext wrong size")
	}
}

func TestCrossTenantCiphertextUnreadable(t *testing.T) {
	r := newRig(t, true)
	tokA := r.token(t, "alice")
	tokB := r.token(t, "bob")
	// Misconfigured mask: bob was (wrongly) granted alice's LUN — the
	// paper's defense in depth: bob still reads only garbage.
	r.mask.Allow("lunA", "alice", ReadWrite)
	r.mask.Allow("lunA", "bob", ReadOnly)
	r.run(func(p *sim.Proc) {
		r.gw.Write(p, tokA, "lunA", 0, block(5), 0, 0)
		got, err := r.gw.Read(p, tokB, "lunA", 0, 1, 0)
		if err != nil {
			t.Errorf("read: %v", err)
			return
		}
		if bytes.Equal(got, block(5)) {
			t.Error("tenant B decrypted tenant A's data")
		}
	})
}

func TestLUNMaskingDenies(t *testing.T) {
	r := newRig(t, false)
	tok := r.token(t, "intruder")
	r.run(func(p *sim.Proc) {
		if _, err := r.gw.Read(p, tok, "lunA", 0, 1, 0); !errors.Is(err, ErrDenied) {
			t.Errorf("masked read err = %v, want ErrDenied", err)
		}
		if err := r.gw.Write(p, tok, "lunA", 0, block(1), 0, 0); !errors.Is(err, ErrDenied) {
			t.Errorf("masked write err = %v, want ErrDenied", err)
		}
	})
	if len(r.auth.Denials()) < 2 {
		t.Fatalf("denials not audited: %d", len(r.auth.Denials()))
	}
}

func TestReadOnlyGrant(t *testing.T) {
	r := newRig(t, false)
	tok := r.token(t, "reader")
	r.mask.Allow("lunA", "reader", ReadOnly)
	r.run(func(p *sim.Proc) {
		if _, err := r.gw.Read(p, tok, "lunA", 0, 1, 0); err != nil {
			t.Errorf("RO read: %v", err)
		}
		if err := r.gw.Write(p, tok, "lunA", 0, block(1), 0, 0); !errors.Is(err, ErrDenied) {
			t.Errorf("RO write err = %v, want ErrDenied", err)
		}
	})
}

func TestMaskedLUNsInvisible(t *testing.T) {
	r := newRig(t, false)
	tok := r.token(t, "alice")
	r.mask.Allow("lunA", "alice", ReadWrite)
	vis, err := r.gw.Visible(tok)
	if err != nil {
		t.Fatal(err)
	}
	if len(vis) != 1 || vis[0] != "lunA" {
		t.Fatalf("visible = %v, want [lunA] only", vis)
	}
}

// A tenant granted several LUNs sees them in sorted order on every call,
// not in the mask's map order.
func TestVisibleLUNsSorted(t *testing.T) {
	r := newRig(t, false)
	tok := r.token(t, "alice")
	for i := 7; i >= 0; i-- {
		r.mask.Allow(fmt.Sprintf("lun%d", i), "alice", ReadOnly)
	}
	for call := 0; call < 20; call++ {
		vis, err := r.gw.Visible(tok)
		if err != nil {
			t.Fatal(err)
		}
		if len(vis) != 8 || !slices.IsSorted(vis) {
			t.Fatalf("call %d: visible = %v, want 8 LUNs in sorted order", call, vis)
		}
	}
}

func TestBadAndExpiredTokens(t *testing.T) {
	r := newRig(t, false)
	r.mask.Allow("lunA", "alice", ReadWrite)
	r.auth.CreateTenant("alice")
	short, _ := r.auth.Issue("alice", sim.Millisecond)
	r.run(func(p *sim.Proc) {
		if _, err := r.gw.Read(p, "garbage", "lunA", 0, 1, 0); !errors.Is(err, ErrBadToken) {
			t.Errorf("bad token err = %v", err)
		}
		p.Sleep(10 * sim.Millisecond)
		if _, err := r.gw.Read(p, short, "lunA", 0, 1, 0); !errors.Is(err, ErrBadToken) {
			t.Errorf("expired token err = %v", err)
		}
	})
}

func TestInBandControlLockdown(t *testing.T) {
	r := newRig(t, false)
	tok := r.token(t, "admin")
	r.gw.DisableInBand("volume.delete")
	ran := false
	runCmd := func() error { ran = true; return nil }
	// In-band (data path): refused.
	if err := r.gw.Control(tok, "volume.delete", true, runCmd); !errors.Is(err, ErrInBandLocked) {
		t.Fatalf("in-band err = %v, want ErrInBandLocked", err)
	}
	if ran {
		t.Fatal("locked command executed")
	}
	// Out-of-band (management network): allowed.
	if err := r.gw.Control(tok, "volume.delete", false, runCmd); err != nil {
		t.Fatalf("out-of-band err = %v", err)
	}
	if !ran {
		t.Fatal("out-of-band command did not run")
	}
}

// Property: encrypt/decrypt round-trips for any block address and payload,
// and ciphertexts under different tenants differ.
func TestCryptorProperty(t *testing.T) {
	k := sim.NewKernel(1)
	auth := NewAuthority(k)
	ta, _ := auth.CreateTenant("a")
	tb, _ := auth.CreateTenant("b")
	ca, _ := NewCryptor(ta, 0)
	cb, _ := NewCryptor(tb, 0)
	f := func(vol string, lba int64, payload []byte) bool {
		if len(payload) == 0 {
			return true
		}
		enc := ca.EncryptBlock(nil, vol, lba, payload)
		if bytes.Equal(enc, payload) && len(payload) > 8 {
			return false // ciphertext == plaintext is essentially impossible
		}
		dec := ca.DecryptBlock(nil, vol, lba, enc)
		if !bytes.Equal(dec, payload) {
			return false
		}
		// A different tenant's key must not decrypt it.
		wrong := cb.DecryptBlock(nil, vol, lba, enc)
		return !bytes.Equal(wrong, payload) || len(payload) < 4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCryptorAddressBoundIVs(t *testing.T) {
	k := sim.NewKernel(1)
	auth := NewAuthority(k)
	ten, _ := auth.CreateTenant("a")
	c, _ := NewCryptor(ten, 0)
	pt := block(1)
	e1 := c.EncryptBlock(nil, "v", 1, pt)
	e2 := c.EncryptBlock(nil, "v", 2, pt)
	if bytes.Equal(e1, e2) {
		t.Fatal("same ciphertext at different LBAs (IV reuse)")
	}
}

func TestCryptorThroughputCharged(t *testing.T) {
	k := sim.NewKernel(1)
	auth := NewAuthority(k)
	ten, _ := auth.CreateTenant("a")
	c, _ := NewCryptor(ten, 1_000_000_000) // 1 Gb/s engine
	var elapsed sim.Duration
	k.Go("t", func(p *sim.Proc) {
		start := p.Now()
		c.EncryptBlock(p, "v", 0, make([]byte, 125_000_000)) // 1 Gb
		elapsed = p.Now().Sub(start)
	})
	k.Run()
	if elapsed < 990*sim.Millisecond || elapsed > 1010*sim.Millisecond {
		t.Fatalf("1 Gb through 1 Gb/s engine took %v, want ~1s", elapsed)
	}
}

func TestAuditTrail(t *testing.T) {
	r := newRig(t, false)
	tok := r.token(t, "alice")
	r.mask.Allow("lunA", "alice", ReadWrite)
	r.run(func(p *sim.Proc) {
		r.gw.Read(p, tok, "lunA", 0, 1, 0)
		r.gw.Read(p, tok, "lunB", 0, 1, 0) // masked → denied
	})
	events := r.auth.audit
	if len(events) == 0 {
		t.Fatal("no audit events")
	}
	found := false
	for _, e := range events {
		if !e.OK && e.Target == "lunB" {
			found = true
		}
	}
	if !found {
		t.Fatal("denied access to lunB not audited")
	}
}
