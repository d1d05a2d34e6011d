package raid

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGFMulAgainstReference(t *testing.T) {
	f := func(a, b byte) bool { return gfMul(a, b) == gfMulNoTable(a, b) }
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestGFFieldAxioms(t *testing.T) {
	// Associativity, commutativity, distributivity over sampled triples.
	f := func(a, b, c byte) bool {
		if gfMul(a, b) != gfMul(b, a) {
			return false
		}
		if gfMul(gfMul(a, b), c) != gfMul(a, gfMul(b, c)) {
			return false
		}
		return gfMul(a, b^c) == gfMul(a, b)^gfMul(a, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestGFDivInvertsMul(t *testing.T) {
	f := func(a, b byte) bool {
		if b == 0 {
			return true
		}
		return gfDiv(gfMul(a, b), b) == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestGFInv(t *testing.T) {
	for a := 1; a < 256; a++ {
		if got := gfMul(byte(a), gfInv(byte(a))); got != 1 {
			t.Fatalf("a·a⁻¹ = %d for a=%d, want 1", got, a)
		}
	}
}

func TestGFPow2Distinct(t *testing.T) {
	// Coefficients for distinct disks must be distinct (up to 255 disks),
	// or RAID-6 two-failure recovery would divide by zero.
	seen := make(map[byte]int)
	for i := 0; i < 255; i++ {
		c := gfPow2(i)
		if c == 0 {
			t.Fatalf("gfPow2(%d) = 0", i)
		}
		if j, dup := seen[c]; dup {
			t.Fatalf("gfPow2(%d) == gfPow2(%d)", i, j)
		}
		seen[c] = i
	}
}

func TestGFDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on division by zero")
		}
	}()
	gfDiv(5, 0)
}

func TestXorIntoAndMulInto(t *testing.T) {
	dst := []byte{1, 2, 3}
	xorInto(dst, []byte{1, 2, 3})
	for _, b := range dst {
		if b != 0 {
			t.Fatal("x^x != 0")
		}
	}
	dst = []byte{0, 0}
	gfMulInto(dst, []byte{3, 7}, 2)
	if dst[0] != gfMul(3, 2) || dst[1] != gfMul(7, 2) {
		t.Fatal("gfMulInto mismatch")
	}
	gfMulInto(dst, []byte{1, 1}, 0) // no-op
	if dst[0] != gfMul(3, 2) {
		t.Fatal("gfMulInto with c=0 modified dst")
	}
}

// TestXorIntoMatchesByteLoop holds xorInto to the byte loop it replaced at
// every length up to a 4 KiB block and one past it, on sub-slices that start
// off any word boundary, and checks that no byte outside dst changes.
func TestXorIntoMatchesByteLoop(t *testing.T) {
	const maxLen = 4097
	rng := rand.New(rand.NewSource(1))
	dstBuf, srcBuf := make([]byte, maxLen+16), make([]byte, maxLen+16)
	rng.Read(dstBuf)
	rng.Read(srcBuf)
	for n := 0; n <= maxLen; n++ {
		doff, soff := n%8, 7-n%7
		want := bytes.Clone(dstBuf)
		for i := 0; i < n; i++ {
			want[doff+i] ^= srcBuf[soff+i]
		}
		xorInto(dstBuf[doff:doff+n], srcBuf[soff:soff+n])
		if !bytes.Equal(dstBuf, want) {
			t.Fatalf("length %d, dst offset %d, src offset %d: xorInto differs from the byte loop", n, doff, soff)
		}
	}
}

func TestGFScale(t *testing.T) {
	buf := []byte{5, 9, 0}
	gfScale(buf, 3)
	if buf[0] != gfMul(5, 3) || buf[1] != gfMul(9, 3) || buf[2] != 0 {
		t.Fatal("gfScale mismatch")
	}
	gfScale(buf, 1)
	if buf[0] != gfMul(5, 3) {
		t.Fatal("gfScale by 1 changed buffer")
	}
	gfScale(buf, 0)
	for _, b := range buf {
		if b != 0 {
			t.Fatal("gfScale by 0 not zero")
		}
	}
}

// gfMul multiplies a and b in GF(2⁸).
func gfMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+int(gfLog[b])]
}
