package raid

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzGF256 checks the table-driven GF(2⁸) arithmetic against the
// shift-and-reduce reference implementation and the field axioms. The
// tables are built once at init; a single wrong entry silently corrupts
// every Q parity the array ever writes, so the field laws are worth
// fuzzing rather than spot-checking.
func FuzzGF256(f *testing.F) {
	f.Add(byte(0), byte(0), byte(0))
	f.Add(byte(1), byte(2), byte(3))
	f.Add(byte(0x1d), byte(0x80), byte(0xff))
	f.Add(byte(255), byte(254), byte(253))
	f.Fuzz(func(t *testing.T, a, b, c byte) {
		// The fast multiply must agree with the reference bit-twiddle.
		if got, want := gfMul(a, b), gfMulNoTable(a, b); got != want {
			t.Fatalf("gfMul(%d,%d) = %d, reference says %d", a, b, got, want)
		}
		// Field axioms: commutativity, associativity, distributivity over
		// the field's addition (XOR), multiplicative identity.
		if gfMul(a, b) != gfMul(b, a) {
			t.Fatalf("gfMul not commutative for %d,%d", a, b)
		}
		if gfMul(gfMul(a, b), c) != gfMul(a, gfMul(b, c)) {
			t.Fatalf("gfMul not associative for %d,%d,%d", a, b, c)
		}
		if gfMul(a, b^c) != gfMul(a, b)^gfMul(a, c) {
			t.Fatalf("gfMul not distributive over XOR for %d,%d,%d", a, b, c)
		}
		if gfMul(a, 1) != a {
			t.Fatalf("1 is not the multiplicative identity for %d", a)
		}
		// Division and inverse round-trips (on the nonzero subgroup).
		if b != 0 {
			if gfDiv(gfMul(a, b), b) != a {
				t.Fatalf("(%d*%d)/%d != %d", a, b, b, a)
			}
			if gfMul(b, gfInv(b)) != 1 {
				t.Fatalf("%d * inv(%d) != 1", b, b)
			}
		}
		// The vectorized helpers must match the scalar ops elementwise.
		src := []byte{a, b, c}
		dst := []byte{c, a, b}
		want := []byte{dst[0] ^ gfMul(src[0], c), dst[1] ^ gfMul(src[1], c), dst[2] ^ gfMul(src[2], c)}
		gfMulInto(dst, src, c)
		if !bytes.Equal(dst, want) {
			t.Fatalf("gfMulInto(%v, %d) = %v, want %v", src, c, dst, want)
		}
		buf := []byte{a, b, c}
		scaled := []byte{gfMul(a, c), gfMul(b, c), gfMul(c, c)}
		gfScale(buf, c)
		if !bytes.Equal(buf, scaled) {
			t.Fatalf("gfScale(%v, %d) = %v, want %v", []byte{a, b, c}, c, buf, scaled)
		}
	})
}

// FuzzReconstruct round-trips the RAID-6 equations: build a stripe, compute
// P and Q, knock out up to two data blocks (plus optionally a parity), and
// demand that Reconstruct either restores the exact bytes or reports
// ErrTooManyFailures — never a silently wrong block.
func FuzzReconstruct(f *testing.F) {
	f.Add(byte(0), byte(0), byte(0), byte(1), byte(0), int64(1))
	f.Add(byte(3), byte(16), byte(1), byte(2), byte(2), int64(7))
	f.Add(byte(5), byte(63), byte(0), byte(4), byte(6), int64(1009))
	f.Add(byte(2), byte(8), byte(1), byte(1), byte(12), int64(-5))
	f.Fuzz(func(t *testing.T, nSel, lenSel, m1, m2, mode byte, seed int64) {
		n := 2 + int(nSel%6)           // 2..7 data disks
		blockLen := 1 + int(lenSel%64) // 1..64 bytes per block
		// Deterministic stripe content from the fuzzed seed.
		rng := uint64(seed)
		orig := make([][]byte, n)
		for i := range orig {
			orig[i] = make([]byte, blockLen)
			for j := range orig[i] {
				rng = rng*6364136223846793005 + 1442695040888963407
				orig[i][j] = byte(rng >> 56)
			}
		}
		p := XORParity(orig)
		q := rsParity(nil, orig)

		// Failure plan: 0-2 missing data blocks, optionally lost parity.
		missing := []int{}
		switch mode % 3 {
		case 1:
			missing = []int{int(m1) % n}
		case 2:
			x, y := int(m1)%n, int(m2)%n
			if x == y {
				missing = []int{x}
			} else {
				missing = []int{x, y}
			}
		}
		pLost := mode&4 != 0
		qLost := mode&8 != 0
		// A lost parity is a nil slice.
		pIn, qIn := append([]byte(nil), p...), append([]byte(nil), q...)
		if pLost {
			pIn = nil
		}
		if qLost {
			qIn = nil
		}

		data := make([][]byte, n)
		for i := range orig {
			data[i] = append([]byte(nil), orig[i]...)
		}
		for _, x := range missing {
			data[x] = nil
		}

		parityAvail := 0
		if !pLost {
			parityAvail++
		}
		if !qLost {
			parityAvail++
		}
		err := Reconstruct(data, pIn, qIn, missing)
		if len(missing) > parityAvail {
			if !errors.Is(err, ErrTooManyFailures) {
				t.Fatalf("%d missing with %d parity available: err = %v, want ErrTooManyFailures", len(missing), parityAvail, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("reconstruct(%d disks, missing %v, pLost=%v qLost=%v): %v", n, missing, pLost, qLost, err)
		}
		for i := range orig {
			if !bytes.Equal(data[i], orig[i]) {
				t.Fatalf("disk %d reconstructed wrong: got %v, want %v (missing %v, pLost=%v qLost=%v)",
					i, data[i], orig[i], missing, pLost, qLost)
			}
		}
		// Regenerated parity over the restored stripe must match the
		// original, or the stripe would scrub dirty after a rebuild.
		if !bytes.Equal(XORParity(data), p) || !bytes.Equal(rsParity(nil, data), q) {
			t.Fatalf("parity mismatch after reconstruct (missing %v)", missing)
		}
	})
}
