package raid

// GF(2⁸) arithmetic for RAID-6 Reed–Solomon parity, using the standard
// polynomial x⁸+x⁴+x³+x²+1 (0x11d) — the same field used by Linux md and
// the RAID Advisory Board literature the paper cites.

import "crypto/subtle"

var gfExp [512]byte
var gfLog [256]byte

func init() {
	x := byte(1)
	for i := 0; i < 255; i++ {
		gfExp[i] = x
		gfLog[x] = byte(i)
		// multiply x by the generator 2
		x = gfMulNoTable(x, 2)
	}
	for i := 255; i < 512; i++ {
		gfExp[i] = gfExp[i-255]
	}
}

// gfMulNoTable multiplies in GF(2⁸) by shift-and-reduce; used only to build
// the tables.
func gfMulNoTable(a, b byte) byte {
	var p byte
	for b > 0 {
		if b&1 != 0 {
			p ^= a
		}
		hi := a & 0x80
		a <<= 1
		if hi != 0 {
			a ^= 0x1d
		}
		b >>= 1
	}
	return p
}

// gfDiv divides a by b in GF(2⁸); b must be nonzero.
func gfDiv(a, b byte) byte {
	if b == 0 {
		panic("raid: GF(256) division by zero")
	}
	if a == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+255-int(gfLog[b])]
}

// gfPow returns 2^n in GF(2⁸) — the RAID-6 coefficient for data disk n.
func gfPow2(n int) byte { return gfExp[n%255] }

// gfInv returns the multiplicative inverse of a.
func gfInv(a byte) byte { return gfDiv(1, a) }

// xorInto sets dst ^= src elementwise, a word or a vector at a time.
func xorInto(dst, src []byte) { subtle.XORBytes(dst, dst, src) }

// gfMulInto sets dst ^= c·src elementwise.
func gfMulInto(dst, src []byte, c byte) {
	if c == 0 {
		return
	}
	if c == 1 {
		xorInto(dst, src)
		return
	}
	lc := int(gfLog[c])
	for i := range src {
		if src[i] != 0 {
			dst[i] ^= gfExp[lc+int(gfLog[src[i]])]
		}
	}
}

// gfScale sets buf = c·buf elementwise.
func gfScale(buf []byte, c byte) {
	if c == 1 {
		return
	}
	if c == 0 {
		for i := range buf {
			buf[i] = 0
		}
		return
	}
	lc := int(gfLog[c])
	for i := range buf {
		if buf[i] != 0 {
			buf[i] = gfExp[lc+int(gfLog[buf[i]])]
		}
	}
}
