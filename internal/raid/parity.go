// Package raid implements the RAID layouts the paper's controllers manage
// (§4, §6): RAID-0 striping, RAID-1 mirroring, RAID-5 rotating XOR parity
// and RAID-6 P+Q Reed–Solomon parity, including degraded reads, degraded
// writes, and distributable rebuild — the "storage services" of §2.4.
package raid

import (
	"errors"
	"fmt"
)

// ErrTooManyFailures is returned when a stripe has lost more blocks than
// its parity can reconstruct.
var ErrTooManyFailures = errors.New("raid: too many failures to reconstruct")

// XORParity computes the RAID-5 P block: the XOR of all data blocks.
func XORParity(data [][]byte) []byte { return xorParity(nil, data) }

// xorParity is XORParity into p, which may hold anything, or into a new
// block if p is nil.
func xorParity(p []byte, data [][]byte) []byte {
	if len(data) == 0 {
		return nil
	}
	if p == nil {
		p = make([]byte, len(data[0]))
	}
	copy(p, data[0])
	for _, d := range data[1:] {
		xorInto(p, d)
	}
	return p
}

// rsParity computes the RAID-6 Q block, Σ gⁱ·dataᵢ over GF(2⁸), into q,
// which may hold anything, or into a new block if q is nil.
func rsParity(q []byte, data [][]byte) []byte {
	if len(data) == 0 {
		return nil
	}
	if q == nil {
		q = make([]byte, len(data[0]))
	}
	clear(q)
	for i, d := range data {
		gfMulInto(q, d, gfPow2(i))
	}
	return q
}

// Reconstruct fills in the missing entries of data (marked by nil slices at
// the indices listed in missing) from the surviving data plus P and/or Q
// parity. A nil p or q is a lost parity and counts as a failure; RAID-5
// callers pass q == nil with at most one missing block total.
//
// The supported cases follow the standard RAID-6 equations:
//
//	P = Σ dᵢ            Q = Σ gⁱ·dᵢ
func Reconstruct(data [][]byte, p, q []byte, missing []int) error {
	// Classify unrecoverable loss before probing for a block length: a
	// stripe that lost everything is "too many failures", not a malformed
	// call.
	parityAvail := 0
	if p != nil {
		parityAvail++
	}
	if q != nil {
		parityAvail++
	}
	if len(missing) > parityAvail {
		return fmt.Errorf("%w: %d data blocks lost, %d parity available", ErrTooManyFailures, len(missing), parityAvail)
	}

	blockLen := 0
	for _, d := range data {
		if d != nil {
			blockLen = len(d)
			break
		}
	}
	if blockLen == 0 && p != nil {
		blockLen = len(p)
	}
	if blockLen == 0 && q != nil {
		blockLen = len(q)
	}
	if blockLen == 0 {
		return errors.New("raid: nothing to reconstruct from")
	}

	switch len(missing) {
	case 0:
		return nil // only parity lost; caller regenerates via xorParity/rsParity

	case 1:
		x := missing[0]
		if p != nil {
			// d_x = P ⊕ Σ_{i≠x} d_i
			buf := make([]byte, blockLen)
			copy(buf, p)
			for i, d := range data {
				if i != x {
					xorInto(buf, d)
				}
			}
			data[x] = buf
			return nil
		}
		// d_x = (Q ⊕ Σ_{i≠x} gⁱ·dᵢ) / gˣ
		buf := make([]byte, blockLen)
		copy(buf, q)
		for i, d := range data {
			if i != x {
				gfMulInto(buf, d, gfPow2(i))
			}
		}
		gfScale(buf, gfInv(gfPow2(x)))
		data[x] = buf
		return nil

	case 2:
		x, y := missing[0], missing[1]
		if x == y {
			return errors.New("raid: duplicate missing index")
		}
		if x > y {
			x, y = y, x
		}
		// A = P ⊕ Σ_{i∉{x,y}} dᵢ          = d_x ⊕ d_y
		// B = Q ⊕ Σ_{i∉{x,y}} gⁱ·dᵢ       = gˣ·d_x ⊕ g^y·d_y
		// d_x = (B ⊕ g^y·A) / (gˣ ⊕ g^y) ; d_y = A ⊕ d_x
		a := make([]byte, blockLen)
		copy(a, p)
		b := make([]byte, blockLen)
		copy(b, q)
		for i, d := range data {
			if i == x || i == y {
				continue
			}
			xorInto(a, d)
			gfMulInto(b, d, gfPow2(i))
		}
		gx, gy := gfPow2(x), gfPow2(y)
		denomInv := gfInv(gx ^ gy)
		dx := make([]byte, blockLen)
		copy(dx, b)
		gfMulInto(dx, a, gy)
		gfScale(dx, denomInv)
		dy := make([]byte, blockLen)
		copy(dy, a)
		xorInto(dy, dx)
		data[x] = dx
		data[y] = dy
		return nil

	default:
		return fmt.Errorf("%w: %d data blocks lost", ErrTooManyFailures, len(missing))
	}
}
