package raid

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func randStripe(rng *rand.Rand, nData, blockLen int) [][]byte {
	data := make([][]byte, nData)
	for i := range data {
		data[i] = make([]byte, blockLen)
		rng.Read(data[i])
	}
	return data
}

func cloneStripe(data [][]byte) [][]byte {
	out := make([][]byte, len(data))
	for i, d := range data {
		out[i] = append([]byte(nil), d...)
	}
	return out
}

// Property: losing any single data block is recoverable from P alone.
func TestReconstructSingleFromP(t *testing.T) {
	f := func(seed int64, nRaw, lostRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%6 + 2
		lost := int(lostRaw) % n
		data := randStripe(rng, n, 64)
		p := XORParity(data)
		work := cloneStripe(data)
		work[lost] = nil
		if err := Reconstruct(work, p, nil, []int{lost}); err != nil {
			return false
		}
		return bytes.Equal(work[lost], data[lost])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: losing any single data block is recoverable from Q alone
// (the case where P died too).
func TestReconstructSingleFromQ(t *testing.T) {
	f := func(seed int64, nRaw, lostRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%6 + 2
		lost := int(lostRaw) % n
		data := randStripe(rng, n, 64)
		q := rsParity(nil, data)
		work := cloneStripe(data)
		work[lost] = nil
		if err := Reconstruct(work, nil, q, []int{lost}); err != nil {
			return false
		}
		return bytes.Equal(work[lost], data[lost])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: losing any two distinct data blocks is recoverable from P+Q.
func TestReconstructDoubleFromPQ(t *testing.T) {
	f := func(seed int64, nRaw, aRaw, bRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%6 + 3
		a, b := int(aRaw)%n, int(bRaw)%n
		if a == b {
			b = (a + 1) % n
		}
		data := randStripe(rng, n, 64)
		p := XORParity(data)
		q := rsParity(nil, data)
		work := cloneStripe(data)
		work[a], work[b] = nil, nil
		if err := Reconstruct(work, p, q, []int{a, b}); err != nil {
			return false
		}
		return bytes.Equal(work[a], data[a]) && bytes.Equal(work[b], data[b])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReconstructTooManyFailures(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := randStripe(rng, 5, 16)
	p := XORParity(data)
	work := cloneStripe(data)
	work[0], work[1] = nil, nil
	// Two data losses with only P: unrecoverable.
	if err := Reconstruct(work, p, nil, []int{0, 1}); err == nil {
		t.Fatal("expected failure with 2 losses and P only")
	}
	// Three losses: unrecoverable even with P+Q.
	q := rsParity(nil, data)
	work = cloneStripe(data)
	work[0], work[1], work[2] = nil, nil, nil
	if err := Reconstruct(work, p, q, []int{0, 1, 2}); err == nil {
		t.Fatal("expected failure with 3 losses")
	}
}

func TestParityLinearity(t *testing.T) {
	// Updating one data block changes P by the XOR delta and Q by the
	// coefficient-scaled delta — the algebra behind read-modify-write.
	rng := rand.New(rand.NewSource(2))
	data := randStripe(rng, 4, 32)
	p := XORParity(data)
	q := rsParity(nil, data)
	idx := 2
	newBlock := make([]byte, 32)
	rng.Read(newBlock)
	delta := make([]byte, 32)
	copy(delta, data[idx])
	xorInto(delta, newBlock)

	newP := append([]byte(nil), p...)
	xorInto(newP, delta)
	newQ := append([]byte(nil), q...)
	gfMulInto(newQ, delta, gfPow2(idx))

	data[idx] = newBlock
	if !bytes.Equal(newP, XORParity(data)) {
		t.Fatal("P delta update != recomputed P")
	}
	if !bytes.Equal(newQ, rsParity(nil, data)) {
		t.Fatal("Q delta update != recomputed Q")
	}
}

func TestZeroStripeParity(t *testing.T) {
	data := make([][]byte, 3)
	for i := range data {
		data[i] = make([]byte, 16)
	}
	for _, b := range XORParity(data) {
		if b != 0 {
			t.Fatal("parity of zeros not zero")
		}
	}
	for _, b := range rsParity(nil, data) {
		if b != 0 {
			t.Fatal("Q of zeros not zero")
		}
	}
}

// Parity made into a block that holds anything, as a row write's scratch
// block does, equals parity made into a new block.
func TestParityIntoUsedBlock(t *testing.T) {
	data := [][]byte{fillPattern(512, 1), fillPattern(512, 2), fillPattern(512, 3)}
	used := func() []byte { return bytes.Repeat([]byte{0xa5}, 512) }
	if !bytes.Equal(xorParity(used(), data), XORParity(data)) {
		t.Error("P made into a used block differs from P made into a new one")
	}
	if !bytes.Equal(rsParity(used(), data), rsParity(nil, data)) {
		t.Error("Q made into a used block differs from Q made into a new one")
	}
}
