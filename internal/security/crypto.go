package security

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"fmt"

	"repro/internal/sim"
)

// Cryptor performs the paper's "in-stream" block encryption (§5.1): data
// and metadata are encrypted on the way to disk and decrypted on the way
// back, keyed per tenant, so that a removed drive or a circumvented ACL
// yields only ciphertext.
//
// Blocks are encrypted with AES-256-CTR under a per-block IV derived from
// (volume, LBA), making every block independently addressable. The
// throughput of the engine is modeled explicitly: each operation charges
// virtual time against the blade's encryption bandwidth, which is what the
// wire-speed-by-parallelism claim of §8.1 is about.
type Cryptor struct {
	block cipher.Block
	// ThroughputBps is the engine's simulated rate in bits per second
	// (0 = free, e.g. when accounting happens elsewhere).
	ThroughputBps int64
}

// NewCryptor builds a cryptor for a tenant's key.
func NewCryptor(t *Tenant, throughputBps int64) (*Cryptor, error) {
	blk, err := aes.NewCipher(t.key)
	if err != nil {
		return nil, fmt.Errorf("security: %w", err)
	}
	return &Cryptor{block: blk, ThroughputBps: throughputBps}, nil
}

// iv derives the per-block counter IV from the block address.
func (c *Cryptor) iv(vol string, lba int64) []byte {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s/%d", vol, lba)))
	return sum[:aes.BlockSize]
}

// cost blocks p for the engine's simulated processing time.
func (c *Cryptor) cost(p *sim.Proc, n int) {
	if c.ThroughputBps <= 0 || p == nil {
		return
	}
	p.Sleep(sim.Duration(float64(n*8) / float64(c.ThroughputBps) * float64(sim.Second)))
}

// EncryptBlock returns the ciphertext of data for block (vol, lba).
// CTR mode: the same call decrypts. The simulated engine time is charged
// to p.
func (c *Cryptor) EncryptBlock(p *sim.Proc, vol string, lba int64, data []byte) []byte {
	c.cost(p, len(data))
	out := make([]byte, len(data))
	cipher.NewCTR(c.block, c.iv(vol, lba)).XORKeyStream(out, data)
	return out
}

// DecryptBlock reverses EncryptBlock.
func (c *Cryptor) DecryptBlock(p *sim.Proc, vol string, lba int64, data []byte) []byte {
	return c.EncryptBlock(p, vol, lba, data)
}
