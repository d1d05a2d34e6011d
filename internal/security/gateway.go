package security

import (
	"fmt"

	"repro/internal/sim"
)

// BlockStore is the data path the gateway protects — the blade cluster's
// block interface, by any route.
type BlockStore interface {
	BlockSize() int
	ReadBlocks(p *sim.Proc, vol string, lba int64, count int, priority int) ([]byte, error)
	WriteBlocks(p *sim.Proc, vol string, lba int64, data []byte, priority, replFactor int) error
}

// Gateway is the enforcement point in front of the storage system: every
// data and control operation authenticates first, LUN masking is applied,
// and tenant data is encrypted before it reaches the pool ("even if all of
// the security mechanisms were circumvented, an unauthorized user would
// not be able to read the data of another user", §5.1).
type Gateway struct {
	auth  *Authority
	mask  *LUNMask
	store BlockStore
	// cryptors caches per-tenant encryption engines.
	cryptors map[string]*Cryptor
	// encryptAtRest toggles §5.1 storage-level encryption.
	encryptAtRest bool
	// inbandDisabled lists control commands refused on the data path
	// (§5.2: "in-band control commands would be able to be selectively
	// disabled").
	inbandDisabled map[string]bool
	// lunVolume maps exported LUN names to backing volume names.
	lunVolume map[string]string
}

// GatewayConfig assembles a Gateway.
type GatewayConfig struct {
	Authority     *Authority
	Mask          *LUNMask
	Store         BlockStore
	EncryptAtRest bool
}

// NewGateway builds the enforcement point.
func NewGateway(cfg GatewayConfig) *Gateway {
	return &Gateway{
		auth:           cfg.Authority,
		mask:           cfg.Mask,
		store:          cfg.Store,
		cryptors:       make(map[string]*Cryptor),
		encryptAtRest:  cfg.EncryptAtRest,
		inbandDisabled: make(map[string]bool),
		lunVolume:      make(map[string]string),
	}
}

// ExportLUN publishes volume vol as LUN lun. Visibility still requires a
// LUN-mask grant.
func (g *Gateway) ExportLUN(lun, vol string) { g.lunVolume[lun] = vol }

// DisableInBand refuses the named control command when received on the
// data path; out-of-band (management network) invocation remains possible.
func (g *Gateway) DisableInBand(command string) { g.inbandDisabled[command] = true }

// Visible lists the LUNs the token's tenant can see.
func (g *Gateway) Visible(token string) ([]string, error) {
	tenant, err := g.auth.Authenticate(token)
	if err != nil {
		return nil, err
	}
	return g.mask.Visible(tenant), nil
}

// cryptor returns (building if needed) the tenant's encryption engine.
func (g *Gateway) cryptor(tenantID string) (*Cryptor, error) {
	if c, ok := g.cryptors[tenantID]; ok {
		return c, nil
	}
	t, err := g.auth.Tenant(tenantID)
	if err != nil {
		return nil, err
	}
	// The block gateway's engines charge no time: the per-blade encryption
	// rate is modelled on the stream path (stripe.Config.EncBps, E9).
	c, err := NewCryptor(t, 0)
	if err != nil {
		return nil, err
	}
	g.cryptors[tenantID] = c
	return c, nil
}

// check authenticates the token and authorizes the LUN operation,
// returning tenant and backing volume.
func (g *Gateway) check(token, lun string, write bool) (tenant, vol string, err error) {
	tenant, err = g.auth.Authenticate(token)
	if err != nil {
		return "", "", err
	}
	vol, ok := g.lunVolume[lun]
	if !ok {
		// Unknown LUNs are indistinguishable from masked ones.
		g.auth.log(tenant, "io", lun, false, "no such lun")
		return "", "", fmt.Errorf("%w: lun %q", ErrDenied, lun)
	}
	if err := g.mask.Check(lun, tenant, write); err != nil {
		g.auth.log(tenant, "io", lun, false, "lun masked")
		return "", "", err
	}
	return tenant, vol, nil
}

// Read authenticates, authorizes and reads count blocks, decrypting
// at-rest ciphertext with the tenant's key.
func (g *Gateway) Read(p *sim.Proc, token, lun string, lba int64, count, priority int) ([]byte, error) {
	tenant, vol, err := g.check(token, lun, false)
	if err != nil {
		return nil, err
	}
	data, err := g.store.ReadBlocks(p, vol, lba, count, priority)
	if err != nil {
		return nil, err
	}
	if !g.encryptAtRest {
		return data, nil
	}
	cr, err := g.cryptor(tenant)
	if err != nil {
		return nil, err
	}
	bs := g.store.BlockSize()
	out := make([]byte, 0, len(data))
	for i := 0; i < count; i++ {
		out = append(out, cr.DecryptBlock(p, vol, lba+int64(i), data[i*bs:(i+1)*bs])...)
	}
	return out, nil
}

// Write authenticates, authorizes and writes block-aligned data,
// encrypting it with the tenant's key before it reaches the pool.
func (g *Gateway) Write(p *sim.Proc, token, lun string, lba int64, data []byte, priority, replFactor int) error {
	tenant, vol, err := g.check(token, lun, true)
	if err != nil {
		return err
	}
	if !g.encryptAtRest {
		return g.store.WriteBlocks(p, vol, lba, data, priority, replFactor)
	}
	cr, err := g.cryptor(tenant)
	if err != nil {
		return err
	}
	bs := g.store.BlockSize()
	enc := make([]byte, 0, len(data))
	for i := 0; i < len(data)/bs; i++ {
		enc = append(enc, cr.EncryptBlock(p, vol, lba+int64(i), data[i*bs:(i+1)*bs])...)
	}
	return g.store.WriteBlocks(p, vol, lba, enc, priority, replFactor)
}

// Control executes a named control-plane command. inBand reports whether
// the request arrived over the data path (host Fibre Channel / iSCSI)
// rather than the separate management network; disabled in-band commands
// are refused and audited.
func (g *Gateway) Control(token, command string, inBand bool, run func() error) error {
	tenant, err := g.auth.Authenticate(token)
	if err != nil {
		return err
	}
	if inBand && g.inbandDisabled[command] {
		g.auth.log(tenant, "control."+command, "", false, "in-band disabled")
		return fmt.Errorf("%w: %q", ErrInBandLocked, command)
	}
	g.auth.log(tenant, "control."+command, "", true, "")
	return run()
}
