// Package security implements §5 of the paper: tenant separation for the
// shared storage pool. It provides token authentication in front of both
// data and control paths, LUN masking, at-rest and in-flight block
// encryption keyed per tenant (so circumvented ACLs or removed disks expose
// nothing, §5.1), selective in-band control lockdown (§5.2), and an audit
// trail — together the "fortified architectural ring".
package security

import (
	"encoding/hex"
	"errors"
	"fmt"
	"slices"

	"repro/internal/sim"
)

// Errors returned by authentication and authorization checks.
var (
	ErrBadToken     = errors.New("security: invalid or expired token")
	ErrDenied       = errors.New("security: access denied")
	ErrNoTenant     = errors.New("security: unknown tenant")
	ErrInBandLocked = errors.New("security: in-band control command disabled")
)

// Tenant is one user group sharing the pool.
type Tenant struct {
	ID string
	// key is the tenant's AES-256 data key; it never leaves the
	// fortified ring.
	key []byte
}

// AuditEvent is one entry in the security log.
type AuditEvent struct {
	At     sim.Time
	Tenant string
	Action string
	Target string
	OK     bool
	Detail string
}

// Authority is the control-plane core: tenant registry, token issuing and
// verification, and the audit log. In the paper's deployment it runs on
// redundant management servers inside the secure network (Figure 2).
type Authority struct {
	k       *sim.Kernel
	tenants map[string]*Tenant
	tokens  map[string]tokenInfo
	audit   []AuditEvent
	nextTok uint64
}

type tokenInfo struct {
	tenant  string
	expires sim.Time
}

// NewAuthority returns an empty authority on k.
func NewAuthority(k *sim.Kernel) *Authority {
	return &Authority{
		k:       k,
		tenants: make(map[string]*Tenant),
		tokens:  make(map[string]tokenInfo),
	}
}

// CreateTenant registers a tenant and generates its data key.
func (a *Authority) CreateTenant(id string) (*Tenant, error) {
	if _, exists := a.tenants[id]; exists {
		return nil, fmt.Errorf("security: tenant %q exists", id)
	}
	key := make([]byte, 32)
	a.k.Rand().Read(key)
	t := &Tenant{ID: id, key: key}
	a.tenants[id] = t
	a.log(id, "tenant.create", id, true, "")
	return t, nil
}

// CreateTenants bulk-registers n tenants named prefix0..prefix<n-1> and
// returns one bearer token per tenant, each valid for ttl. It exists for
// IAM-scale populations (the object gateway registers millions of users at
// boot): per-tenant data keys are still drawn from the kernel's seeded rng,
// but the audit log records one summary event for the whole batch instead
// of 2n entries, keeping boot memory linear in the registry — not the log.
func (a *Authority) CreateTenants(prefix string, n int, ttl sim.Duration) ([]string, error) {
	tokens := make([]string, n)
	key := make([]byte, 32)
	raw := make([]byte, 16)
	expires := a.k.Now().Add(ttl)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("%s%d", prefix, i)
		if _, exists := a.tenants[id]; exists {
			return nil, fmt.Errorf("security: tenant %q exists", id)
		}
		a.k.Rand().Read(key)
		t := &Tenant{ID: id, key: append([]byte(nil), key...)}
		a.tenants[id] = t
		a.k.Rand().Read(raw)
		a.nextTok++
		tok := fmt.Sprintf("%d.%s", a.nextTok, hex.EncodeToString(raw))
		a.tokens[tok] = tokenInfo{tenant: id, expires: expires}
		tokens[i] = tok
	}
	a.log("", "tenant.bulk", prefix, true, fmt.Sprintf("n=%d", n))
	return tokens, nil
}

// Tenant looks up a tenant by ID.
func (a *Authority) Tenant(id string) (*Tenant, error) {
	t, ok := a.tenants[id]
	if !ok {
		return nil, ErrNoTenant
	}
	return t, nil
}

// Issue mints a bearer token for tenant, valid for ttl of virtual time.
func (a *Authority) Issue(tenantID string, ttl sim.Duration) (string, error) {
	if _, ok := a.tenants[tenantID]; !ok {
		return "", ErrNoTenant
	}
	raw := make([]byte, 16)
	a.k.Rand().Read(raw)
	a.nextTok++
	tok := fmt.Sprintf("%d.%s", a.nextTok, hex.EncodeToString(raw))
	a.tokens[tok] = tokenInfo{tenant: tenantID, expires: a.k.Now().Add(ttl)}
	a.log(tenantID, "token.issue", "", true, "")
	return tok, nil
}

// Authenticate resolves a token to its tenant, rejecting unknown or
// expired tokens. Failures are audited.
func (a *Authority) Authenticate(token string) (string, error) {
	info, ok := a.tokens[token]
	if !ok {
		a.log("", "auth", "", false, "unknown token")
		return "", ErrBadToken
	}
	if a.k.Now() > info.expires {
		delete(a.tokens, token)
		a.log(info.tenant, "auth", "", false, "expired token")
		return "", ErrBadToken
	}
	return info.tenant, nil
}

func (a *Authority) log(tenant, action, target string, ok bool, detail string) {
	a.audit = append(a.audit, AuditEvent{
		At: a.k.Now(), Tenant: tenant, Action: action, Target: target, OK: ok, Detail: detail,
	})
}

// Record appends an event to the audit log on behalf of an enforcement
// point outside this package — the object gateway logs denied bucket
// operations here so one trail covers block and object access alike.
func (a *Authority) Record(tenant, action, target string, ok bool, detail string) {
	a.log(tenant, action, target, ok, detail)
}

// Denials returns the audited failures — what an operator reviews after an
// intrusion attempt.
func (a *Authority) Denials() []AuditEvent {
	var out []AuditEvent
	for _, e := range a.audit {
		if !e.OK {
			out = append(out, e)
		}
	}
	return out
}

// Access is a LUN permission level.
type Access int

// LUN permission levels.
const (
	NoAccess Access = iota
	ReadOnly
	ReadWrite
)

// LUNMask is the classic SAN separation mechanism (§5): each tenant
// privately owns portions of the pool, concealed from other attached
// servers.
type LUNMask struct {
	acl map[string]map[string]Access // lun → tenant → access
}

// NewLUNMask returns an empty mask (default deny).
func NewLUNMask() *LUNMask {
	return &LUNMask{acl: make(map[string]map[string]Access)}
}

// Allow grants tenant the given access to lun.
func (m *LUNMask) Allow(lun, tenant string, access Access) {
	byTenant, ok := m.acl[lun]
	if !ok {
		byTenant = make(map[string]Access)
		m.acl[lun] = byTenant
	}
	byTenant[tenant] = access
}

// Check verifies tenant may access lun (write=true requires ReadWrite).
func (m *LUNMask) Check(lun, tenant string, write bool) error {
	access := m.acl[lun][tenant]
	if access == NoAccess {
		return fmt.Errorf("%w: tenant %q on lun %q", ErrDenied, tenant, lun)
	}
	if write && access != ReadWrite {
		return fmt.Errorf("%w: tenant %q read-only on lun %q", ErrDenied, tenant, lun)
	}
	return nil
}

// Visible lists, sorted, the LUNs tenant can see — masked LUNs simply do
// not appear (the concealment property of LUN masking).
func (m *LUNMask) Visible(tenant string) []string {
	var out []string
	for lun, byTenant := range m.acl {
		if byTenant[tenant] != NoAccess {
			out = append(out, lun)
		}
	}
	slices.Sort(out)
	return out
}
