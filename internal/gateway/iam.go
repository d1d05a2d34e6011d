package gateway

import (
	"errors"
	"fmt"

	"repro/internal/metrics"
	"repro/internal/security"
	"repro/internal/sim"
)

// Errors returned by the object API.
var (
	ErrNoBucket     = errors.New("gateway: no such bucket")
	ErrBucketExists = errors.New("gateway: bucket exists")
	ErrNoObject     = errors.New("gateway: no such object")
)

// ACL is a bucket's access policy. The owner always has full access;
// everyone else gets the public level or their explicit grant, whichever
// is higher. Levels reuse the security package's Access scale so the
// block and object planes speak one permission language.
type ACL struct {
	// Public is the access level granted to any authenticated tenant.
	Public security.Access
	// Grants names per-tenant access levels.
	Grants map[string]security.Access
}

// allows reports whether a non-owner tenant may read (write=false) or
// write (write=true) under this ACL.
func (a ACL) allows(tenant string, write bool) bool {
	level := a.Public
	if g, ok := a.Grants[tenant]; ok && g > level {
		level = g
	}
	if write {
		return level == security.ReadWrite
	}
	return level >= security.ReadOnly
}

// clone deep-copies the ACL so the IAM cache never aliases caller maps.
func (a ACL) clone() ACL {
	out := ACL{Public: a.Public}
	if len(a.Grants) > 0 {
		out.Grants = make(map[string]security.Access, len(a.Grants))
		for k, v := range a.Grants {
			out.Grants[k] = v
		}
	}
	return out
}

// iamEntry is one bucket's authorization record in the in-memory cache.
type iamEntry struct {
	owner string
	acl   ACL
}

// IAM is the gateway's authentication/authorization tier (yig tier 1):
// token verification delegates to security.Authority — there is no
// parallel token path — and every bucket's owner/ACL is mirrored into an
// in-memory cache, so the whole auth decision touches only memory. The
// design point (SNIPPETS.md §1) is that auth must stay off the storage
// path: Authorize performs zero pfs I/O, asserted by test.
type IAM struct {
	auth *security.Authority

	entries map[string]iamEntry // bucket → owner/ACL

	hitLat  *metrics.Histogram
	auths   int64
	denials int64
}

// IAMLatency models the in-memory credential lookup cost; well under
// yig's <10ms bound, surfaced in the hit-latency histogram.
const IAMLatency = 100 * sim.Microsecond

func newIAM(auth *security.Authority) *IAM {
	return &IAM{
		auth:    auth,
		entries: make(map[string]iamEntry),
		hitLat:  metrics.NewHistogram(),
	}
}

// put installs or replaces a bucket's authorization record.
func (i *IAM) put(bucket, owner string, acl ACL) {
	i.entries[bucket] = iamEntry{owner: owner, acl: acl.clone()}
}

// authenticate resolves a token to a tenant through the Authority,
// charging the in-memory lookup latency.
func (i *IAM) authenticate(p *sim.Proc, token string) (string, error) {
	start := p.Now()
	tenant, err := i.auth.Authenticate(token)
	p.Sleep(IAMLatency)
	if err != nil {
		i.denials++
		return "", err // Authority already audited the bad token
	}
	i.auths++
	i.hitLat.Observe(p.Now().Sub(start))
	return tenant, nil
}

// authorize authenticates the token and checks the bucket ACL in one
// in-memory pass, returning the acting tenant and the bucket owner (whose
// QoS identity the data path bills). Denials are audited through the
// Authority so the object plane lands in the same trail as block access.
func (i *IAM) authorize(p *sim.Proc, token, bucket string, write bool, action string) (tenant, owner string, err error) {
	start := p.Now()
	tenant, err = i.auth.Authenticate(token)
	p.Sleep(IAMLatency)
	if err != nil {
		i.denials++
		return "", "", err
	}
	e, ok := i.entries[bucket]
	if !ok {
		return "", "", fmt.Errorf("%w: %q", ErrNoBucket, bucket)
	}
	if tenant != e.owner && !e.acl.allows(tenant, write) {
		i.denials++
		i.auth.Record(tenant, "gateway."+action, bucket, false, "bucket acl")
		return "", "", fmt.Errorf("%w: tenant %q on bucket %q", security.ErrDenied, tenant, bucket)
	}
	i.auths++
	i.hitLat.Observe(p.Now().Sub(start))
	return tenant, e.owner, nil
}
