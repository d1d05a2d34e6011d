package gateway

import (
	"errors"
	"fmt"
)

// ErrBadName rejects tenant/bucket names that could escape their pfs
// subtree or collide with the gateway's own path grammar.
var ErrBadName = errors.New("gateway: invalid name")

// segmentAlign rounds each segment slice's start offset, so slices stay
// block-aligned and small writes avoid read-modify-write on their first
// block.
const segmentAlign = 4096

// Objects of at most smallMax bytes pack into shared segment files of
// segmentBytes each; larger ones split into parts of partBytes.
const partBytes, segmentBytes, smallMax = 1 << 20, 4 << 20, 64 << 10

// LayoutConfig shapes how object bytes map onto pfs files (yig's data
// layer, SNIPPETS.md §1): large objects split into fixed-size parts so
// their bandwidth stripes across blades, small objects aggregate into
// shared segment files so a million tiny objects do not cost a million
// inodes and single-block allocations. Its zero value is the layout every
// gateway uses: the constants above, with every part in the file-system
// default class. The package's tests shrink the sizes or name classes
// through its fields.
type LayoutConfig struct {
	partBytes, segmentBytes, smallMax int64 // zero keeps the constant
	// classes lists the storage classes successive parts cycle through
	// ("" = file-system default class). More than one class stripes a
	// large object's parts across distinct backing volumes.
	classes []string
}

func (c LayoutConfig) withDefaults() LayoutConfig {
	if c.partBytes <= 0 {
		c.partBytes = partBytes
	}
	if c.segmentBytes <= 0 {
		c.segmentBytes = segmentBytes
	}
	if c.smallMax <= 0 {
		c.smallMax = smallMax
	}
	if c.smallMax > c.segmentBytes {
		c.smallMax = c.segmentBytes
	}
	if len(c.classes) == 0 {
		c.classes = []string{""}
	}
	return c
}

// Part is one contiguous slice of an object's bytes in one pfs file.
type Part struct {
	Path  string
	Off   int64 // byte offset within the file
	Len   int64
	Class string
}

// Layout maps an object version's bytes onto pfs files, in order.
type Layout struct {
	Parts []Part
	// Segment marks a small object aggregated into a shared segment file
	// (one slice); false means dedicated part files.
	Segment bool
}

// start returns the offset of part i within the object's bytes.
func (l Layout) start(i int) int64 {
	var off int64
	for _, part := range l.Parts[:i] {
		off += part.Len
	}
	return off
}

// SegCursor is a bucket's small-object aggregation point: the next free
// offset in its current segment file. It lives in the bucket's front-end
// record and only ever advances.
type SegCursor struct {
	Seg int64
	Off int64
}

// validName accepts the tenant and bucket names that may appear as one
// path segment under the gateway's pfs subtree: 1..63 chars drawn from
// [a-z0-9._-], not starting with a dot or dash (so "..", "." and
// option-like names are impossible).
func validName(s string) bool {
	if len(s) < 1 || len(s) > 63 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z':
		case c >= '0' && c <= '9':
		case c == '.' || c == '-' || c == '_':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// tenantRoot is the pfs subtree holding every file of one tenant's
// objects. All layout paths stay strictly below it — the object-store
// spelling of the paper's tenant separation (§5).
func tenantRoot(tenant string) string { return "/gateway/t/" + tenant }

func bucketRoot(tenant, bucket string) string {
	return tenantRoot(tenant) + "/b/" + bucket
}

// PlanLayout maps an object version of the given size onto pfs files. It
// is a pure function of its arguments: object keys never reach the path
// (part files are named by the bucket-unique version sequence seq), so
// arbitrary S3 keys cannot escape the tenant subtree. cur is the bucket's
// segment cursor; the advanced cursor is returned and must be stored back
// by the caller (the gateway's front end does this before it yields).
func PlanLayout(cfg LayoutConfig, tenant, bucket string, seq uint64, size int64, cur SegCursor) (Layout, SegCursor, error) {
	cfg = cfg.withDefaults()
	if !validName(tenant) || !validName(bucket) {
		return Layout{}, cur, fmt.Errorf("%w: tenant %q bucket %q", ErrBadName, tenant, bucket)
	}
	if size < 0 {
		return Layout{}, cur, fmt.Errorf("gateway: negative object size %d", size)
	}
	if cur.Seg < 0 || cur.Off < 0 {
		return Layout{}, cur, fmt.Errorf("gateway: invalid segment cursor %+v", cur)
	}
	root := bucketRoot(tenant, bucket)
	if size == 0 {
		// Empty object: metadata-only, no data files.
		return Layout{}, cur, nil
	}
	if size <= cfg.smallMax {
		// Aggregate into the current shared segment file, aligned; roll
		// to a fresh segment when the slice would cross its capacity.
		off := (cur.Off + segmentAlign - 1) / segmentAlign * segmentAlign
		seg := cur.Seg
		if off+size > cfg.segmentBytes {
			seg, off = seg+1, 0
		}
		lay := Layout{
			Parts:   []Part{{Path: fmt.Sprintf("%s/seg/%06d", root, seg), Off: off, Len: size, Class: cfg.classes[0]}},
			Segment: true,
		}
		return lay, SegCursor{Seg: seg, Off: off + size}, nil
	}
	// Large object: fixed-size parts, classes cycling so consecutive
	// parts stripe across volumes when extra classes are configured.
	n := (size + cfg.partBytes - 1) / cfg.partBytes
	parts := make([]Part, 0, n)
	for i, rem := int64(0), size; rem > 0; i++ {
		l := cfg.partBytes
		if rem < l {
			l = rem
		}
		parts = append(parts, Part{
			Path:  fmt.Sprintf("%s/p/%08d.%04d", root, seq, i),
			Off:   0,
			Len:   l,
			Class: cfg.classes[int(i)%len(cfg.classes)],
		})
		rem -= l
	}
	return Layout{Parts: parts}, cur, nil
}
