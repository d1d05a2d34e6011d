package gateway

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzObjectLayout drives PlanLayout with arbitrary tenant/bucket names,
// object keys, sizes, cursors and config knobs, and checks the placement
// invariants the object store's integrity rests on:
//
//   - round-trip: the parts tile [0, size) exactly, in order, no overlap
//   - containment: every path stays strictly inside the tenant's bucket
//     subtree — no input (hostile names, "/" or ".." in keys) can place
//     one tenant's bytes under another tenant's volume prefix
//   - segment discipline: small objects land as one aligned slice that
//     never crosses the segment capacity, and the cursor only advances
//   - determinism: identical inputs replan to identical layouts
//
// Object keys deliberately do not appear in PlanLayout's signature —
// part files are named by version sequence. The fuzzer feeds the key
// through the same seq derivation the metadata tier would use, proving
// arbitrary keys cannot influence path safety.
func FuzzObjectLayout(f *testing.F) {
	f.Add("alpha", "data", "a/b/c.txt", int64(5000), int64(0), int64(0), int64(1<<20), int64(4<<20), int64(64<<10))
	f.Add("alpha", "data", "big", int64(5<<20), int64(2), int64(12345), int64(1<<20), int64(4<<20), int64(64<<10))
	f.Add("u123456", "bkt-1", "../../etc/passwd", int64(1), int64(9), int64(4095), int64(4096), int64(8192), int64(4096))
	f.Add("Bad/Tenant", "data", "k", int64(100), int64(0), int64(0), int64(0), int64(0), int64(0))
	f.Add("t", "b", "", int64(0), int64(0), int64(0), int64(1), int64(1), int64(1))
	f.Fuzz(func(t *testing.T, tenant, bucket, key string, size, curSeg, curOff, partBytes, segBytes, smallMax int64) {
		cfg := LayoutConfig{partBytes: partBytes, segmentBytes: segBytes, smallMax: smallMax}
		// The key influences only the version sequence, as in the real
		// metadata tier.
		var seq uint64
		for i := 0; i < len(key); i++ {
			seq = seq*131 + uint64(key[i])
		}
		seq %= 1 << 30
		cur := SegCursor{Seg: curSeg, Off: curOff}
		lay, next, err := PlanLayout(cfg, tenant, bucket, seq, size, cur)
		if err != nil {
			if validName(tenant) && validName(bucket) && size >= 0 && curSeg >= 0 && curOff >= 0 {
				t.Fatalf("PlanLayout rejected valid input: %v", err)
			}
			return
		}
		if !validName(tenant) || !validName(bucket) || size < 0 || curSeg < 0 || curOff < 0 {
			t.Fatalf("PlanLayout accepted invalid input tenant=%q bucket=%q size=%d cur=%+v", tenant, bucket, size, cur)
		}
		norm := cfg.withDefaults()

		// Round-trip: parts tile [0, size) exactly.
		var total int64
		for _, part := range lay.Parts {
			if part.Len <= 0 {
				t.Fatalf("empty part: %+v", part)
			}
			if part.Off < 0 {
				t.Fatalf("negative offset: %+v", part)
			}
			total += part.Len
		}
		if total != size {
			t.Fatalf("parts cover %d bytes, want %d", total, size)
		}
		if size == 0 && len(lay.Parts) != 0 {
			t.Fatalf("empty object got parts: %+v", lay)
		}

		// Containment: every path confined to this tenant's bucket
		// subtree, every path a clean absolute path (no "", ".", "..").
		root := "/gateway/t/" + tenant + "/b/" + bucket + "/"
		for _, part := range lay.Parts {
			if !strings.HasPrefix(part.Path, root) {
				t.Fatalf("part %q escapes %q", part.Path, root)
			}
			for _, segm := range strings.Split(part.Path[1:], "/") {
				if segm == "" || segm == "." || segm == ".." {
					t.Fatalf("unclean path %q", part.Path)
				}
			}
		}

		if lay.Segment {
			if size == 0 || size > norm.smallMax {
				t.Fatalf("segment layout for size %d (smallMax %d)", size, norm.smallMax)
			}
			part := lay.Parts[0]
			if len(lay.Parts) != 1 {
				t.Fatalf("segment object with %d parts", len(lay.Parts))
			}
			if part.Off%segmentAlign != 0 {
				t.Fatalf("segment slice misaligned: %+v (align %d)", part, segmentAlign)
			}
			if part.Off+part.Len > norm.segmentBytes {
				t.Fatalf("slice crosses segment capacity: %+v (cap %d)", part, norm.segmentBytes)
			}
			// Cursor advances, never rewinds.
			if next.Seg < cur.Seg || (next.Seg == cur.Seg && next.Off < cur.Off) {
				t.Fatalf("cursor went backwards: %+v -> %+v", cur, next)
			}
			// A follow-up plan from the returned cursor cannot overlap
			// this slice.
			lay2, _, err := PlanLayout(cfg, tenant, bucket, seq+1, size, next)
			if err != nil {
				t.Fatalf("replan from advanced cursor: %v", err)
			}
			if lay2.Segment {
				p2 := lay2.Parts[0]
				if p2.Path == part.Path && p2.Off < part.Off+part.Len {
					t.Fatalf("successive slices overlap: %+v then %+v", part, p2)
				}
			}
		} else if size > 0 {
			if next != cur {
				t.Fatalf("part-file layout moved the cursor: %+v -> %+v", cur, next)
			}
			for i, part := range lay.Parts {
				if part.Off != 0 {
					t.Fatalf("part file slice at offset %d", part.Off)
				}
				if part.Len > norm.partBytes {
					t.Fatalf("part %d larger than split size: %d > %d", i, part.Len, norm.partBytes)
				}
				if i < len(lay.Parts)-1 && part.Len != norm.partBytes {
					t.Fatalf("non-final part %d not full size: %d", i, part.Len)
				}
			}
		}

		// Determinism: same inputs, same plan.
		lay3, next3, err3 := PlanLayout(cfg, tenant, bucket, seq, size, cur)
		if err3 != nil || !reflect.DeepEqual(lay, lay3) || next != next3 {
			t.Fatalf("replan diverged: %+v vs %+v (%v)", lay, lay3, err3)
		}
	})
}
