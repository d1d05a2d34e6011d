package gateway

import (
	"reflect"
	"strings"
	"testing"
)

func TestPlanLayoutPartSplit(t *testing.T) {
	cfg := LayoutConfig{partBytes: 1 << 20, classes: []string{"", "bulk"}}
	lay, cur, err := PlanLayout(cfg, "alpha", "data", 7, (5<<20)+123, SegCursor{})
	if err != nil {
		t.Fatalf("PlanLayout: %v", err)
	}
	if lay.Segment {
		t.Fatalf("large object marked segment")
	}
	if len(lay.Parts) != 6 {
		t.Fatalf("parts = %d, want 6", len(lay.Parts))
	}
	var total int64
	for i, part := range lay.Parts {
		total += part.Len
		if i < 5 && part.Len != 1<<20 {
			t.Fatalf("part %d len %d, want full split size", i, part.Len)
		}
		if part.Off != 0 {
			t.Fatalf("part file slice at nonzero offset: %+v", part)
		}
		if wantClass := []string{"", "bulk"}[i%2]; part.Class != wantClass {
			t.Fatalf("part %d class %q, want %q (striping)", i, part.Class, wantClass)
		}
		if !strings.HasPrefix(part.Path, "/gateway/t/alpha/b/data/p/") {
			t.Fatalf("part path %q outside bucket subtree", part.Path)
		}
	}
	if total != (5<<20)+123 {
		t.Fatalf("parts tile %d bytes, want %d", total, (5<<20)+123)
	}
	if cur != (SegCursor{}) {
		t.Fatalf("large object moved the segment cursor: %+v", cur)
	}
	// Distinct seqs → distinct part paths (no version ever collides).
	lay2, _, _ := PlanLayout(cfg, "alpha", "data", 8, 1<<21, SegCursor{})
	for _, a := range lay.Parts {
		for _, b := range lay2.Parts {
			if a.Path == b.Path {
				t.Fatalf("versions share a part file: %q", a.Path)
			}
		}
	}
}

func TestPlanLayoutSegmentAggregation(t *testing.T) {
	cfg := LayoutConfig{segmentBytes: 256 << 10, smallMax: 64 << 10}
	cur := SegCursor{}
	var prevEnd int64
	var prevSeg int64
	for i := uint64(0); i < 50; i++ {
		size := int64(3000 + 700*int64(i%5))
		lay, next, err := PlanLayout(cfg, "alpha", "data", i, size, cur)
		if err != nil {
			t.Fatalf("PlanLayout: %v", err)
		}
		if !lay.Segment || len(lay.Parts) != 1 {
			t.Fatalf("small object layout: %+v", lay)
		}
		part := lay.Parts[0]
		if part.Off%4096 != 0 {
			t.Fatalf("slice misaligned: %+v", part)
		}
		if part.Off+part.Len > 256<<10 {
			t.Fatalf("slice crosses segment capacity: %+v", part)
		}
		seg := segOf(t, part.Path)
		if seg == prevSeg && part.Off < prevEnd {
			t.Fatalf("slice overlaps predecessor: off %d < prev end %d", part.Off, prevEnd)
		}
		if seg < prevSeg {
			t.Fatalf("segment number went backwards: %d -> %d", prevSeg, seg)
		}
		prevSeg, prevEnd = seg, part.Off+part.Len
		cur = next
	}
	if cur.Seg == 0 {
		t.Fatalf("50 × ~4KiB-aligned slices fit one 256KiB segment — cursor never rolled")
	}
}

func segOf(t *testing.T, path string) int64 {
	t.Helper()
	i := strings.LastIndex(path, "/")
	var seg int64
	for _, c := range path[i+1:] {
		seg = seg*10 + int64(c-'0')
	}
	return seg
}

func TestPlanLayoutDeterministicAndValidates(t *testing.T) {
	cfg := LayoutConfig{}
	a1, c1, err1 := PlanLayout(cfg, "alpha", "data", 3, 12345, SegCursor{Seg: 2, Off: 777})
	a2, c2, err2 := PlanLayout(cfg, "alpha", "data", 3, 12345, SegCursor{Seg: 2, Off: 777})
	if err1 != nil || err2 != nil || !reflect.DeepEqual(a1, a2) || c1 != c2 {
		t.Fatalf("PlanLayout not deterministic: %+v/%v vs %+v/%v", a1, err1, a2, err2)
	}
	for _, bad := range [][2]string{
		{"", "data"}, {"alpha", ""}, {"Al", "data"}, {"alpha", "a/b"},
		{"..", "data"}, {"alpha", ".."}, {"-x", "data"}, {"alpha", ".hidden"},
	} {
		if _, _, err := PlanLayout(cfg, bad[0], bad[1], 1, 100, SegCursor{}); err == nil {
			t.Fatalf("PlanLayout accepted tenant=%q bucket=%q", bad[0], bad[1])
		}
	}
	if _, _, err := PlanLayout(cfg, "alpha", "data", 1, -1, SegCursor{}); err == nil {
		t.Fatalf("PlanLayout accepted negative size")
	}
	if _, _, err := PlanLayout(cfg, "alpha", "data", 1, 100, SegCursor{Seg: -1}); err == nil {
		t.Fatalf("PlanLayout accepted negative cursor")
	}
}
