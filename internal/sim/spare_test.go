package sim

import "testing"

// A Spare hands its records out last in, first out; Trim keeps the ones put
// back first; an empty list hands out nothing. In the twin build (tag
// noreuse) Get never hands out a record that was Put.
func TestSpare(t *testing.T) {
	var s Spare[*int]
	if r, ok := s.Get(); ok || r != nil {
		t.Fatalf("Get on an empty list = %v, %v", r, ok)
	}
	recs := []*int{new(int), new(int), new(int), new(int), new(int)}
	for _, r := range recs {
		s.Put(r)
	}
	if noReuse {
		if r, ok := s.Get(); ok || r != nil || s.Len() != 0 {
			t.Fatalf("twin build: Get after Put = %v, %v with %d on the list", r, ok, s.Len())
		}
		return
	}
	s.Trim(len(recs)) // no more than it holds: keeps them all
	if s.Len() != len(recs) {
		t.Fatalf("Trim(%d) of %d left %d", len(recs), len(recs), s.Len())
	}
	s.Trim(3)
	if s.Len() != 3 {
		t.Fatalf("Trim(3) of %d left %d", len(recs), s.Len())
	}
	for i := 2; i >= 0; i-- {
		if r, ok := s.Get(); !ok || r != recs[i] {
			t.Fatalf("Get = %p, %v, want record %d (%p)", r, ok, i, recs[i])
		}
	}
	if r, ok := s.Get(); ok || r != nil {
		t.Fatalf("Get on a drained list = %v, %v", r, ok)
	}
	s.Put(recs[4])
	s.Trim(-1)
	if s.Len() != 0 {
		t.Fatalf("Trim(-1) left %d", s.Len())
	}
}
