package sim

// Spare is a LIFO list of the records its one owner, an object of one
// kernel, is done with, for the owner's next use to take (DESIGN §22): Get
// hands out the record put back last. Built with the tag noreuse, Get hands
// out nothing and Put drops the record, which is the program without
// recycling; the two builds must run byte for byte alike.
type Spare[T any] struct{ list []T }

// Get returns the record put back last, or reports false if there is none.
func (s *Spare[T]) Get() (t T, ok bool) {
	n := len(s.list) - 1
	if noReuse || n < 0 {
		return t, false
	}
	t, s.list[n] = s.list[n], t // the slot keeps no reference
	s.list = s.list[:n]
	return t, true
}

// Put puts t back for a later Get.
func (s *Spare[T]) Put(t T) {
	if !noReuse {
		s.list = append(s.list, t)
	}
}

// Len reports how many records are on the list.
func (s *Spare[T]) Len() int { return len(s.list) }

// Trim keeps the n records put back first and drops the others.
func (s *Spare[T]) Trim(n int) {
	if n = max(n, 0); n < len(s.list) {
		clear(s.list[n:])
		s.list = s.list[:n]
	}
}
