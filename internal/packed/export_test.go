package packed

// Hooks for the external tests of this package.

// OverlayRows returns how many rows the store's overlay keeps.
func (s *Store) OverlayRows() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.overlay)
}

// Published returns the store's table, nil while it is lazy.
func (s *Store) Published() *Table { return s.table() }

// RAMBytes returns the entry bytes a RAM table serves from, nil for a
// table over another backing.
func (t *Table) RAMBytes() Bytes {
	b, _ := t.pages.(Bytes)
	return b
}
