package store

// HashedEntries returns how many of s's entries hold an entity tag: those
// a reader has asked for since they were installed.
func HashedEntries(s *Store) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, e := range s.eng.entries {
		if e.tag.Load() != nil {
			n++
		}
	}
	return n
}
