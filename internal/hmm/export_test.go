package hmm

// Hooks for the external tests of this package.

// OnSearchFallback makes f the function told each time a lazy search
// hands over to the exact one, and returns a function that restores the
// previous one.
func OnSearchFallback(f func(yielded int)) (restore func()) {
	old := searchFallback
	searchFallback = f
	return func() { searchFallback = old }
}
