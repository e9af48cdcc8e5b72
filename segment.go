package kqr

import (
	"fmt"
	"strings"

	"kqr/internal/textindex"
)

// SegmentQuery splits a raw query into terms the data actually contains,
// resolving multi-word units without requiring quotes: at each position
// it takes the longest word sequence that matches a known term — an
// atomic value such as an author name, or an indexed phrase — and falls
// back to the single word otherwise (Definition 2: each keyword "is a
// word or a topical phrase, depending on the tokenization/segmentation").
//
//	eng.SegmentQuery("wei zhang skyline")   // → ["wei zhang", "skyline"]
//
// Explicit quotes are still honored and exempt a span from re-analysis.
// Words unknown to the data are kept as single terms; Reformulate will
// report them if they resolve nowhere.
func (e *Engine) SegmentQuery(query string) ([]string, error) {
	units, err := ParseQuery(query)
	if err != nil {
		return nil, err
	}
	// maxSpan bounds the lookahead; names and phrases in the graph are
	// short.
	const maxSpan = 4
	// Re-analyze runs of single words for multi-word matches; a unit
	// with a space in it was quoted explicitly and is kept as is.
	tg := e.cur().TG
	result := make([]string, 0, len(units))
	i := 0
	for i < len(units) {
		if strings.ContainsRune(units[i], ' ') {
			result = append(result, units[i])
			i++
			continue
		}
		matched := 1
		for span := maxSpan; span > 1; span-- {
			if i+span > len(units) {
				continue
			}
			joinable := true
			for _, w := range units[i : i+span] {
				if strings.ContainsRune(w, ' ') {
					joinable = false
					break
				}
			}
			if !joinable {
				continue
			}
			candidate := textindex.Normalize(strings.Join(units[i:i+span], " "))
			if len(tg.FindTerm(candidate)) > 0 {
				result = append(result, candidate)
				matched = span
				break
			}
		}
		if matched == 1 {
			result = append(result, units[i])
		}
		i += matched
	}
	if len(result) == 0 {
		return nil, fmt.Errorf("kqr: query %q segmented to nothing", query)
	}
	return result, nil
}

// ReformulateSegmented segments the raw query against the data and
// reformulates it — the convenience entry point for free-form input.
func (e *Engine) ReformulateSegmented(query string, k int) ([]Suggestion, error) {
	terms, err := e.SegmentQuery(query)
	if err != nil {
		return nil, err
	}
	return e.Reformulate(terms, k)
}
