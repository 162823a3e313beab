package textsim

import (
	"sort"
	"sync"
)

// Lexicon interns term strings to dense int32 IDs so the similarity hot
// paths compare integers instead of strings. A lexicon has two regions:
//
//   - a sorted base: IDs [0, len(base)) assigned to a lexicographically
//     sorted term list at construction time, so ascending ID order equals
//     ascending string order. Vectors whose terms all come from the base
//     therefore accumulate dot products in string order — the same bits
//     under any lexicon whose base holds their terms, which is what lets
//     an engine's lexicon and a problem-local one agree (float addition
//     is order-sensitive).
//   - a dynamic overflow: terms first seen after construction get the next
//     free ID in arrival order. Overflow IDs are correct but not
//     string-ordered, so vectors touching them may accumulate dot products
//     in a different order (same mathematical value, possibly different
//     last ulp). The engine seeds its lexicon with the full index
//     dictionary, so overflow only triggers for out-of-collection text.
//
// All methods are safe for concurrent use; Intern is lock-free for base
// terms (the common case on the serving path).
type Lexicon struct {
	base map[string]int32

	mu    sync.RWMutex
	extra map[string]int32 // overflow term → ID − len(base)
}

// NewSortedLexicon builds a lexicon whose base is the given term list,
// sorted and de-duplicated here; base IDs are the positions in that sorted
// order. The input slice is not retained.
func NewSortedLexicon(terms []string) *Lexicon {
	sorted := make([]string, len(terms))
	copy(sorted, terms)
	sort.Strings(sorted)
	// De-duplicate in place.
	out := sorted[:0]
	for i, t := range sorted {
		if i == 0 || t != sorted[i-1] {
			out = append(out, t)
		}
	}
	return newBaseLexicon(out)
}

// WrapSortedTerms builds a lexicon over a term list that is already
// lexicographically sorted and duplicate-free — for callers that own such
// a list (the inverted index keeps its dictionary sorted). The slice is
// not retained.
func WrapSortedTerms(sorted []string) *Lexicon {
	return newBaseLexicon(sorted)
}

func newBaseLexicon(sorted []string) *Lexicon {
	base := make(map[string]int32, len(sorted))
	for i, t := range sorted {
		base[t] = int32(i)
	}
	return &Lexicon{base: base, extra: make(map[string]int32)}
}

// Len returns the number of interned terms.
func (l *Lexicon) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.base) + len(l.extra)
}

// SortedLen returns the size of the sorted base region: IDs below it are
// in lexicographic order.
func (l *Lexicon) SortedLen() int { return len(l.base) }

// Intern returns the ID of term, assigning the next free one if the term
// is new.
func (l *Lexicon) Intern(term string) int32 {
	if id, ok := l.base[term]; ok {
		return id
	}
	l.mu.RLock()
	id, ok := l.extra[term]
	l.mu.RUnlock()
	if ok {
		return int32(len(l.base)) + id
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if id, ok := l.extra[term]; ok {
		return int32(len(l.base)) + id
	}
	id = int32(len(l.extra))
	l.extra[term] = id
	return int32(len(l.base)) + id
}
