// Package textsim implements the document-similarity substrate of the
// paper's utility function (Definition 2): sparse term vectors over
// document surrogates (snippets), cosine similarity, and the distance
// function δ(d1,d2) = 1 − cosine(d1,d2) of Equation (2). δ is
// non-negative, symmetric and zero only for identical vectors — the
// properties §3.1 requires of the distance.
//
// A surrogate vector is an IVector: term IDs from a Lexicon with their
// TF-IDF weights. SliceIDF.InternSorted is the one routine that counts
// one, from a bag of term numbers (a forward-index window); InternTokens
// feeds it a bag of analyzed tokens (a snippet's text).
package textsim

// JaccardTokens returns the Jaccard coefficient of the term sets of two
// token slices (building the sets inline). Used by the query-flow-graph
// chaining features.
func JaccardTokens(a, b []string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	set := make(map[string]bool, len(a))
	for _, t := range a {
		set[t] = true
	}
	inter := 0
	seen := make(map[string]bool, len(b))
	for _, t := range b {
		if seen[t] {
			continue
		}
		seen[t] = true
		if set[t] {
			inter++
		}
	}
	union := len(set) + len(seen) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}
