package textsim

import (
	"math"
	"sort"
)

// IDF maps terms to inverse-document-frequency weights. It turns raw
// term-frequency vectors into TF-IDF vectors, the weighting we use for the
// snippet surrogates on which the paper's utility function operates
// (cosine over raw TF over-weights boilerplate terms shared by all
// snippets of a result page).
type IDF map[string]float64

// ComputeIDF derives smoothed IDF weights idf(t) = ln(1 + N/df(t)) from
// per-term document frequencies over a collection of numDocs documents.
func ComputeIDF(docFreq map[string]int, numDocs int) IDF {
	idf := make(IDF, len(docFreq))
	n := float64(numDocs)
	for t, df := range docFreq {
		if df <= 0 {
			continue
		}
		idf[t] = math.Log(1 + n/float64(df))
	}
	return idf
}

// ComputeIDFFromVectors counts document frequencies over the given vectors
// and returns the corresponding IDF table.
func ComputeIDFFromVectors(docs []Vector) IDF {
	df := make(map[string]int)
	for _, d := range docs {
		for _, t := range d.Terms {
			df[t]++
		}
	}
	return ComputeIDF(df, len(docs))
}

// DocFreqSource is the slice of an inverted index the ID-based IDF
// computation needs: the dictionary size, the collection size, and the
// per-term document frequency by internal term number. *index.Index
// satisfies it.
type DocFreqSource interface {
	NumTerms() int
	NumDocs() int
	DF(id int32) int
}

// SliceIDF is the ID-indexed twin of IDF: one weight per dictionary term,
// indexed by term number. Where the map-based path materializes a
// term→df map (one allocation per dictionary entry) just to throw it away
// after the IDF table is built, SliceIDF is computed by a single walk of
// the dictionary into one flat []float64 — zero map allocation — and
// weight lookups during Apply are an array index for every in-collection
// term. Results are bit-identical to the map path: same ln(1+N/df)
// weights, same "unknown term weighs 1" rule, same accumulation order
// (vectors keep their terms sorted).
type SliceIDF struct {
	lex     *Lexicon
	weights []float64
}

// ComputeIDFFromIndex walks src's dictionary once and returns the
// ID-indexed IDF table. lex must be the lexicon whose sorted base IS the
// dictionary (the engine seeds it with WrapSortedTerms(idx.Terms())), so
// a base lexicon ID and a dictionary term number agree; overflow IDs —
// out-of-collection terms — fall outside the weight slice and weigh 1,
// exactly like the map path's missing entries.
func ComputeIDFFromIndex(src DocFreqSource, lex *Lexicon) SliceIDF {
	n := float64(src.NumDocs())
	weights := make([]float64, src.NumTerms())
	for id := range weights {
		if df := src.DF(int32(id)); df > 0 {
			weights[id] = math.Log(1 + n/float64(df))
		}
	}
	return SliceIDF{lex: lex, weights: weights}
}

// Apply reweights v by IDF exactly as IDF.Apply does (unknown terms get
// weight 1), without building the intermediate counts map: v's terms are
// already sorted and unique, so the reweighted vector and its norm are
// assembled in one ordered pass — the same order FromCounts uses, keeping
// the floats bit-identical to the map path.
func (s SliceIDF) Apply(v Vector) Vector {
	terms := make([]string, 0, len(v.Terms))
	weights := make([]float64, 0, len(v.Terms))
	ss := 0.0
	for i, t := range v.Terms {
		w := 1.0
		if id, ok := s.lex.ID(t); ok && int(id) < len(s.weights) && s.weights[id] != 0 {
			w = s.weights[id]
		}
		nw := v.Weights[i] * w
		if nw == 0 {
			continue // FromCounts drops zero components; match it
		}
		terms = append(terms, t)
		weights = append(weights, nw)
		ss += nw * nw
	}
	return Vector{Terms: terms, Weights: weights, norm: math.Sqrt(ss)}
}

// InternSorted builds the IDF-weighted interned vector of a bag of terms
// given by number: terms holds one entry per occurrence, ascending, in a
// numbering whose order is the terms' string order (an index dictionary's
// term numbers), and xlat maps that numbering to this table's lexicon IDs
// (nil when the two are the same numbering). The result is bit-identical
// to Intern(lex, s.Apply(FromTokens(tokens))) over the same occurrences:
// counts become weights and the norm accumulates in string order exactly
// as Apply does, and the pairs are re-sorted by ID afterwards only when
// xlat broke the order (lexicon overflow IDs are in arrival order).
func (s SliceIDF) InternSorted(terms, xlat []int32) IVector {
	uniq := 0
	for i, t := range terms {
		if i == 0 || t != terms[i-1] {
			uniq++
		}
	}
	iv := IVector{IDs: make([]int32, 0, uniq), Weights: make([]float64, 0, uniq)}
	ss := 0.0
	sorted := true
	for i := 0; i < len(terms); {
		j := i + 1
		for j < len(terms) && terms[j] == terms[i] {
			j++
		}
		id := terms[i]
		if xlat != nil {
			id = xlat[id]
		}
		w := 1.0
		if int(id) < len(s.weights) && s.weights[id] != 0 {
			w = s.weights[id]
		}
		nw := float64(j-i) * w
		i = j
		if nw == 0 {
			continue
		}
		if n := len(iv.IDs); n > 0 && id < iv.IDs[n-1] {
			sorted = false
		}
		iv.IDs = append(iv.IDs, id)
		iv.Weights = append(iv.Weights, nw)
		ss += nw * nw
	}
	iv.norm = math.Sqrt(ss)
	if !sorted {
		sort.Sort(byID(iv))
	}
	return iv
}

// Apply reweights v by IDF (unknown terms get weight idf=1) and returns a
// new vector with a recomputed norm.
func (idf IDF) Apply(v Vector) Vector {
	counts := make(map[string]float64, len(v.Terms))
	for i, t := range v.Terms {
		w := idf[t]
		if w == 0 {
			w = 1
		}
		counts[t] = v.Weights[i] * w
	}
	return FromCounts(counts)
}
