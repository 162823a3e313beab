package textsim

import (
	"math"
	"slices"
	"sort"
)

// DocFreqSource is the slice of an inverted index the IDF computation
// needs: the dictionary size, the collection size, and the per-term
// document frequency by internal term number. *index.Index satisfies it.
type DocFreqSource interface {
	NumTerms() int
	NumDocs() int
	DF(id int32) int
}

// SliceIDF holds the inverse-document-frequency weights of a dictionary,
// one per term number: the TF-IDF weighting of the snippet surrogates on
// which the paper's utility function operates (cosine over raw TF
// over-weights boilerplate terms shared by all snippets of a result page).
// Weights are read by lexicon ID, so the lexicon a vector is counted
// under must have the dictionary as its sorted base (the engine wraps
// idx.Terms()); an ID outside the table — an out-of-collection term — or a
// term with df 0 weighs 1. The zero SliceIDF weighs every term 1: raw term
// frequencies.
type SliceIDF struct {
	weights []float64
}

// ComputeIDFFromIndex walks src's dictionary once and returns its smoothed
// IDF weights idf(t) = ln(1 + N/df(t)).
func ComputeIDFFromIndex(src DocFreqSource) SliceIDF {
	n := float64(src.NumDocs())
	weights := make([]float64, src.NumTerms())
	for id := range weights {
		if df := src.DF(int32(id)); df > 0 {
			weights[id] = math.Log(1 + n/float64(df))
		}
	}
	return SliceIDF{weights: weights}
}

// InternTokens builds the IDF-weighted vector of a bag of analyzed tokens
// (a snippet's text) under lex: it sorts a copy of the tokens, numbers
// each distinct one by lex.Intern in string order, and counts the runs
// with InternSorted through that numbering. A text and a forward-index
// window holding the same terms therefore get the same vector, bit for
// bit.
func (s SliceIDF) InternTokens(lex *Lexicon, tokens []string) IVector {
	sorted := slices.Clone(tokens)
	slices.Sort(sorted)
	terms := make([]int32, len(sorted))
	var xlat []int32
	for i, t := range sorted {
		if i == 0 || t != sorted[i-1] {
			xlat = append(xlat, lex.Intern(t))
		}
		terms[i] = int32(len(xlat) - 1)
	}
	return s.InternSorted(terms, xlat, nil)
}

// InternSorted builds the IDF-weighted vector of a bag of terms given by
// number: terms holds one entry per occurrence, ascending, in a numbering
// whose order is the terms' string order (an index dictionary's term
// numbers), and xlat maps that numbering to lexicon IDs (nil when the two
// are the same numbering). A term's weight is its count times its IDF,
// zero weights are dropped, and the norm accumulates over the terms in
// string order; the pairs are re-sorted by ID afterwards only when xlat
// broke the order (lexicon overflow IDs are in arrival order). These are
// the bits of the string route — a term→count map, IDF applied by term,
// then interned — which the package's tests keep as the oracle.
//
// The vector's two slices are carved out of slab — which sets aside
// len(terms) entries, a bound on the distinct terms, and keeps only what
// was filled — or allocated at their exact size when slab is nil; the
// vector is the same either way.
func (s SliceIDF) InternSorted(terms, xlat []int32, slab *Slab) IVector {
	carved := slab != nil && len(terms) > 0
	var iv IVector
	if carved {
		iv.IDs, iv.Weights = slab.carve(len(terms))
	} else {
		uniq := 0
		for i, t := range terms {
			if i == 0 || t != terms[i-1] {
				uniq++
			}
		}
		iv = IVector{IDs: make([]int32, 0, uniq), Weights: make([]float64, 0, uniq)}
	}
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
	if carved {
		slab.keep(&iv)
	}
	return iv
}

// slabMin is the size, in vector entries, of a Slab's first chunk.
const slabMin = 256

// Slab is the storage InternSorted carves vectors out of: a few chunks,
// each twice the size of the one before (the first slabMin entries),
// instead of two allocations per vector. A carved vector's slices have
// cap == len, so appending to one never writes into its neighbour. Who
// holds the slab decides how long its vectors live: a caller that keeps
// them (a request's candidates, an artifact's result lists) carves into
// a slab of its own and never resets it, and they stay valid for as long
// as they are referenced; a caller that reads each vector once and drops
// it (the bounded selection, candidate by candidate) may Reset the slab
// between them and reuse it, pooled or not. The zero Slab is ready to
// use. Not safe for concurrent use.
type Slab struct {
	ids     []int32
	weights []float64
}

// Reset rewinds the slab to the start of its current chunk, so the next
// vectors are carved over the ones before: call it only once no vector
// carved from the slab will be read again.
func (s *Slab) Reset() {
	s.ids, s.weights = s.ids[:0], s.weights[:0]
}

// carve returns the free end of the current chunk, empty, once it has room
// for n entries, starting a new chunk when it has less than n left.
func (s *Slab) carve(n int) ([]int32, []float64) {
	if cap(s.ids)-len(s.ids) < n {
		size := max(slabMin, 2*cap(s.ids), n)
		s.ids, s.weights = make([]int32, 0, size), make([]float64, 0, size)
	}
	return s.ids[len(s.ids):], s.weights[len(s.weights):]
}

// keep marks the entries iv was filled with at the free end as used, and
// cuts iv to cap == len.
func (s *Slab) keep(iv *IVector) {
	n := len(iv.IDs)
	iv.IDs, iv.Weights = iv.IDs[:n:n], iv.Weights[:n:n]
	s.ids, s.weights = s.ids[:len(s.ids)+n], s.weights[:len(s.weights)+n]
}
