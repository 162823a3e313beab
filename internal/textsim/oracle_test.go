package textsim

import (
	"math"
	"sort"
)

// The string route: how surrogate vectors were made before IVector was the
// only representation — a term→count map, a string-sorted Vector, a
// term→IDF map, then interning under a lexicon. These are those
// implementations kept verbatim, as the oracle InternTokens and
// InternSorted are compared against bit for bit (norm included).

// Vector is a sparse term-weight vector with terms kept sorted, so that
// dot products are linear-time merge joins. Construct vectors through the
// package constructors, which also cache the L2 norm.
type Vector struct {
	Terms   []string
	Weights []float64
	norm    float64
}

// FromTokens builds a term-frequency vector from a token stream.
func FromTokens(tokens []string) Vector {
	counts := make(map[string]float64, len(tokens))
	for _, t := range tokens {
		counts[t]++
	}
	return FromCounts(counts)
}

// FromCounts builds a vector from an arbitrary term→weight map.
func FromCounts(counts map[string]float64) Vector {
	terms := make([]string, 0, len(counts))
	for t, w := range counts {
		if w != 0 {
			terms = append(terms, t)
		}
	}
	sort.Strings(terms)
	weights := make([]float64, len(terms))
	ss := 0.0
	for i, t := range terms {
		w := counts[t]
		weights[i] = w
		ss += w * w
	}
	return Vector{Terms: terms, Weights: weights, norm: math.Sqrt(ss)}
}

// Len returns the number of non-zero components.
func (v Vector) Len() int { return len(v.Terms) }

// Norm returns the cached L2 norm.
func (v Vector) Norm() float64 { return v.norm }

// IsZero reports whether the vector has no components.
func (v Vector) IsZero() bool { return len(v.Terms) == 0 }

// Weight returns the weight of term, or 0.
func (v Vector) Weight(term string) float64 {
	i := sort.SearchStrings(v.Terms, term)
	if i < len(v.Terms) && v.Terms[i] == term {
		return v.Weights[i]
	}
	return 0
}

// Dot returns the inner product of two vectors via a sorted merge.
func Dot(a, b Vector) float64 {
	i, j := 0, 0
	dot := 0.0
	for i < len(a.Terms) && j < len(b.Terms) {
		switch {
		case a.Terms[i] == b.Terms[j]:
			dot += a.Weights[i] * b.Weights[j]
			i++
			j++
		case a.Terms[i] < b.Terms[j]:
			i++
		default:
			j++
		}
	}
	return dot
}

// Cosine returns the cosine similarity of a and b in [0,1] for
// non-negative weights. The cosine with a zero vector is 0.
func Cosine(a, b Vector) float64 {
	if a.norm == 0 || b.norm == 0 {
		return 0
	}
	c := Dot(a, b) / (a.norm * b.norm)
	// Guard against floating-point drift outside [−1,1].
	if c > 1 {
		c = 1
	}
	if c < -1 {
		c = -1
	}
	return c
}

// Distance is the paper's Equation (2): δ(d1,d2) = 1 − cosine(d1,d2).
// For non-negative weight vectors it lies in [0,1], is symmetric, and is 0
// exactly when the vectors point in the same direction.
func Distance(a, b Vector) float64 { return 1 - Cosine(a, b) }

// Jaccard returns the Jaccard coefficient of the term sets of a and b
// (ignoring weights). Used by the query-flow-graph chaining features.
func Jaccard(a, b Vector) float64 {
	if len(a.Terms) == 0 && len(b.Terms) == 0 {
		return 1
	}
	i, j, inter := 0, 0, 0
	for i < len(a.Terms) && j < len(b.Terms) {
		switch {
		case a.Terms[i] == b.Terms[j]:
			inter++
			i++
			j++
		case a.Terms[i] < b.Terms[j]:
			i++
		default:
			j++
		}
	}
	union := len(a.Terms) + len(b.Terms) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

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

// Intern converts a Vector to its interned representation under lex,
// assigning IDs to unseen terms. The weights and the cached norm are
// copied bit-for-bit; when every term falls in the lexicon's sorted base
// (always true for vectors drawn from an engine-seeded lexicon), the ID
// order equals the string order and interned similarities are
// bit-identical to their string counterparts.
func Intern(lex *Lexicon, v Vector) IVector {
	ids := make([]int32, len(v.Terms))
	weights := make([]float64, len(v.Terms))
	copy(weights, v.Weights)
	sorted := true
	for i, t := range v.Terms {
		ids[i] = lex.Intern(t)
		if i > 0 && ids[i] < ids[i-1] {
			sorted = false
		}
	}
	iv := IVector{IDs: ids, Weights: weights, norm: v.norm}
	if !sorted {
		// Overflow terms broke the ID order; re-sort the pairs. The norm is
		// kept from the Vector (summation order preserved).
		sort.Sort(byID(iv))
	}
	return iv
}
