package textsim

// IVector is a sparse term vector: term IDs from a Lexicon (sorted
// ascending) plus their weights, with the L2 norm cached at construction.
// All inner loops (utility matrices, MMR) merge int32 IDs, so per-query
// scoring compares no strings and looks up no maps.
//
// Weights are stored raw, not pre-normalized: Cosine divides the merged
// dot product by the cached norm product. Pre-dividing each weight by the
// norm would save that one division per pair but changes floating-point
// rounding per element, breaking the bit-identity guarantee the serving
// cache and the differential tests rely on (see docs/PERFORMANCE.md). One
// division per pair is noise next to the merge.
type IVector struct {
	IDs     []int32
	Weights []float64
	norm    float64
}

// byID sorts an IVector's (ID, weight) pairs by ascending ID.
type byID IVector

func (s byID) Len() int { return len(s.IDs) }
func (s byID) Swap(i, j int) {
	s.IDs[i], s.IDs[j] = s.IDs[j], s.IDs[i]
	s.Weights[i], s.Weights[j] = s.Weights[j], s.Weights[i]
}
func (s byID) Less(i, j int) bool { return s.IDs[i] < s.IDs[j] }

// Len returns the number of non-zero components.
func (v IVector) Len() int { return len(v.IDs) }

// Norm returns the cached L2 norm.
func (v IVector) Norm() float64 { return v.norm }

// IsZero reports whether the vector has no components.
func (v IVector) IsZero() bool { return len(v.IDs) == 0 }

// Dot returns the inner product via an int32 merge join.
func (a IVector) Dot(b IVector) float64 {
	i, j := 0, 0
	dot := 0.0
	for i < len(a.IDs) && j < len(b.IDs) {
		switch {
		case a.IDs[i] == b.IDs[j]:
			dot += a.Weights[i] * b.Weights[j]
			i++
			j++
		case a.IDs[i] < b.IDs[j]:
			i++
		default:
			j++
		}
	}
	return dot
}

// Cosine returns the cosine similarity in [0,1] for non-negative weights,
// 0 against a zero vector: the merged dot product, one division by the
// norm product, then a clamp to [−1,1] against floating-point drift.
func (a IVector) Cosine(b IVector) float64 {
	if a.norm == 0 || b.norm == 0 {
		return 0
	}
	c := a.Dot(b) / (a.norm * b.norm)
	if c > 1 {
		c = 1
	}
	if c < -1 {
		c = -1
	}
	return c
}

// Distance is Equation (2): δ = 1 − cosine.
func (a IVector) Distance(b IVector) float64 { return 1 - a.Cosine(b) }
