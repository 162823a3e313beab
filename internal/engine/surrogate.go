package engine

// Surrogate is one stored document surrogate: the snippet of a document
// highly relevant to some specialization.
type Surrogate struct {
	DocID   string
	Rank    int // 1-based rank in R_q′
	Snippet string
}

// SurrogateStore holds, for every known ambiguous query, the R_q′ result
// surrogates of each of its specializations — the only per-query state the
// paper's method needs at query time ("the ambiguous queries, the list of
// their possible specializations ..., the probabilities ..., and the sets
// R_q′ of documents highly relevant for each specialization", §4.1).
type SurrogateStore struct {
	// lists[ambiguousQuery][specializationQuery] = surrogates
	lists map[string]map[string][]Surrogate
}

// NewSurrogateStore returns an empty store.
func NewSurrogateStore() *SurrogateStore {
	return &SurrogateStore{lists: make(map[string]map[string][]Surrogate)}
}

// Put stores the surrogate list R_q′ for (ambiguous query q,
// specialization q′).
func (s *SurrogateStore) Put(q, spec string, surrogates []Surrogate) {
	row := s.lists[q]
	if row == nil {
		row = make(map[string][]Surrogate)
		s.lists[q] = row
	}
	row[spec] = surrogates
}

// PopulateFromEngine fills the store by querying the engine for each
// specialization of q and keeping the top perList surrogates.
func (s *SurrogateStore) PopulateFromEngine(e *Engine, q string, specs []string, perList int) {
	for _, spec := range specs {
		results := e.Search(spec, perList)
		surrogates := make([]Surrogate, len(results))
		for i, r := range results {
			surrogates[i] = Surrogate{DocID: r.DocID, Rank: r.Rank, Snippet: r.Snippet}
		}
		s.Put(q, spec, surrogates)
	}
}

// Footprint is the §4.1 memory accounting of the store.
type Footprint struct {
	AmbiguousQueries  int   // N
	MaxSpecs          int   // |S_q̂|: specializations of the widest query
	MaxListLen        int   // |R_q̂′|: longest stored surrogate list
	AvgSurrogateBytes int   // L: mean snippet length in bytes
	ActualBytes       int64 // measured: Σ snippet bytes over the store
	// BoundBytes is the paper's back-of-the-envelope upper bound
	// N·|S_q̂|·|R_q̂′|·L.
	BoundBytes int64
}

// ComputeFootprint measures the store and evaluates the paper's bound.
func (s *SurrogateStore) ComputeFootprint() Footprint {
	var f Footprint
	f.AmbiguousQueries = len(s.lists)
	var snippetBytes int64
	var snippetCount int64
	for _, row := range s.lists {
		if len(row) > f.MaxSpecs {
			f.MaxSpecs = len(row)
		}
		for _, surrogates := range row {
			if len(surrogates) > f.MaxListLen {
				f.MaxListLen = len(surrogates)
			}
			for _, sur := range surrogates {
				snippetBytes += int64(len(sur.Snippet))
				snippetCount++
			}
		}
	}
	f.ActualBytes = snippetBytes
	if snippetCount > 0 {
		f.AvgSurrogateBytes = int(snippetBytes / snippetCount)
	}
	f.BoundBytes = int64(f.AmbiguousQueries) * int64(f.MaxSpecs) *
		int64(f.MaxListLen) * int64(f.AvgSurrogateBytes)
	return f
}
