package synth

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/textsim"
)

// ProblemSpec parameterizes the pure-algorithm problem generator behind
// the Table 2 efficiency experiment: candidate sets of size N with
// NumSpecs specializations, where each candidate is useful (positive
// utility) for at most a few specializations — the sparsity pattern real
// snippet utilities exhibit.
type ProblemSpec struct {
	Seed     int64
	N        int     // |R_q|: candidates to diversify
	K        int     // |S|: diversified result size
	NumSpecs int     // |S_q|
	PerSpec  int     // |R_q′|
	Lambda   float64 // λ (0 → paper's 0.15)
	// UsefulProb is the probability that a candidate has positive affinity
	// to any given specialization (default 0.35).
	UsefulProb float64
}

func (s ProblemSpec) withDefaults() ProblemSpec {
	if s.N == 0 {
		s.N = 1000
	}
	if s.K == 0 {
		s.K = 10
	}
	if s.NumSpecs == 0 {
		s.NumSpecs = 8
	}
	if s.PerSpec == 0 {
		s.PerSpec = 20
	}
	if s.Lambda == 0 {
		s.Lambda = 0.15
	}
	if s.UsefulProb == 0 {
		s.UsefulProb = 0.35
	}
	return s
}

// GenerateProblem builds a synthetic diversification problem whose
// candidate vectors share terms with the specialization result vectors,
// so utilities computed by core.ComputeUtilities show the sparse,
// skewed structure of the real pipeline. Candidates are assigned Zipf-
// decaying relevance, mirroring retrieval score decay. The vectors count
// raw term frequencies under a problem-local lexicon, sorted over every
// term the problem uses.
func GenerateProblem(spec ProblemSpec) *core.Problem {
	spec = spec.withDefaults()
	rng := rand.New(rand.NewSource(spec.Seed))

	// Specialization probabilities: Zipf over specs, normalized.
	z := NewZipf(spec.NumSpecs, 1.0)
	specs := make([]core.Specialization, spec.NumSpecs)
	specToks := make([][][]string, spec.NumSpecs)
	for j := range specs {
		results := make([]core.SpecResult, spec.PerSpec)
		specToks[j] = make([][]string, spec.PerSpec)
		for r := range results {
			results[r] = core.SpecResult{
				ID:   fmt.Sprintf("spec%02d-res%03d", j, r),
				Rank: r + 1,
			}
			specToks[j][r] = specTokens(j, r%4)
		}
		specs[j] = core.Specialization{
			Query:   fmt.Sprintf("query intent %02d", j),
			Prob:    z.Prob(j),
			Results: results,
		}
	}

	cands := make([]core.Doc, spec.N)
	candToks := make([][]string, spec.N)
	for i := range cands {
		if rng.Float64() < spec.UsefulProb*float64(spec.NumSpecs)/(float64(spec.NumSpecs)+1) {
			// Useful for one (occasionally two) specializations.
			j := rng.Intn(spec.NumSpecs)
			candToks[i] = candTokens(j, rng.Intn(4), rng.Intn(1000))
		} else {
			candToks[i] = []string{
				fmt.Sprintf("offtopic%05d", rng.Intn(10000)),
				fmt.Sprintf("junk%04d", rng.Intn(5000)),
			}
		}
		cands[i] = core.Doc{
			ID:   fmt.Sprintf("d%06d", i),
			Rank: i + 1,
			Rel:  1 / (1 + 0.01*float64(i)),
		}
	}

	var union []string
	for _, toks := range candToks {
		union = append(union, toks...)
	}
	for _, lists := range specToks {
		for _, toks := range lists {
			union = append(union, toks...)
		}
	}
	lex := textsim.NewSortedLexicon(union)
	for i, toks := range candToks {
		cands[i].IVec = textsim.SliceIDF{}.InternTokens(lex, toks)
	}
	for j, lists := range specToks {
		for r, toks := range lists {
			specs[j].Results[r].IVec = textsim.SliceIDF{}.InternTokens(lex, toks)
		}
	}

	return &core.Problem{
		Query:      "synthetic ambiguous query",
		Candidates: cands,
		Specs:      specs,
		K:          spec.K,
		Lambda:     spec.Lambda,
		Lex:        lex,
	}
}

// specTokens gives specialization result r its term profile; variant
// differentiates results within the spec so cosines vary.
func specTokens(j, variant int) []string {
	return []string{
		fmt.Sprintf("intent%02d", j),
		fmt.Sprintf("intent%02dvar%d", j, variant),
		"shared",
	}
}

// candTokens gives a useful candidate a profile overlapping specTokens(j).
func candTokens(j, variant, salt int) []string {
	return []string{
		fmt.Sprintf("intent%02d", j),
		fmt.Sprintf("intent%02dvar%d", j, variant),
		fmt.Sprintf("salt%04d", salt),
	}
}
