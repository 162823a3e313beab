// Package core implements §3 of the paper: the result-diversification
// problem over query-log-mined specializations, the paper's utility
// measure (Definition 2), and the three algorithms compared in the
// evaluation — OptSelect (the paper's contribution, Algorithm 2 solving
// MaxUtility Diversify(k)), IASelect (the greedy approximation of
// Agrawal et al.'s QL Diversify(k)), and xQuAD (Santos et al.) — plus the
// classic MMR re-ranker as an additional baseline.
//
// All algorithms consume the same Problem and the same precomputed
// Utilities, so efficiency comparisons time exactly the selection logic
// the paper's Table 2 measures. A Problem's R_q′ side arrives built
// (SpecResult.IVec, or the AspectIndex built from them), and so does R_q's
// Doc.IVec for every algorithm but one: OptSelectBounded may take a vec
// func instead, the lazy door through which it asks for a candidate's
// vector only when it scores that candidate, in scratch it reuses for the
// next. The algorithms only read a Problem, and what they return is a
// SERP: each selected document's ID, Rank, Rel and score, never its
// vector.
package core

import (
	"cmp"
	"slices"
	"sync"

	"repro/internal/textsim"
)

// Doc is one candidate result d ∈ R_q.
type Doc struct {
	ID string
	// Rank is the 1-based position of d in the original ranking R_q.
	Rank int
	// Rel is P(d|q): the normalized relevance of d for q in [0,1]
	// (retrieval score divided by the maximum score of R_q).
	Rel float64
	// IVec is the vector of the document surrogate (snippet) that the
	// distance function δ compares, under Problem.Lex. The problem builder
	// sets it, except for OptSelectBounded with a vec, which never reads
	// it.
	IVec textsim.IVector
}

// SpecResult is one entry of R_q′, the result list of a specialization.
type SpecResult struct {
	ID   string
	Rank int // 1-based rank in R_q′
	// IVec is the surrogate vector of the result; see Doc.IVec. It is the
	// input form: once an AspectIndex holds the vectors (Problem.Aspects),
	// it may be empty.
	IVec textsim.IVector
}

// Specialization is one mined specialization q′ ∈ S_q with its probability
// P(q′|q) (Definition 1) and its result list R_q′.
type Specialization struct {
	Query   string
	Prob    float64 // P(q′|q); the Probs over a Problem's Specs sum to 1
	Results []SpecResult
}

// Problem is the diversification input: the ambiguous query q, its
// candidates R_q, its specializations S_q, and the paper's parameters.
type Problem struct {
	Query      string
	Candidates []Doc
	Specs      []Specialization
	// Aspects, when set, is NewAspectIndex(Specs) built while the results
	// still had their vectors: Definition 2 then reads the vectors from
	// it, and Specs' IVecs may be empty. Nil means the utilities are
	// computed from the IVecs.
	Aspects *AspectIndex
	// K is the size of the diversified result set S.
	K int
	// Lambda is the relevance/diversity mixing parameter λ ∈ [0,1] of
	// Equations (5) and (7). The paper uses λ = 0.15.
	Lambda float64
	// Threshold is the utility cutoff c of §5: utilities strictly below c
	// are forced to 0 before the algorithms run.
	Threshold float64
	// Lex is the term lexicon all IVec fields are interned under, for the
	// builder's and the reader's benefit: the algorithms never read it,
	// and vectors compare correctly only when they share it.
	Lex *textsim.Lexicon
	// Ops, when set, receives the selection algorithms' operation counts —
	// what Table 1's complexities count, and what the scaling tests fit
	// instead of wall-clock time.
	Ops *OpCount
}

// OpCount tallies the unit operations of the selection algorithms.
type OpCount struct {
	// HeapPushes: OptSelect's pushes onto M, the M_q′ and the fill heap,
	// each O(log k).
	HeapPushes int64
	// MarginalEvals: xQuAD's and IASelect's evaluations of one remaining
	// candidate against the current S, each O(|S_q|).
	MarginalEvals int64
}

// Selected is one document of the diversified set S, with the score under
// which the algorithm selected it: a SERP row. Its Doc carries ID, Rank
// and Rel; the surrogate vector stays with the caller that built it.
type Selected struct {
	Doc
	Score float64
}

// serpRow is candidate d as a SERP row under score.
func serpRow(d *Doc, score float64) Selected {
	return Selected{Doc: Doc{ID: d.ID, Rank: d.Rank, Rel: d.Rel}, Score: score}
}

// IDs extracts the document IDs of a selection, in order.
func IDs(sel []Selected) []string {
	out := make([]string, len(sel))
	for i, s := range sel {
		out[i] = s.ID
	}
	return out
}

// clampK returns the effective k: non-positive K selects nothing; K larger
// than the candidate set selects everything.
func (p *Problem) clampK() int {
	k := p.K
	if k < 0 {
		k = 0
	}
	if k > len(p.Candidates) {
		k = len(p.Candidates)
	}
	return k
}

// Baseline returns the top-k candidates of R_q in their original retrieval
// order — the "no diversification" row of Table 3. It reads only ID, Rank
// and Rel and returns only those: surrogate vectors play no part in it,
// so a caller that knows it wants the baseline need not build them, and
// gets the same SERP as one that did. A column already in Rank order (a
// retrieval's, as served) is read where it stands; any other is
// stable-sorted in a copy.
func Baseline(p *Problem) []Selected {
	k := p.clampK()
	byRank := func(a, b Doc) int { return cmp.Compare(a.Rank, b.Rank) }
	docs := p.Candidates
	if !slices.IsSortedFunc(docs, byRank) {
		docs = slices.Clone(docs)
		slices.SortStableFunc(docs, byRank)
	}
	out := make([]Selected, 0, k)
	for i := range docs[:k] {
		out = append(out, serpRow(&docs[i], docs[i].Rel))
	}
	return out
}

// Algorithm names the diversification methods of the evaluation.
type Algorithm string

// The diversification methods compared in the paper's evaluation, plus the
// no-op baseline and the classic MMR re-ranker.
const (
	AlgBaseline  Algorithm = "baseline"
	AlgOptSelect Algorithm = "optselect"
	AlgXQuAD     Algorithm = "xquad"
	AlgIASelect  Algorithm = "iaselect"
	AlgMMR       Algorithm = "mmr"
)

// Algorithms lists the selectable methods in evaluation order.
var Algorithms = []Algorithm{AlgBaseline, AlgOptSelect, AlgXQuAD, AlgIASelect, AlgMMR}

// Valid reports whether a names one of the selectable methods — the
// shared validation behind every user-facing algorithm knob (CLI flags,
// HTTP parameters).
func (a Algorithm) Valid() bool {
	for _, known := range Algorithms {
		if a == known {
			return true
		}
	}
	return false
}

// Diversify runs the named algorithm on the problem, computing utilities
// as needed. It is the high-level entry point; harnesses that time the
// algorithms precompute Utilities once and call the algorithm functions
// directly.
//
// The utility matrix lives only for the duration of the call, so it is
// drawn from a pool instead of allocated: the serving path stops paying a
// fresh n×|S_q| matrix per query. The selection algorithms read the
// matrix and copy what they keep (ID, Rank, Rel and score), never
// retaining it.
func Diversify(alg Algorithm, p *Problem) []Selected {
	switch alg {
	case AlgBaseline:
		return Baseline(p)
	case AlgMMR:
		return MMR(p)
	}
	u := utilitiesPool.Get().(*Utilities)
	defer utilitiesPool.Put(u)
	computeUtilitiesInto(p, u)
	switch alg {
	case AlgOptSelect:
		return OptSelect(p, u)
	case AlgXQuAD:
		return XQuAD(p, u)
	case AlgIASelect:
		return IASelect(p, u)
	default:
		return Baseline(p)
	}
}

var utilitiesPool = sync.Pool{New: func() any { return new(Utilities) }}
