// Package exec is the query-execution-plan layer: it names the stages of
// the per-query path — retrieval, candidate materialization, utility
// scoring, diversification — and lets callers choose how they compose.
//
// Two plans exist. The staged plan is the original call chain
// (ranking.Retrieve → candidate materialization → core.ComputeUtilities →
// core.Diversify), each stage a separate pass over the candidate set. The
// fused plan collapses them into one: the engine runs a single Block-Max
// MaxScore scan and, as each hit is materialized into its snippet
// surrogate, streams it through the utility scorer straight into the
// per-specialization bounded heaps of Algorithm 2 (FusedState) — so an
// ambiguous query produces its diversified SERP from one pass over the
// collection, with no intermediate result list, snippet strings, or
// second tokenization.
//
// Both plans share the same operator state (core.UtilityScorer,
// core.OptSelectHeaps, topk.Bounded) and the same float kernels, which is
// what makes their outputs bit-identical — the invariant the fused
// differential sweep enforces. The package deliberately does not import
// the engine: the engine implements the fused scan and depends on these
// types, while the facade selects between plans per query.
package exec

import (
	"errors"

	"repro/internal/core"
	"repro/internal/textsim"
)

// Mode selects the execution plan for a query.
type Mode int

const (
	// ModeStaged is the default plan: retrieval, materialization, utility
	// scoring and selection run as separate stages.
	ModeStaged Mode = iota
	// ModeFused collapses the stages into the single retrieval scan.
	ModeFused
)

// String names the mode for logs and /stats.
func (m Mode) String() string {
	if m == ModeFused {
		return "fused"
	}
	return "staged"
}

// ErrNotFusable reports that the engine cannot run the fused plan for this
// query — the snapshot is not quiescent (pending mutations require the
// shadowed-copy filtering of the staged path). Callers fall back to the
// staged plan; results are identical either way.
var ErrNotFusable = errors.New("exec: snapshot not fusable (pending mutations); use the staged plan")

// Plan is one query's execution plan: the stage parameters the facade
// resolves from its configuration plus the cached per-query artifacts
// (the R_q′ aspect lists). A nil *Plan means the staged default.
type Plan struct {
	// Mode selects staged or fused execution.
	Mode Mode
	// Query is the (normalized) query string of the main scan.
	Query string
	// Alg is the diversification algorithm of the selection stage.
	Alg core.Algorithm
	// K is the diversified result size (already resolved: a per-request
	// override or the pipeline default).
	K int
	// NumCandidates is |R_q|, the top-k of the main scan.
	NumCandidates int
	// Lambda and Threshold are the paper's λ and c parameters.
	Lambda    float64
	Threshold float64
	// Aspects are the specializations S_q with their cached R_q′ surrogate
	// lists, pre-interned under Lex. The fused operator seeds one bounded
	// heap per aspect from these.
	Aspects []core.Specialization
	// Lex is the lexicon the aspect vectors are interned under. The engine
	// substitutes its snapshot's lexicon when running the plan, which is
	// the same object for a quiescent engine.
	Lex *textsim.Lexicon
}

// Fused reports whether p selects the fused plan.
func (p *Plan) Fused() bool { return p != nil && p.Mode == ModeFused }

// RelNormalizer maps raw retrieval scores onto P(d|q) ∈ [0,1] — "the
// likelihood of document d being observed given q" (§3.1.2), derived from
// the retrieval score max-normalized over R_q. Models whose totals can go
// negative (LMDirichlet log-likelihoods) are shifted by the minimum score
// before normalizing, so Rel lands in [0,1] with rank order preserved.
// Shared by the staged materializer and the fused scan so the two plans
// normalize through literally the same code.
//
// Because the mapping needs the min and max of the FULL score column,
// every hit must be Observed before the first Rel call — this is the
// structural reason per-aspect thresholds cannot feed back into the main
// scan's block skipping (see the execution-plan notes in
// docs/ARCHITECTURE.md).
//
// It is also why a shorter column is not always the same column cut short.
// On the min >= 0 branch Rel is score/max, and the maximum is the first
// hit of a list of any depth, so the top k normalize alike whether 10 or
// 500 were retrieved: the serving route retrieves a baseline SERP only k
// deep under the models that promise non-negative scores
// (ranking.Boundable). On the shifted branch the minimum is the LAST hit,
// so depth changes every Rel, and such a model keeps the full depth.
type RelNormalizer struct {
	min, max float64
	seen     bool
}

// Observe folds one retrieval score into the normalizer's range.
func (rn *RelNormalizer) Observe(score float64) {
	if !rn.seen {
		rn.min, rn.max = score, score
		rn.seen = true
		return
	}
	if score > rn.max {
		rn.max = score
	}
	if score < rn.min {
		rn.min = score
	}
}

// Rel maps one observed score onto P(d|q).
func (rn *RelNormalizer) Rel(score float64) float64 {
	switch {
	case rn.min >= 0:
		if rn.max > 0 {
			return score / rn.max
		}
		return 0
	case rn.max > rn.min:
		return (score - rn.min) / (rn.max - rn.min)
	default:
		// Every score equal and negative: equally relevant.
		return 1
	}
}
