// Package ranking implements the document weighting models and the
// document-at-a-time query evaluator of the search-engine substrate. The
// paper's baseline retrieval (§5) is the parameter-free DPH Divergence
// From Randomness model (Amati et al., TREC 2007), as shipped in Terrier;
// BM25, TF-IDF and a Dirichlet-smoothed language model are provided for
// the base-ranker ablation called out in DESIGN.md.
package ranking

import (
	"fmt"
	"math"

	"repro/internal/index"
)

// Model scores one (term, document) match. Implementations must be
// stateless and safe for concurrent use.
type Model interface {
	// Name identifies the model in reports and benchmark output.
	Name() string
	// TermScore returns the score contribution of a term occurring tf
	// times in a document of length docLen.
	TermScore(tf, docLen float64, t index.TermStats, c index.CollectionStats) float64
	// DocAdjust returns a per-document additive adjustment applied once to
	// every matching document (qLen = number of query terms). Most models
	// return 0; the language model uses it for its length normalization.
	DocAdjust(docLen float64, qLen int, c index.CollectionStats) float64
}

// Boundable marks models whose top-k retrieval admits exact MaxScore
// dynamic pruning. An implementation promises two things:
//
//  1. TermScore is nonnegative for every input, so a per-term maximum
//     over the collection's postings (Index.ComputeMaxScores) is a valid
//     upper bound on any document's per-term contribution;
//  2. DocAdjust is identically zero, so a document's total score is
//     exactly the sum of its per-term contributions and the pruning
//     bound needs no per-document correction.
//
// DPH (clamped at 0), BM25 and TFIDF qualify; LMDirichlet does not — its
// DocAdjust is a negative, length-dependent log-likelihood mass, so it
// keeps the exhaustive path. InstallMaxScores additionally probes the
// DocAdjust contract at install time as a tripwire against future
// implementations that claim the capability without honoring it.
type Boundable interface {
	Model
	// BoundKey identifies the scoring function — name plus every
	// parameter that changes scores — for max-score table lookup and
	// persistence. Two models with equal BoundKeys must score every
	// posting identically.
	BoundKey() string
}

// PrecomputableModels lists the registered boundable models whose
// max-score tables engine builds compute and persist up front (the
// default-parameter family; a non-default model is added on top when it
// is the engine's configured model).
func PrecomputableModels() []Model { return []Model{DPH{}, BM25{}, TFIDF{}} }

const log2e = 1.4426950408889634 // 1/ln(2)

func log2(x float64) float64 { return math.Log(x) * log2e }

// DPH is the hypergeometric DFR model with Popper normalization, the
// parameter-free model used as the paper's retrieval baseline:
//
//	f     = tf/l
//	norm  = (1-f)² / (tf+1)
//	score = norm · ( tf·log₂( tf·(avg_l/l)·(N/CF) ) + 0.5·log₂(2π·tf·(1-f)) )
//
// Negative per-term contributions (possible for terms more frequent in the
// document than the collection model expects) are clamped to 0, matching
// the behaviour of the additive DAAT accumulator.
type DPH struct{}

// Name implements Model.
func (DPH) Name() string { return "DPH" }

// TermScore implements Model.
func (DPH) TermScore(tf, docLen float64, t index.TermStats, c index.CollectionStats) float64 {
	if tf <= 0 || docLen <= 0 || t.CF <= 0 || c.NumDocs == 0 {
		return 0
	}
	f := tf / docLen
	if f >= 1 {
		// Degenerate one-term document: the Popper normalization (1-f)²
		// vanishes.
		return 0
	}
	norm := (1 - f) * (1 - f) / (tf + 1)
	arg := tf * (c.AvgDocLen / docLen) * (float64(c.NumDocs) / float64(t.CF))
	if arg <= 0 {
		return 0
	}
	score := norm * (tf*log2(arg) + 0.5*log2(2*math.Pi*tf*(1-f)))
	if score < 0 {
		return 0
	}
	return score
}

// DocAdjust implements Model.
func (DPH) DocAdjust(docLen float64, qLen int, c index.CollectionStats) float64 { return 0 }

// BoundKey implements Boundable: DPH is parameter-free.
func (DPH) BoundKey() string { return "DPH" }

// BM25 is the Okapi BM25 model with the conventional k1/b parameters.
type BM25 struct {
	K1 float64 // term-frequency saturation; 0 means the default 1.2
	B  float64 // length normalization; 0 means the default 0.75
}

// Name implements Model.
func (BM25) Name() string { return "BM25" }

// TermScore implements Model.
func (m BM25) TermScore(tf, docLen float64, t index.TermStats, c index.CollectionStats) float64 {
	if tf <= 0 || t.DF <= 0 {
		return 0
	}
	k1, b := m.K1, m.B
	if k1 == 0 {
		k1 = 1.2
	}
	if b == 0 {
		b = 0.75
	}
	n := float64(c.NumDocs)
	df := float64(t.DF)
	idf := math.Log(1 + (n-df+0.5)/(df+0.5))
	denom := tf + k1*(1-b+b*docLen/math.Max(c.AvgDocLen, 1e-9))
	return idf * tf * (k1 + 1) / denom
}

// DocAdjust implements Model.
func (BM25) DocAdjust(docLen float64, qLen int, c index.CollectionStats) float64 { return 0 }

// BoundKey implements Boundable, folding in the effective k1/b so tables
// computed under one parameterization are never used under another.
func (m BM25) BoundKey() string {
	k1, b := m.K1, m.B
	if k1 == 0 {
		k1 = 1.2
	}
	if b == 0 {
		b = 0.75
	}
	return fmt.Sprintf("BM25(k1=%g,b=%g)", k1, b)
}

// TFIDF is the classic log-smoothed TF-IDF weighting with cosine-free
// additive accumulation: (1+ln tf) · ln(1 + N/df).
type TFIDF struct{}

// Name implements Model.
func (TFIDF) Name() string { return "TFIDF" }

// TermScore implements Model.
func (TFIDF) TermScore(tf, docLen float64, t index.TermStats, c index.CollectionStats) float64 {
	if tf <= 0 || t.DF <= 0 {
		return 0
	}
	return (1 + math.Log(tf)) * math.Log(1+float64(c.NumDocs)/float64(t.DF))
}

// DocAdjust implements Model.
func (TFIDF) DocAdjust(docLen float64, qLen int, c index.CollectionStats) float64 { return 0 }

// BoundKey implements Boundable: TFIDF is parameter-free.
func (TFIDF) BoundKey() string { return "TFIDF" }

// LMDirichlet is the query-likelihood language model with Dirichlet
// smoothing, in the rank-equivalent "delta" form suited to additive
// accumulators:
//
//	score(d) = Σ_t log(1 + tf/(μ·P(t|C))) + |q|·log(μ/(μ+l))
type LMDirichlet struct {
	Mu float64 // smoothing mass; 0 means the default 2000
}

// Name implements Model.
func (LMDirichlet) Name() string { return "LMDirichlet" }

func (m LMDirichlet) mu() float64 {
	if m.Mu == 0 {
		return 2000
	}
	return m.Mu
}

// TermScore implements Model.
func (m LMDirichlet) TermScore(tf, docLen float64, t index.TermStats, c index.CollectionStats) float64 {
	if tf <= 0 || t.CF <= 0 || c.TotalTokens == 0 {
		return 0
	}
	pc := float64(t.CF) / float64(c.TotalTokens)
	return math.Log(1 + tf/(m.mu()*pc))
}

// DocAdjust implements Model.
func (m LMDirichlet) DocAdjust(docLen float64, qLen int, c index.CollectionStats) float64 {
	mu := m.mu()
	return float64(qLen) * math.Log(mu/(mu+docLen))
}
