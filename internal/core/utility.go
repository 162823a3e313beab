package core

import (
	"sync"

	"repro/internal/textsim"
)

// Utilities holds the precomputed normalized utilities of Definition 2 and
// the overall per-document scores of Equation (9). Building it costs
// O(n·|S_q|·|R_q′|) vector operations; every algorithm then reads it in
// O(1) per (document, specialization) pair — mirroring the paper's setup,
// where utilities come from snippet similarity and the timed algorithms
// operate on them.
type Utilities struct {
	// U[i][j] = Ũ(candidate i | R_q′ of specialization j) ∈ [0,1], already
	// thresholded: values below Problem.Threshold are 0.
	U [][]float64
	// Overall[i] = Ũ(d_i|q) per Equation (9):
	// Σ_j [(1−λ)·P(d|q) + λ·P(q′_j|q)·U[i][j]].
	Overall []float64

	// flat backs the U rows, so the whole matrix is one allocation and the
	// struct can be pooled (Diversify reuses matrices across queries).
	flat []float64
}

// ComputeUtilities evaluates Definition 2 for every (candidate,
// specialization) pair:
//
//	U(d|R_q′) = Σ_{d′∈R_q′} (1−δ(d,d′)) / rank(d′,R_q′)
//	Ũ(d|R_q′) = U(d|R_q′) / H_{|R_q′|}
//
// with δ(d,d′) = 1 − cosine(d,d′) (Equation (2)), computed on document
// surrogates. A pair with identical IDs is the same document (δ = 0)
// regardless of surrogate quality. Utilities strictly below the threshold
// c are forced to 0, as in §5: "we forced its returning value to be 0
// when it is below a given threshold c".
//
// The cosines are evaluated with accumulator scoring over the surrogate
// vectors: one inverted index over all R_q′ surrogates (AspectIndex) is
// built once — per artifact on the serving route, per call otherwise —
// and each candidate is scored against every result of every
// specialization in a single pass over the candidate's terms, instead of
// |S_q|·|R_q′| merge joins. Per-pair dot products accumulate in ascending
// term-ID order, exactly the order of a pairwise IVector.Cosine merge, so
// the matrix is bit-identical to the per-pair one (see the differential
// tests).
func ComputeUtilities(p *Problem) *Utilities {
	u := &Utilities{}
	computeUtilitiesInto(p, u)
	return u
}

// utilScratch is the pooled per-call working set of computeUtilitiesInto:
// the aspect index of a problem that brings none and its sort buffer, the
// per-cell dot-product accumulator, and OptSelectBounded's suffix maxima
// of relevance and the slab it builds each candidate's vector in. Pooling
// it makes utility computation allocation-free in steady state on the
// serving path.
type utilScratch struct {
	ix     AspectIndex
	sort   aspectSort
	acc    []float64
	relMax []float64
	slab   textsim.Slab
}

var utilScratchPool = sync.Pool{New: func() any { return new(utilScratch) }}

// UtilityScorer evaluates Definition 2 one candidate at a time — the
// streaming form of ComputeUtilities the fused execution plan uses to
// score candidates as the retrieval scan materializes them, instead of in
// a separate pass over a completed candidate list. The aspect index is
// the problem's own (Problem.Aspects) or built once at construction;
// ScoreInto then runs exactly the inner loop of the batch path, so a
// matrix assembled row by row through a scorer is bit-identical to
// ComputeUtilities output.
//
// A scorer borrows pooled scratch; Close returns it. The scorer reads only
// p.Specs (which must not change while it is alive), λ and c — candidates
// may be appended to p.Candidates between ScoreInto calls, which is
// precisely how the fused operator streams them in.
type UtilityScorer struct {
	// p is a copy of what the scorer reads of the problem, so that it
	// holds no pointer to the caller's, which can then stay on its stack.
	p  Problem
	ix *AspectIndex
	sc *utilScratch
}

// NewUtilityScorer prepares a streaming scorer for the problem's
// specializations: over p.Aspects when the problem carries one, else over
// an index of the results' IVecs built into pooled scratch. It inlines,
// so a caller that keeps the scorer to itself keeps it on its stack.
func NewUtilityScorer(p *Problem) *UtilityScorer {
	us := &UtilityScorer{p: Problem{Specs: p.Specs, Aspects: p.Aspects, Lambda: p.Lambda, Threshold: p.Threshold}}
	us.init()
	return us
}

func (us *UtilityScorer) init() {
	p, sc := &us.p, utilScratchPool.Get().(*utilScratch)
	ix := p.Aspects
	if ix == nil {
		ix = &sc.ix
		ix.build(p.Specs, &sc.sort)
	} else if len(ix.h) != len(p.Specs) {
		panic("core: Problem.Aspects was not built from Problem.Specs")
	}
	sc.acc = resize(sc.acc, len(ix.norms))
	us.ix, us.sc = ix, sc
}

// ScoreInto fills row (length |S_q|) with the thresholded utilities
// Ũ(d|R_q′_j) of one candidate and returns its overall score (Equation
// (9)). d.IVec must share a lexicon with the specialization results.
func (us *UtilityScorer) ScoreInto(d *Doc, row []float64) float64 {
	return us.score(d, d.IVec, row)
}

// score is ScoreInto with the candidate's vector given apart from d.
func (us *UtilityScorer) score(d *Doc, iv textsim.IVector, row []float64) float64 {
	p, ix := &us.p, us.ix
	acc := us.sc.acc
	clear(acc)
	// One pass of the candidate's terms through the aspect index scores
	// it against every result of every R_q′ at once. A cell's
	// contributions arrive in ascending term order, as in a pairwise merge.
	cids, cw := iv.IDs, iv.Weights
	ti := 0
	for ci := 0; ci < len(cids) && ti < len(ix.terms); ci++ {
		id := cids[ci]
		if ix.terms[ti] < id {
			if ti = gallop(ix.terms, ti, id); ti == len(ix.terms) {
				break
			}
		}
		if ix.terms[ti] != id {
			continue
		}
		w := cw[ci]
		for x := ix.termRuns[ti]; x < ix.termRuns[ti+1]; x++ {
			v := w * ix.runWeight[x]
			for _, c := range ix.cells[ix.runCells[x]:ix.runCells[x+1]] {
				acc[c] += v
			}
		}
		ti++
	}
	dn := iv.Norm()
	for j := range p.Specs {
		spec := &p.Specs[j]
		if len(spec.Results) == 0 || ix.h[j] == 0 {
			row[j] = 0
			continue
		}
		cells := j * ix.stride
		sum := 0.0
		for r := range spec.Results {
			dr := &spec.Results[r]
			var sim float64
			if dr.ID == d.ID {
				sim = 1 // δ(d,d) = 0
			} else if rn := ix.norms[cells+r]; dn != 0 && rn != 0 {
				// Same operation order as textsim cosine: merged dot,
				// then one division by the norm product, then clamp.
				c := acc[cells+r] / (dn * rn)
				if c > 1 {
					c = 1
				}
				if c < -1 {
					c = -1
				}
				sim = c
			}
			if sim <= 0 {
				continue
			}
			sum += sim / float64(resultRank(dr, r))
		}
		util := sum / ix.h[j]
		if util < p.Threshold {
			util = 0
		}
		row[j] = util
	}
	return overallScore(p, row, d.Rel)
}

// Close returns the scorer's scratch to the pool. The scorer must not be
// used afterwards.
func (us *UtilityScorer) Close() {
	if us.sc != nil {
		utilScratchPool.Put(us.sc)
		us.sc = nil
	}
}

func computeUtilitiesInto(p *Problem, u *Utilities) {
	n := len(p.Candidates)
	s := len(p.Specs)

	u.flat = resize(u.flat, n*s)
	u.U = resize(u.U, n)
	u.Overall = resize(u.Overall, n)

	us := NewUtilityScorer(p)
	defer us.Close()

	for i := range p.Candidates {
		row := u.flat[i*s : (i+1)*s : (i+1)*s]
		u.U[i] = row
		u.Overall[i] = us.ScoreInto(&p.Candidates[i], row)
	}
}

// resize returns a slice of length n over s's storage when that is large
// enough, else a fresh one. Reused elements keep their old values.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// overallScore evaluates Equation (9) for one document given its utility
// row: Ũ(d|q) = (1−λ)·|S_q|·P(d|q) + λ·Σ_j P(q′_j|q)·Ũ(d|R_q′_j).
func overallScore(p *Problem, row []float64, rel float64) float64 {
	sum := 0.0
	for j := range p.Specs {
		sum += p.Specs[j].Prob * row[j]
	}
	return (1-p.Lambda)*float64(len(p.Specs))*rel + p.Lambda*sum
}

// WithThreshold derives a new Utilities with cutoff c applied to this
// matrix and the overall scores recomputed for p. It lets the Table 3
// harness sweep the threshold without re-running the O(n·|S_q|·|R_q′|)
// cosine computation: u must have been computed with threshold 0 (raw
// utilities) on the same problem.
func (u *Utilities) WithThreshold(p *Problem, c float64) *Utilities {
	n := len(u.U)
	s := 0
	if n > 0 {
		s = len(u.U[0])
	}
	out := &Utilities{
		U:       make([][]float64, n),
		Overall: make([]float64, n),
	}
	flat := make([]float64, n*s)
	for i := 0; i < n; i++ {
		row := flat[i*s : (i+1)*s : (i+1)*s]
		for j := 0; j < s; j++ {
			v := u.U[i][j]
			if v < c {
				v = 0
			}
			row[j] = v
		}
		out.U[i] = row
		out.Overall[i] = overallScore(p, row, p.Candidates[i].Rel)
	}
	return out
}
