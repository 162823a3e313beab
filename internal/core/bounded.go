package core

import (
	"context"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/stats"
	"repro/internal/textsim"
)

// SpecBounds is what can be known about Σ_j P(q′_j|q)·Ũ(d|R_q′_j) — the
// λ-term of Equation (9) — from the R_q′ lists alone, before any
// candidate has a surrogate vector. It depends only on the lists and
// their probabilities, so the serving cache computes it once per artifact
// and OptSelectBounded reads it on every request. Immutable once built.
type SpecBounds struct {
	// ceil bounds the sum for any document: every similarity is at most 1,
	// so Ũ(d|R_q′_j) ≤ (Σ_r 1/rank_r)/H_j — which is 1 for a well-formed
	// list, hence ceil = ΣP(q′|q). +Inf when a probability is negative and
	// nothing can be bounded.
	ceil float64
	// rho is ρ* = ‖Σ_j P(q′_j|q)/H_j · Σ_r d̂_r/rank_r‖, d̂_r the unit
	// surrogate of result r. With cosine similarity Definition 2 is linear
	// in the candidate's unit vector, so by Cauchy–Schwarz the sum is at
	// most ρ* for a document outside every list — and, the lists' weights
	// being non-negative, clamping negative cosines to 0 cannot lift it
	// over that. +Inf (never the smaller bound) when some weight is
	// negative.
	rho float64
	// members is every (specialization, result) pair ordered by result
	// ID: a candidate that IS result r of list j scores similarity 1 there
	// whatever its cosine, which can add up to P_j/(rank_r·H_j) on top of
	// ρ*. Four bytes a pair: the cache holds one of these per artifact.
	members []specRef
}

type specRef struct{ j, r uint16 }

// Bounds computes the bounds of the specialization set ix was built from;
// the results need not carry their vectors any more. ρ* is summed term by
// term in ascending term order, so the same lists give the same bits
// every time.
func (ix *AspectIndex) Bounds(specs []Specialization) *SpecBounds {
	sc := utilScratchPool.Get().(*utilScratch)
	defer utilScratchPool.Put(sc)
	b := &SpecBounds{rho: math.Inf(1)}
	for j := range specs {
		if specs[j].Prob < 0 {
			b.ceil = math.Inf(1)
			return b
		}
	}
	// ρ* holds while every weight is non-negative (and the pairs fit a
	// specRef); ceil needs only the probabilities to be.
	rhoHolds := len(specs) <= math.MaxUint16
	// scale[cell] = P_j/H_j/rank_r/‖d_r‖: d̂_r's coefficient in
	// Σ_j P_j/H_j · Σ_r d̂_r/rank_r.
	scale := resize(sc.acc, len(ix.norms))
	sc.acc = scale
	b.members = make([]specRef, 0, len(ix.norms)) // a cell per result, and padding
	for j := range specs {
		spec := &specs[j]
		h := ix.h[j]
		if h == 0 {
			continue // ScoreInto gives an empty list utility 0
		}
		rhoHolds = rhoHolds && len(spec.Results) <= math.MaxUint16
		// The same operations in the same order as ScoreInto with every
		// similarity at 1, so rounding cannot put a real utility above it.
		top := 0.0
		for r := range spec.Results {
			rank := resultRank(&spec.Results[r], r)
			top += 1 / float64(rank)
			if !rhoHolds {
				continue
			}
			b.members = append(b.members, specRef{uint16(j), uint16(r)})
			if n := ix.norms[j*ix.stride+r]; n != 0 {
				scale[j*ix.stride+r] = spec.Prob / h / float64(rank) / n
			}
		}
		b.ceil += spec.Prob * (top / h)
	}
	ss := 0.0
	for ti := 0; rhoHolds && ti < len(ix.terms); ti++ {
		v := 0.0 // the term's component, summed in the index's run order
		for x := ix.termRuns[ti]; x < ix.termRuns[ti+1]; x++ {
			w := ix.runWeight[x]
			rhoHolds = rhoHolds && w >= 0
			for _, c := range ix.cells[ix.runCells[x]:ix.runCells[x+1]] {
				v += scale[c] * w
			}
		}
		ss += v * v
	}
	if !rhoHolds {
		b.members = nil
		return b
	}
	slices.SortFunc(b.members, func(x, y specRef) int {
		return strings.Compare(specs[x.j].Results[x.r].ID, specs[y.j].Results[y.r].ID)
	})
	b.rho = math.Sqrt(ss)
	return b
}

func (b *SpecBounds) id(specs []Specialization, x int) string {
	m := b.members[x]
	return specs[m.j].Results[m.r].ID
}

// resultRank is the rank Definition 2 divides by: the stored one, or the
// list position when it is unset.
func resultRank(dr *SpecResult, r int) int {
	if dr.Rank > 0 {
		return dr.Rank
	}
	return r + 1
}

// lambdaTerm bounds Σ_j P(q′_j|q)·Ũ(d|R_q′_j) for the document with the
// given ID, without its vector.
func (b *SpecBounds) lambdaTerm(specs []Specialization, id string) float64 {
	if b.rho >= b.ceil {
		return b.ceil
	}
	ub := b.rho
	x := sort.Search(len(b.members), func(x int) bool { return b.id(specs, x) >= id })
	for ; x < len(b.members) && b.id(specs, x) == id; x++ {
		m := b.members[x]
		spec := &specs[m.j]
		ub += spec.Prob / stats.Harmonic(len(spec.Results)) / float64(resultRank(&spec.Results[m.r], int(m.r)))
	}
	return min(ub, b.ceil)
}

// under reports that an upper bound lies strictly below a heap threshold,
// with a relative margin for the rounding of the bound's own arithmetic.
func under(ub, thr float64) bool { return ub+1e-9*math.Abs(ub) < thr }

// BoundedWork is what one OptSelectBounded call looked at.
type BoundedWork struct {
	// Walked counts the candidates the walk of R_q decided on — scored or
	// skipped — before it stopped: all of R_q unless the stop rule fired.
	Walked int
	// Evaluated counts the candidates it scored.
	Evaluated int
}

// OptSelectBounded is OptSelect for a caller that has not computed the
// utility matrix — the serving route. It walks R_q in candidate order,
// scores a candidate (and, through vec, builds its surrogate vector) only
// when that candidate could still enter one of Algorithm 2's heaps, and
// returns exactly OptSelect(p, ComputeUtilities(p)) — same documents,
// order and scores — beside how far it walked and how many candidates it
// evaluated.
//
// Once M and every M_q′ are full, a candidate whose overall score
// (Equation (9): (1−λ)·|S_q|·P(d|q) + λ·Σ_j P(q′_j|q)·Ũ(d|R_q′_j)) is
// under the lowest of their thresholds is rejected by all of them, so it
// need not be scored:
//
//	stop  when (1−λ)·|S_q|·max P(d′|q) over the rest + λ·ΣP is under it;
//	skip d when (1−λ)·|S_q|·P(d|q) + λ·min(ΣP, ρ* + corr(d)) is under it,
//
// with ρ* and corr from b (see SpecBounds), which must have been built
// from p.Specs. Both compare strictly, so ties still reach the heaps'
// rank tie-break. A heap that never fills means every candidate is
// scored, as OptSelect would. xQuAD, IASelect and MMR read whole columns
// of the matrix (every remaining candidate is rescanned per insertion)
// and have no such entry.
//
// vec, when non-nil, builds candidate i's vector just before it is
// scored, carving it out of slab: pooled scratch, Reset before every
// candidate, because the vector is read by that candidate's Definition 2
// row and never again. Nothing is written to p; nil means the candidates
// already carry their vectors. A vec error or a canceled ctx — polled
// every 64 candidates — ends the call with that error.
func OptSelectBounded(ctx context.Context, p *Problem, b *SpecBounds, vec func(i int, slab *textsim.Slab) (textsim.IVector, error)) ([]Selected, BoundedWork, error) {
	k := p.clampK()
	if k == 0 {
		return nil, BoundedWork{}, nil
	}
	if len(p.Specs) == 0 {
		return Baseline(p), BoundedWork{}, nil
	}
	n, s := len(p.Candidates), len(p.Specs)
	us := NewUtilityScorer(p)
	defer us.Close()
	u := utilitiesPool.Get().(*Utilities)
	defer utilitiesPool.Put(u)
	u.flat = resize(u.flat, n*s)
	u.U = resize(u.U, n)
	clear(u.U) // a nil row marks a candidate that was never scored
	u.Overall = resize(u.Overall, n)

	// Both bounds lean on (1−λ) ≥ 0 and λ ≥ 0; outside [0,1] nothing is
	// skipped.
	bounded := p.Lambda >= 0 && p.Lambda <= 1 && !math.IsInf(b.ceil, 1)
	relW := (1 - p.Lambda) * float64(s)
	// relMax[i] = max Rel over candidates i…n−1: nothing here assumes R_q
	// is sorted by relevance.
	relMax := resize(us.sc.relMax, n)
	us.sc.relMax = relMax
	for i, m := n-1, math.Inf(-1); i >= 0; i-- {
		m = math.Max(m, p.Candidates[i].Rel)
		relMax[i] = m
	}

	h := NewOptSelectHeaps(p, k)
	floor, full := 0.0, false
	var w BoundedWork
	var err error
	for i := range p.Candidates {
		d := &p.Candidates[i]
		if i&63 == 0 {
			if err = ctx.Err(); err != nil {
				break
			}
		}
		if full && bounded {
			if under(relW*relMax[i]+p.Lambda*b.ceil, floor) {
				break
			}
			if under(relW*d.Rel+p.Lambda*b.lambdaTerm(p.Specs, d.ID), floor) {
				w.Walked++
				continue
			}
		}
		iv := d.IVec
		if vec != nil {
			us.sc.slab.Reset()
			if iv, err = vec(i, &us.sc.slab); err != nil {
				break
			}
		}
		row := u.flat[w.Evaluated*s : (w.Evaluated+1)*s : (w.Evaluated+1)*s]
		w.Walked++
		w.Evaluated++
		u.U[i] = row
		u.Overall[i] = us.score(d, iv, row)
		h.Offer(i, row, u.Overall[i], d.Rank)
		floor, full = h.floor()
	}
	if err != nil {
		optSelectPool.Put(h)
		return nil, w, err
	}
	return OptSelectFrom(p, u, h), w, nil
}

// floor is the lowest admission threshold over M and every M_q′, and
// whether all of them are full — until then some heap admits anything.
func (h *OptSelectHeaps) floor() (float64, bool) {
	floor, full := h.m.Threshold()
	for j := 0; full && j < len(h.specs); j++ {
		var t float64
		t, full = h.specs[j].Threshold()
		floor = min(floor, t)
	}
	return floor, full
}
