package core

import (
	"slices"
	"sync"

	"repro/internal/stats"
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
// vectors: per specialization, a tiny inverted index over the R_q′
// surrogates is built once, and each candidate is scored against all of a
// specialization's results in a single pass over the candidate's terms —
// one posting traversal instead of |R_q′| merge joins. Per-pair dot
// products accumulate in ascending term-ID order, exactly the order of a
// pairwise IVector.Cosine merge, so the matrix is bit-identical to the
// per-pair one (see the differential tests).
func ComputeUtilities(p *Problem) *Utilities {
	u := &Utilities{}
	computeUtilitiesInto(p, u)
	return u
}

// specPosting is one (term, result, weight) triple while a specialization
// index is being built.
type specPosting struct {
	id int32
	r  int32
	w  float64
}

// specIndex is the per-specialization inverted index over the R_q′
// surrogate vectors: for each term ID (sorted ascending), the results it
// occurs in and its weight there, flattened into parallel arrays.
type specIndex struct {
	termIDs []int32
	starts  []int32 // len(termIDs)+1 offsets into postRes/postW
	postRes []int32
	postW   []float64
}

// build (re)fills the index from a result list, reusing posts as the
// triple scratch buffer and returning it (possibly regrown).
func (si *specIndex) build(results []SpecResult, posts []specPosting) []specPosting {
	posts = posts[:0]
	for r := range results {
		iv := &results[r].IVec
		for t, id := range iv.IDs {
			posts = append(posts, specPosting{id: id, r: int32(r), w: iv.Weights[t]})
		}
	}
	slices.SortFunc(posts, func(a, b specPosting) int {
		if a.id != b.id {
			return int(a.id) - int(b.id)
		}
		return int(a.r) - int(b.r)
	})
	si.termIDs = si.termIDs[:0]
	si.starts = si.starts[:0]
	si.postRes = si.postRes[:0]
	si.postW = si.postW[:0]
	for pi := range posts {
		if len(si.termIDs) == 0 || posts[pi].id != si.termIDs[len(si.termIDs)-1] {
			si.termIDs = append(si.termIDs, posts[pi].id)
			si.starts = append(si.starts, int32(len(si.postRes)))
		}
		si.postRes = append(si.postRes, posts[pi].r)
		si.postW = append(si.postW, posts[pi].w)
	}
	si.starts = append(si.starts, int32(len(si.postRes)))
	return posts
}

// utilScratch is the pooled per-call working set of computeUtilitiesInto:
// the specialization indexes, the triple buffer they are built through,
// the per-result dot-product accumulator, the per-spec normalizers, and
// OptSelectBounded's suffix maxima of relevance. Pooling it makes utility
// computation allocation-free in steady state on the serving path.
type utilScratch struct {
	specs  []specIndex
	posts  []specPosting
	acc    []float64
	norm   []float64
	relMax []float64
}

var utilScratchPool = sync.Pool{New: func() any { return new(utilScratch) }}

// prepare sizes the scratch for p and builds the per-spec indexes.
func (sc *utilScratch) prepare(p *Problem) {
	s := len(p.Specs)
	if cap(sc.specs) < s {
		sc.specs = make([]specIndex, s)
	} else {
		sc.specs = sc.specs[:s]
	}
	if cap(sc.norm) < s {
		sc.norm = make([]float64, s)
	} else {
		sc.norm = sc.norm[:s]
	}
	maxResults := 0
	for j := range p.Specs {
		results := p.Specs[j].Results
		sc.posts = sc.specs[j].build(results, sc.posts)
		sc.norm[j] = stats.Harmonic(len(results))
		if len(results) > maxResults {
			maxResults = len(results)
		}
	}
	if cap(sc.acc) < maxResults {
		sc.acc = make([]float64, maxResults)
	} else {
		sc.acc = sc.acc[:maxResults]
	}
}

// UtilityScorer evaluates Definition 2 one candidate at a time — the
// streaming form of ComputeUtilities the fused execution plan uses to
// score candidates as the retrieval scan materializes them, instead of in
// a separate pass over a completed candidate list. The per-specialization
// inverted indexes are built once at construction; ScoreInto then runs
// exactly the inner loop of the batch path, so a matrix assembled row by
// row through a scorer is bit-identical to ComputeUtilities output.
//
// A scorer borrows pooled scratch; Close returns it. The scorer reads only
// p.Specs (which must not change while it is alive) — candidates may be
// appended to p.Candidates between ScoreInto calls, which is precisely how
// the fused operator streams them in.
type UtilityScorer struct {
	p  *Problem
	sc *utilScratch
}

// NewUtilityScorer prepares a streaming scorer for the problem's
// specializations.
func NewUtilityScorer(p *Problem) *UtilityScorer {
	sc := utilScratchPool.Get().(*utilScratch)
	sc.prepare(p)
	return &UtilityScorer{p: p, sc: sc}
}

// ScoreInto fills row (length |S_q|) with the thresholded utilities
// Ũ(d|R_q′_j) of one candidate and returns its overall score (Equation
// (9)). d.IVec must share a lexicon with the specialization results.
func (us *UtilityScorer) ScoreInto(d *Doc, row []float64) float64 {
	p, sc := us.p, us.sc
	cids := d.IVec.IDs
	cw := d.IVec.Weights
	dn := d.IVec.Norm()
	for j := range p.Specs {
		spec := &p.Specs[j]
		if len(spec.Results) == 0 || sc.norm[j] == 0 {
			row[j] = 0
			continue
		}
		si := &sc.specs[j]
		acc := sc.acc[:len(spec.Results)]
		for r := range acc {
			acc[r] = 0
		}
		// One merge of the candidate's terms against the spec index
		// scores the candidate against every result of R_q′ at once.
		ci, ti := 0, 0
		for ci < len(cids) && ti < len(si.termIDs) {
			switch {
			case cids[ci] == si.termIDs[ti]:
				w := cw[ci]
				for pi := si.starts[ti]; pi < si.starts[ti+1]; pi++ {
					acc[si.postRes[pi]] += w * si.postW[pi]
				}
				ci++
				ti++
			case cids[ci] < si.termIDs[ti]:
				ci++
			default:
				ti++
			}
		}
		sum := 0.0
		for r := range spec.Results {
			dr := &spec.Results[r]
			var sim float64
			if dr.ID == d.ID {
				sim = 1 // δ(d,d) = 0
			} else if dn != 0 && dr.IVec.Norm() != 0 {
				// Same operation order as textsim cosine: merged dot,
				// then one division by the norm product, then clamp.
				c := acc[r] / (dn * dr.IVec.Norm())
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
		util := sum / sc.norm[j]
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

// UtilityOf returns Ũ(candidate i | specialization j), for callers probing
// the matrix (tests, the coverage-constraint checker).
func (u *Utilities) UtilityOf(i, j int) float64 { return u.U[i][j] }

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
