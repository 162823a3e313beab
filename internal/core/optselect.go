package core

import (
	"cmp"
	"slices"
	"sync"

	"repro/internal/topk"
)

// OptSelect solves MaxUtility Diversify(k) (§3.1.3) with the paper's
// Algorithm 2. Because Equation (8) makes the objective additive —
// Ũ(S|q) = Σ_{d∈S} Ũ(d|q) — the optimum is the top-k candidates by
// overall score Ũ(d|q), subject to the proportional-coverage constraint
// |R_q ⋈ q′| ≥ ⌊k·P(q′|q)⌋ for every specialization.
//
// The implementation follows the published data-structure design: one
// bounded heap of size ⌊k·P(q′|q)⌋+1 per specialization holding its most
// useful candidates, plus one global k-heap M for candidates useful to no
// specialization. Selection first pops per-specialization heaps until each
// specialization's coverage quota ⌊k·P(q′|q)⌋ is met (most probable
// specialization first), then fills the remaining slots with the best
// unselected candidates overall. Every heap operation is O(log k), giving
// the O(n·|S_q|·log k) bound of Table 1.
//
// The printed pseudocode pops a single document per specialization before
// filling from M; as discussed in DESIGN.md we implement the constraint
// stated in the problem definition (coverage proportional to P(q′|q)),
// which the one-pop reading cannot guarantee. The returned set is ordered
// by descending overall score — the re-ranked SERP order.
func OptSelect(p *Problem, u *Utilities) []Selected {
	k := p.clampK()
	if k == 0 {
		return nil
	}
	if len(p.Specs) == 0 {
		return Baseline(p)
	}
	h := NewOptSelectHeaps(p, k)
	for i := range p.Candidates {
		h.Offer(i, u.U[i], u.Overall[i], p.Candidates[i].Rank)
	}
	return OptSelectFrom(p, u, h)
}

// OptSelectHeaps is the heap state of Algorithm 2, split out so it can be
// populated incrementally: the staged path fills it in one loop over a
// completed Utilities matrix (OptSelect above), while the fused execution
// plan offers each candidate as the retrieval scan materializes it —
// M_q′ per specialization (size ⌊k·P(q′|q)⌋+1) and the global reservoir M
// (size k). Heap keys are the overall score Ũ(d|q) of Equation (9); ties
// break toward the better original rank. Offer order must be candidate
// order (ascending index), which both paths produce.
//
// The heaps and the selection phase's working arrays are pooled, as
// ComputeUtilities pools its scratch: at serving sizes (k = 10, a few
// hundred candidates) allocating |S_q|+2 heaps and five arrays per call
// cost more than the heap work itself. OptSelectFrom hands the state
// back, so a value is good for one Offer pass and one selection.
type OptSelectHeaps struct {
	k     int
	quota []int
	specs []topk.Bounded[int]
	m     topk.Bounded[int]
	// pushes counts heap pushes for Problem.Ops.
	pushes int64

	// OptSelectFrom's working state.
	order    []int
	selected []bool
	cover    []int
	drained  [][]topk.Item[int]
	fill     topk.Max[int]
}

var optSelectPool = sync.Pool{New: func() any { return new(OptSelectHeaps) }}

// NewOptSelectHeaps sizes the heaps of Algorithm 2 for result size k
// (already clamped to the candidate count).
func NewOptSelectHeaps(p *Problem, k int) *OptSelectHeaps {
	h := optSelectPool.Get().(*OptSelectHeaps)
	s := len(p.Specs)
	h.k, h.pushes = k, 0
	h.quota = resize(h.quota, s)
	if cap(h.specs) < s { // grown in place: the heaps already there keep their storage
		h.specs = append(h.specs[:cap(h.specs)], make([]topk.Bounded[int], s-cap(h.specs))...)
	}
	h.specs = h.specs[:s]
	for j := range p.Specs {
		h.quota[j] = int(float64(k) * p.Specs[j].Prob)
		h.specs[j].Reset(h.quota[j] + 1)
	}
	h.m.Reset(k)
	return h
}

// Offer is line 05–06 of Algorithm 2 for one candidate: push i onto M_q′
// for every specialization with Ũ(i|R_q′_j) > 0, and onto M. We strengthen
// M slightly: every document is offered to M exactly once, making M the
// global top-k reservoir by overall score. This keeps the O(log k)
// per-push cost but guarantees the fill phase always sees the best
// unselected candidates (a document useful for every specialization can be
// evicted from all bounded spec heaps; under the literal "else" rule it
// would vanish from the selectable pool).
func (h *OptSelectHeaps) Offer(i int, row []float64, overall float64, rank int) {
	for j, uj := range row {
		if uj > 0 {
			h.specs[j].Push(i, overall, int64(rank))
			h.pushes++
		}
	}
	h.m.Push(i, overall, int64(rank))
	h.pushes++
}

// SpecEvictions reports the total full-heap evictions across the
// per-specialization heaps — the fused-path /stats counter showing how
// contended the aspect heaps were.
func (h *OptSelectHeaps) SpecEvictions() uint64 {
	var n uint64
	for j := range h.specs {
		n += h.specs[j].Evictions()
	}
	return n
}

// OptSelectFrom runs the selection phases of Algorithm 2 over prebuilt
// heaps: proportional coverage first, then fill from the leftovers and M.
// Candidates must have been Offered at most once each, in candidate order,
// and every candidate not Offered must be one a full M would have rejected
// (OptSelectBounded's contract; the others Offer them all) — u needs rows
// only for the Offered ones. h must have been sized with k = p.clampK().
// h is spent: it goes back to the pool and must not be used again.
func OptSelectFrom(p *Problem, u *Utilities, h *OptSelectHeaps) []Selected {
	k := h.k
	if k == 0 {
		return nil
	}
	defer optSelectPool.Put(h)
	n := len(p.Candidates)
	quota, specHeaps := h.quota, h.specs

	// Specialization processing order: descending probability, matching
	// "the more popular a specialization, the greater the number of
	// results relevant for it". Ties break on declaration order.
	order := resize(h.order, len(p.Specs))
	h.order = order
	for j := range order {
		order[j] = j
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return cmp.Compare(p.Specs[b].Prob, p.Specs[a].Prob) // descending
	})

	selected := resize(h.selected, n)
	cover := resize(h.cover, len(p.Specs)) // |S ⋈ q′_j| so far
	h.selected, h.cover = selected, cover
	clear(selected)
	clear(cover)
	out := make([]Selected, 0, k)

	add := func(i int) {
		selected[i] = true
		for j := range p.Specs {
			if u.U[i][j] > 0 {
				cover[j]++
			}
		}
		out = append(out, serpRow(&p.Candidates[i], u.Overall[i]))
	}

	// Phase 1 — proportional coverage. Drain gives each heap's contents
	// best-first. Documents already selected for an earlier specialization
	// count toward this quota when useful for it too (cover[] tracks that).
	drained := resize(h.drained, len(p.Specs))
	h.drained = drained
	for j := range p.Specs {
		drained[j] = specHeaps[j].DrainSorted()
	}
	for _, j := range order {
		pos := 0
		for cover[j] < quota[j] && len(out) < k && pos < len(drained[j]) {
			i := drained[j][pos].Value
			pos++
			if !selected[i] {
				add(i)
			}
		}
		drained[j] = drained[j][pos:]
	}

	// Phase 2 — fill: best remaining candidates by overall score, drawn
	// from the leftovers of every specialization heap and from M.
	fill := &h.fill
	fill.Reset()
	for j := range drained {
		for _, it := range drained[j] {
			if !selected[it.Value] {
				fill.PushItem(it)
				h.pushes++
			}
		}
	}
	for _, it := range h.m.DrainSorted() {
		fill.PushItem(it)
		h.pushes++
	}
	for len(out) < k {
		it, ok := fill.Pop()
		if !ok {
			break
		}
		if selected[it.Value] {
			continue
		}
		add(it.Value)
	}

	// Fallback sweep: a document useful to every specialization but evicted
	// from all bounded heaps is unreachable through them; when the fill
	// pool underflows, complete S from the remaining candidates by overall
	// score so the algorithm always returns min(k, n) documents. M was
	// never full if this runs (its k documents would have filled S), so no
	// candidate was skipped on a bound and every row exists.
	if len(out) < k {
		rest := topk.NewBounded[int](k - len(out))
		for i := 0; i < n; i++ {
			if !selected[i] {
				if u.U[i] == nil {
					panic("core: OptSelect fallback sweep reached a candidate that was never scored")
				}
				rest.Push(i, u.Overall[i], int64(p.Candidates[i].Rank))
				h.pushes++
			}
		}
		for _, it := range rest.Drain() {
			add(it.Value)
		}
	}

	// Final SERP order: descending overall score (stable, rank tie-break).
	slices.SortStableFunc(out, func(a, b Selected) int {
		if c := cmp.Compare(b.Score, a.Score); c != 0 {
			return c
		}
		return cmp.Compare(a.Rank, b.Rank)
	})
	if p.Ops != nil {
		p.Ops.HeapPushes += h.pushes
	}
	return out
}
