package ranking

import (
	"cmp"
	"context"
	"math"
	"slices"
	"sync"

	"repro/internal/index"
	"repro/internal/topk"
)

// MaxScore dynamic pruning (Turtle & Flood's algorithm, the classic of
// the top-k retrieval literature the paper's efficiency framing leans
// on): with a per-term upper bound on any single document's contribution
// — the max-score table the index precomputes — the evaluator keeps the
// query's posting lists ordered by bound and partitions them against the
// running top-k threshold into *essential* lists, which can still lift a
// document into the heap, and *non-essential* ones, which alone cannot.
// Candidates are drawn from the essential lists only; each candidate's
// remaining bound is re-checked before every non-essential probe, so
// whole posting ranges of the frequent (low-bound) terms are skipped by
// block-header search instead of scored.
//
// Over the block-compressed posting layout the pruning is Block-Max
// MaxScore: posting lists are traversed through index.PostingIterator,
// seeks skip whole blocks by header binary search without decoding them,
// and before a non-essential list is probed its term-level bound is
// refined to the maximum of the one block that could contain the
// candidate (index.TermBlockMax). When even that refined bound cannot
// lift the candidate past the threshold, the block's bytes are never
// decoded — the bailout that makes frequent terms nearly free.
//
// The pruning is EXACT, not approximate: the returned top-k is
// bit-identical to the exhaustive evaluator's, enforced by differential
// tests. Four properties make that work:
//
//   - Boundable models have nonnegative term scores and zero DocAdjust,
//     so "sum of per-term bounds" really bounds the total score;
//   - a block-max entry is the exact float maximum of the block's
//     computed scores, so refining a bound with it never under-bounds;
//   - a surviving document's final score is re-accumulated in ascending
//     term order — the exhaustive evaluator's exact float addition
//     sequence — from the per-term contributions recorded while probing;
//   - documents arrive in ascending document order, so every candidate
//     loses score ties against everything already in the heap: a
//     candidate whose bound does not exceed the threshold can be
//     dropped, and the scan can end, on equality. The bound is inflated
//     by msSlack wherever it is a sum of several lists' bounds, since
//     float addition in another order may round past it; with one live
//     list it is used as it is (see msSlack), so a settled one-term
//     top-k stops the moment its heap holds k documents at the bound.

// msCursor is one query term's traversal state in the MaxScore
// evaluator. The iterator owns pooled decode scratch; maxscoreTopK takes
// ownership of the cursors it is handed and releases every iterator
// exactly once.
type msCursor struct {
	it    index.PostingIterator
	stats index.TermStats
	mult  float64 // query-term multiplicity
	ub    float64 // upper bound on the term's per-doc contribution: mult · max score
	order int     // position in ascending term order — the accumulation order
	// cur/ok cache the iterator's current posting so the per-candidate
	// loops read struct fields instead of paying an iterator call per
	// cursor per candidate. The cache is maintained only while the
	// cursor is ESSENTIAL (the min-selection and match loops are the
	// only readers, and they only touch essential cursors); once a list
	// goes non-essential — a one-way transition, the threshold only
	// rises — it is probed through BlockUpperBound/SeekGE and the stale
	// cache is never read again.
	cur index.Posting
	ok  bool
	// hasBM caches it.HasBlockMax(): probes consult the block-max bound
	// only when a table is attached, so tableless lists pay no
	// BlockUpperBound call — SeekGE alone answers "no posting >= d".
	hasBM bool
}

// msSlack returns the multiplicative safety factor applied to pruning
// bounds over nLists live lists. Floating-point sums are order-sensitive:
// the exhaustive evaluator accumulates contributions in sorted term order
// while the bound sums upper bounds in bound order, so the two can
// disagree by a few ulps. Inflating the (nonnegative) bound by a handful
// of machine epsilons per list guarantees bound >= exhaustive score,
// keeping the pruning exact; the slack is ~1e-15 relative, far too small
// to cost pruning power.
//
// One list needs none: no sum is reassociated. A document's score is
// 0 + mult·s (plus a zero DocAdjust) and the bound is mult·max s, and
// rounding a product is monotone in s, so every score is at most the
// bound exactly. A threshold equal to the bound then ends the scan —
// which the slack would forbid, leaving a list of equal top scores to be
// walked to its end.
func msSlack(nLists int) float64 {
	if nLists == 1 {
		return 1
	}
	const eps = 2.220446049250313e-16 // 2^-52
	return 1 + float64(nLists+2)*8*eps
}

// maxScoreTable returns the model's per-term upper-bound table from the
// index, or nil when the model is not Boundable or the index carries no
// table under its key — the callers' signal to keep the exhaustive path.
func maxScoreTable(idx *index.Index, model Model) []float64 {
	b, ok := model.(Boundable)
	if !ok {
		return nil
	}
	return idx.MaxScores(b.BoundKey())
}

// boundKey returns the model's max-score table key, or "" when the model
// is not Boundable.
func boundKey(model Model) string {
	if b, ok := model.(Boundable); ok {
		return b.BoundKey()
	}
	return ""
}

// Pruneable reports whether MaxScore pruning can serve (idx, model):
// the model is Boundable and idx carries its max-score table.
func Pruneable(idx *index.Index, model Model) bool {
	return maxScoreTable(idx, model) != nil
}

// InstallMaxScores computes and attaches max-score tables — per-BLOCK
// and per-term — for every Boundable model among models whose tables idx
// does not already carry. The per-term table is derived from the block
// table (exact float maximum over the term's blocks), so the two can
// never disagree. Engine build and load call this while the index is
// still privately owned; it is NOT safe once the index is shared. Models
// that are not Boundable are skipped, as is any model whose DocAdjust
// probes nonzero — a Boundable implementation violating its zero-adjust
// contract must not get a table, or pruning would silently turn inexact.
func InstallMaxScores(idx *index.Index, models ...Model) error {
	for _, m := range models {
		b, ok := m.(Boundable)
		if !ok || violatesZeroAdjust(b, idx.Stats()) {
			continue
		}
		key := b.BoundKey()
		if idx.BlockMaxScores(key) == nil {
			if err := idx.SetBlockMaxScores(key, idx.ComputeBlockMaxScores(b.TermScore)); err != nil {
				return err
			}
		}
		if idx.MaxScores(key) != nil {
			continue
		}
		term := make([]float64, idx.NumTerms())
		for id := range term {
			for _, v := range idx.TermBlockMax(key, int32(id)) {
				if v > term[id] {
					term[id] = v
				}
			}
		}
		if err := idx.SetMaxScores(key, term); err != nil {
			return err
		}
	}
	return nil
}

// violatesZeroAdjust probes the Boundable zero-DocAdjust contract at a
// few document/query shapes. Not a proof, but a cheap tripwire.
func violatesZeroAdjust(m Model, c index.CollectionStats) bool {
	for _, docLen := range []float64{1, math.Max(c.AvgDocLen, 1), 10*c.AvgDocLen + 1} {
		for _, qLen := range []int{1, 5} {
			if m.DocAdjust(docLen, qLen, c) != 0 {
				return true
			}
		}
	}
	return false
}

// maxscoreTopK runs MaxScore over the given cursors (one per indexed
// query term, orders assigned in ascending term order, iterators possibly
// shard-ranged but carrying global document numbers) and returns the k
// best documents exactly as the exhaustive evaluator would: score
// descending, document ascending, scores bit-identical. k must be
// positive; callers handle the k <= 0 "all matches" form via the
// exhaustive path, where no threshold ever forms.
//
// Ownership: maxscoreTopK releases every cursor's iterator, on every
// path; callers must not touch the cursors afterwards. The returned items
// live in ts's heap, valid until ts is used again.
//
// ctx is polled every few hundred candidates — the pruned counterpart
// of the exhaustive pass's between-posting-lists preemption — so a shed
// or disconnected request stops mid-evaluation instead of finishing a
// top-k nobody will read.
func maxscoreTopK(ctx context.Context, idx *index.Index, model Model, qLen int, cursors []msCursor, k int, ts *topKScratch) ([]topk.Item[int32], error) {
	cstats := idx.Stats()
	// Compact to the live (non-empty) cursors in place, releasing dead
	// iterators immediately. After this, each iterator's pooled scratch is
	// reachable through exactly one struct — the one in live — which the
	// deferred loop releases; the tail of the original array is dead
	// copies that are never touched again.
	live := cursors[:0]
	for i := range cursors {
		if p, ok := cursors[i].it.Cur(); ok {
			cursors[i].cur, cursors[i].ok = p, true
			cursors[i].hasBM = cursors[i].it.HasBlockMax()
			live = append(live, cursors[i])
		} else {
			cursors[i].it.Release()
		}
	}
	defer func() {
		for i := range live {
			live[i].it.Release()
		}
	}()
	if len(live) == 0 {
		return nil, nil
	}
	// Ascending upper bound (ties by term order, for determinism);
	// prefix[i] bounds the total contribution of lists 0..i.
	slices.SortFunc(live, func(a, b msCursor) int {
		if a.ub != b.ub {
			return cmp.Compare(a.ub, b.ub)
		}
		return cmp.Compare(a.order, b.order)
	})
	prefix := grow(ts.prefix, len(live))
	ts.prefix = prefix
	sum := 0.0
	for i := range live {
		sum += live[i].ub
		prefix[i] = sum
	}
	slack := msSlack(len(live))
	// tabs[i] is live[i]'s score table: a posting's (tf, docLen) pair is
	// scored once per term per query.
	scratch := scoreTablePool.Get().(*scoreTables)
	defer scoreTablePool.Put(scratch)
	tabs := scratch.take(len(live))
	termScore := model.TermScore

	heap := &ts.heap
	heap.Reset(k)
	threshold := math.Inf(-1)
	firstEss := 0 // live[firstEss:] are the essential lists
	contrib := grow(ts.contrib, len(cursors))
	clear(contrib)
	ts.contrib = contrib
	touched := ts.touched[:0]
	defer func() { ts.touched = touched[:0] }()
	for candidates := 0; ; candidates++ {
		// Poll on entry (a canceled request must not start) and then
		// every 256 candidates.
		if candidates&255 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		// Grow the non-essential prefix against the current threshold.
		for firstEss < len(live) && prefix[firstEss]*slack <= threshold {
			firstEss++
		}
		if firstEss >= len(live) {
			break // no remaining document can enter the heap
		}
		// Next candidate: the minimum current document among essential
		// lists (documents appearing only in non-essential lists are
		// bounded by prefix[firstEss-1] and provably out).
		d := int32(math.MaxInt32)
		for i := firstEss; i < len(live); i++ {
			if c := &live[i]; c.ok && c.cur.Doc < d {
				d = c.cur.Doc
			}
		}
		if d == math.MaxInt32 {
			break // essential lists exhausted
		}
		docLen := idx.DocLen(d)
		partial := 0.0
		matched := false
		for i := firstEss; i < len(live); i++ {
			c := &live[i]
			if c.ok && c.cur.Doc == d {
				tf := c.cur.TF
				c.it.Advance()
				c.cur, c.ok = c.it.Cur()
				if s := tabs[i].Score(termScore, tf, docLen, c.stats, cstats); s != 0 {
					v := c.mult * s
					contrib[c.order] = v
					touched = append(touched, c.order)
					partial += v
					matched = true
				}
			}
		}
		// Non-essential lists, highest bound first: probe while the
		// candidate can still reach the threshold, prune the moment it
		// provably cannot. Before each probe the term-level bound is
		// refined to the block that could contain the candidate (read off
		// the header, no decode) — the Block-Max bailout: a bound that
		// fails here kills the candidate without ever touching the
		// block's bytes.
		pruned := false
		for i := firstEss - 1; i >= 0; i-- {
			if (partial+prefix[i])*slack <= threshold {
				pruned = true
				break
			}
			c := &live[i]
			if c.hasBM {
				bub, any := c.it.BlockUpperBound(d)
				if !any {
					// The list has no posting at or beyond d: it contributes
					// nothing to this candidate; keep probing cheaper lists.
					continue
				}
				if v := c.mult * bub; v < c.ub {
					below := 0.0
					if i > 0 {
						below = prefix[i-1]
					}
					if (partial+below+v)*slack <= threshold {
						pruned = true
						break
					}
				}
			}
			if p, ok := c.it.SeekGE(d); ok && p.Doc == d {
				if s := tabs[i].Score(termScore, p.TF, docLen, c.stats, cstats); s != 0 {
					v := c.mult * s
					contrib[c.order] = v
					touched = append(touched, c.order)
					partial += v
					matched = true
				}
			}
		}
		if !pruned && matched {
			// Final score: the exhaustive accumulation order — ascending
			// term order, zero contributions skipped — then the document
			// adjustment (identically zero for Boundable models; applied
			// anyway so the formula matches Retrieve's to the letter).
			score := 0.0
			for o := 0; o < len(contrib); o++ {
				if v := contrib[o]; v != 0 {
					score += v
				}
			}
			score += model.DocAdjust(float64(docLen), qLen, cstats)
			heap.Push(d, score, int64(d))
			if t, full := heap.Threshold(); full {
				threshold = t
			}
		}
		for _, o := range touched {
			contrib[o] = 0
		}
		touched = touched[:0]
	}
	return heap.DrainSorted(), nil
}

// topKScratch is the space a query's top-k selection reuses: the bounded
// heap, and MaxScore's bound prefix and per-candidate contributions.
type topKScratch struct {
	heap    topk.Bounded[int32]
	prefix  []float64
	contrib []float64
	touched []int
}

// scoreTables is a posting loop's pooled index.ScoreTables: one per cursor
// in maxscoreTopK, one reused term after term in the exhaustive loops.
// Per-query scratch — nothing of it outlives the loop that took it.
type scoreTables struct{ tabs []index.ScoreTable }

var scoreTablePool = sync.Pool{New: func() any { return new(scoreTables) }}

// take returns n empty tables, valid until s goes back to the pool.
func (s *scoreTables) take(n int) []index.ScoreTable {
	if cap(s.tabs) < n {
		s.tabs = make([]index.ScoreTable, n)
		return s.tabs
	}
	tabs := s.tabs[:n]
	for i := range tabs {
		tabs[i].Reset()
	}
	return tabs
}
