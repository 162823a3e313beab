package ranking

import (
	"cmp"
	"context"
	"slices"
	"strings"
	"sync"

	"repro/internal/index"
	"repro/internal/topk"
)

// Sharded retrieval: the scale-out path of the scoring phase. The main
// query and any number of companion query vectors (the specialization
// queries whose R_q′ lists feed ComputeUtilities) are scored in ONE
// fan-out over the index segments — each shard worker makes a single pass
// over its posting sub-slices, computing every term's model score once
// per posting and scattering it into a dense accumulator per pending
// query — and a deterministic k-way merge gathers the per-shard top-k
// lists. Results are bit-identical to running Retrieve per query on the
// monolithic index (the differential tests in sharded_test.go enforce
// this):
//
//   - term statistics and collection statistics are global (segments
//     share one physical index), so per-posting scores are the very same
//     float64s;
//   - per-query contributions accumulate in ascending term order — each
//     query's sorted term list is a subsequence of the sorted scatter
//     plan — exactly the order Retrieve uses, so the non-associative
//     float additions happen in the same sequence;
//   - the merge orders by (score desc, doc asc), Retrieve's tie-break,
//     and shard doc ranges are disjoint, so no new ties can appear.

// scatterTarget says "query q wants this term with multiplicity mult".
type scatterTarget struct {
	q    int
	mult float64
}

// scatterTerm is one dictionary term of the batch's term union with the
// queries it must be scattered to.
type scatterTerm struct {
	stats   index.TermStats
	targets []scatterTarget
}

// scatterRef is one (term, query) pair of the batch before the plan
// groups the pairs by term.
type scatterRef struct {
	term string
	q    int
	mult float64
}

// batchScratch is one batch retrieval's working state: the per-query
// term folds, the scatter plan, the per-shard scoring space and the merge
// cursors. It lives in a sync.Pool, so a RetrieveBatchOpts or
// RetrieveShardBatch call allocates only what it returns — the outer
// slice and one list per query with hits — and nothing of it outlives
// the pool's next clearing.
//
// Its per-query and per-term lists are windows of one backing array each,
// taken as the array is appended to. A window stays valid when the array
// later outgrows its backing: append never writes to an array it has
// left.
type batchScratch struct {
	qterms  [][]string  // query q's distinct terms, ascending: a window of terms
	qmults  [][]float64 // their multiplicities: a window of mults
	terms   []string
	mults   []float64
	refs    []scatterRef
	plan    []scatterTerm
	targets []scatterTarget // every plan term's targets, term by term
	table   []float64       // the model's max-score table; nil: no query prunes
	pruned  []bool
	shards  []*shardScratch // one per shard scored, in shard order
	errs    []error
	lists   [][]Hit
	merge   merger
}

var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// release hands the scratch, and every shard scratch it holds, back to
// the pools, dropping what it references of the caller's queries and of
// the index.
func (b *batchScratch) release() {
	for _, sc := range b.shards {
		sc.release()
	}
	clear(b.shards)
	clear(b.qterms)
	clear(b.terms)
	clear(b.refs)
	clear(b.lists)
	clear(b.errs)
	b.shards, b.lists, b.table = b.shards[:0], b.lists[:0], nil
	batchPool.Put(b)
}

// grow returns s resliced to length n, reallocated when its capacity is
// short. The contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// prepare resolves everything about a query batch that is shard-
// independent: per-query sorted terms and multiplicities, the scatter
// plan over the term union, and — when pruning is requested and the
// model's max-score table is installed — the per-query pruned flags. It
// reports false when no query has a term. Both the all-shards gather
// (RetrieveBatchOpts) and the single-shard worker path
// (RetrieveShardBatch) plan here, so a remote worker scores its shard
// with exactly the plan the in-process fan-out would have used — the
// first half of the distributed tier's bit-identity argument (the other
// half is that per-query accumulation order depends only on the query's
// own sorted terms, never on the rest of the batch).
func (b *batchScratch) prepare(idx *index.Index, queries [][]string, ks []int, opts BatchOptions, model Model) bool {
	nq := len(queries)
	b.qterms, b.qmults = grow(b.qterms, nq), grow(b.qmults, nq)
	b.terms, b.mults = b.terms[:0], b.mults[:0]
	for q, toks := range queries {
		from := len(b.terms)
		b.terms, b.mults = appendTermMultiplicities(b.terms, b.mults, toks)
		b.qterms[q], b.qmults[q] = nil, nil // a query without terms
		if n := len(b.terms); n > from {
			b.qterms[q], b.qmults[q] = b.terms[from:n:n], b.mults[from:n:n]
		}
	}
	if len(b.terms) == 0 {
		return false
	}
	b.buildPlan(idx)

	b.table, b.pruned = nil, b.pruned[:0]
	if opts.Prune {
		if table := maxScoreTable(idx, model); table != nil {
			b.pruned = grow(b.pruned, nq)
			anyPruned := false
			for q := range queries {
				b.pruned[q] = ks[q] > 0 && b.qterms[q] != nil
				anyPruned = anyPruned || b.pruned[q]
			}
			if anyPruned {
				b.table = table
			} else {
				b.pruned = b.pruned[:0]
			}
		}
	}
	return true
}

// prunes reports whether query q runs the MaxScore evaluator.
func (b *batchScratch) prunes(q int) bool { return b.table != nil && b.pruned[q] }

// buildPlan resolves the union of all query terms against the dictionary,
// in ascending term order, grouping the queries interested in each term.
// Unindexed terms are dropped (they contribute no postings).
func (b *batchScratch) buildPlan(idx *index.Index) {
	b.refs = b.refs[:0]
	for q := range b.qterms {
		for i, t := range b.qterms[q] {
			b.refs = append(b.refs, scatterRef{term: t, q: q, mult: b.qmults[q][i]})
		}
	}
	// A query's terms are distinct, so (term, query) orders the pairs
	// totally.
	slices.SortFunc(b.refs, func(x, y scatterRef) int {
		if c := strings.Compare(x.term, y.term); c != 0 {
			return c
		}
		return cmp.Compare(x.q, y.q)
	})
	b.plan, b.targets = b.plan[:0], b.targets[:0]
	refs := b.refs
	for i := 0; i < len(refs); {
		j := i
		for j < len(refs) && refs[j].term == refs[i].term {
			j++
		}
		if tstats, ok := idx.Lookup(refs[i].term); ok {
			from := len(b.targets)
			for _, r := range refs[i:j] {
				b.targets = append(b.targets, scatterTarget{q: r.q, mult: r.mult})
			}
			n := len(b.targets)
			b.plan = append(b.plan, scatterTerm{stats: tstats, targets: b.targets[from:n:n]})
		}
		i = j
	}
}

// shardScratch is one shard's scoring space within a batch: a goroutine
// scoring a shard owns one. out[q] is query q's hits on the shard — Doc
// global, Score final, sorted by (score desc, doc asc) — valid until the
// scratch is released. Its per-query lists are windows, as batchScratch's
// are.
type shardScratch struct {
	accs    []*accumulator
	cursors []msCursor   // every pruned query's cursors, query by query
	qcurs   [][]msCursor // query q's cursors; nil once handed to maxscoreTopK
	live    []scatterTarget
	top     topKScratch
	hits    []Hit // every query's hits, query by query
	out     [][]Hit
}

var shardScratchPool = sync.Pool{New: func() any { return new(shardScratch) }}

func (sc *shardScratch) release() {
	clear(sc.cursors) // iterator copies: released, but they point at scratch
	clear(sc.qcurs)
	clear(sc.hits)
	clear(sc.out)
	shardScratchPool.Put(sc)
}

// scoreShard runs the batch's scatter plan over shard si: a single pass
// over the shard's posting sub-slices feeding one pooled accumulator per
// query, then a bounded top-k selection per query, into sc.out.
// Cancellation is checked once per plan term — the natural preemption
// point between posting-list traversals.
//
// Queries flagged in pruned leave the shared scatter pass and run the
// MaxScore evaluator over shard-ranged iterators of the same lists
// instead (the table carries the per-term bounds; global maxima, hence
// valid for any document sub-range). A pruned query gives up the batch's
// term-score sharing but skips whole posting blocks by header; per-shard
// results are bit-identical either way, so the merge cannot tell.
func (b *batchScratch) scoreShard(ctx context.Context, seg *index.Segmented, si int, model Model,
	queries [][]string, ks []int, sc *shardScratch) error {
	shard := seg.Shard(si)
	idx := seg.Index()
	cstats := idx.Stats()
	lo, _ := shard.DocRange()
	nq := len(queries)
	plan, table := b.plan, b.table

	// Cursor lists for the pruned queries, assembled off the plan: the
	// plan is in ascending term order and each query's term list is a
	// subsequence of it, so plan order is the accumulation order. Each
	// cursor gets its OWN shard-ranged iterator (iterators carry decode
	// state and pooled scratch, so they cannot be shared). Ownership passes
	// to maxscoreTopK query by query; the deferred sweep releases whatever
	// an early error leaves behind (Release is a no-op for never-decoded
	// iterators).
	sc.qcurs = grow(sc.qcurs, nq)
	clear(sc.qcurs)
	if table != nil {
		defer func() {
			for _, cs := range sc.qcurs {
				for i := range cs {
					cs[i].it.Release()
				}
			}
		}()
		bkey := boundKey(model)
		sc.cursors = sc.cursors[:0]
		for q := range queries {
			if !b.pruned[q] {
				continue
			}
			from := len(sc.cursors)
			for ti := range plan {
				st := &plan[ti]
				for _, tgt := range st.targets {
					if tgt.q != q {
						continue
					}
					it := shard.Iter(st.stats.ID)
					it.SetBlockMax(idx.TermBlockMax(bkey, st.stats.ID))
					sc.cursors = append(sc.cursors, msCursor{
						it:    it,
						stats: st.stats,
						mult:  tgt.mult,
						ub:    tgt.mult * table[st.stats.ID],
						order: len(sc.cursors) - from,
					})
				}
			}
			n := len(sc.cursors)
			sc.qcurs[q] = sc.cursors[from:n:n]
		}
	}

	sc.accs = grow(sc.accs, nq)
	clear(sc.accs)
	anyExhaustive := false
	for q := range sc.accs {
		if len(queries[q]) == 0 || b.prunes(q) {
			continue
		}
		acc := accPool.Get().(*accumulator)
		acc.reset(shard.NumDocs())
		sc.accs[q] = acc
		anyExhaustive = true
	}
	defer func() {
		for _, acc := range sc.accs {
			if acc != nil {
				accPool.Put(acc)
			}
		}
		clear(sc.accs)
	}()

	if anyExhaustive {
		scratch := scoreTablePool.Get().(*scoreTables)
		defer scoreTablePool.Put(scratch)
		tab := &scratch.take(1)[0]
		termScore := model.TermScore
		for ti := range plan {
			if err := ctx.Err(); err != nil {
				return err
			}
			st := &plan[ti]
			targets := st.targets
			if table != nil {
				// Strip pruned queries' targets; skip the traversal when
				// nobody on the exhaustive path wants this term.
				live := sc.live[:0]
				for _, tgt := range targets {
					if !b.pruned[tgt.q] {
						live = append(live, tgt)
					}
				}
				sc.live = live
				if len(live) == 0 {
					continue
				}
				targets = live
			}
			it := shard.Iter(st.stats.ID)
			tab.Reset()
			for blk := it.NextBlock(); blk != nil; blk = it.NextBlock() {
				for _, p := range blk {
					s := tab.Score(termScore, p.TF, idx.DocLen(p.Doc), st.stats, cstats)
					if s == 0 {
						continue
					}
					local := p.Doc - lo
					for _, tgt := range targets {
						sc.accs[tgt.q].add(local, tgt.mult*s)
					}
				}
			}
			it.Release()
		}
	}

	sc.hits = sc.hits[:0]
	sc.out = grow(sc.out, nq)
	heap := &sc.top.heap
	for q, acc := range sc.accs {
		from := len(sc.hits)
		var items []topk.Item[int32]
		switch {
		case b.prunes(q):
			// Ownership of the cursors (and their iterators) transfers to
			// maxscoreTopK; drop our reference so the deferred sweep does
			// not double-release.
			cs := sc.qcurs[q]
			sc.qcurs[q] = nil
			var err error
			if items, err = maxscoreTopK(ctx, idx, model, len(queries[q]), cs, ks[q], &sc.top); err != nil {
				return err
			}
		case acc != nil && len(acc.touched) > 0:
			qLen := len(queries[q])
			heap.Reset(boundFor(ks[q], len(acc.touched)))
			for _, local := range acc.touched {
				doc := local + lo
				score := acc.scores[local] + model.DocAdjust(float64(idx.DocLen(doc)), qLen, cstats)
				heap.Push(doc, score, int64(doc))
			}
			items = heap.DrainSorted()
		}
		for _, it := range items {
			sc.hits = append(sc.hits, Hit{Doc: it.Value, Score: it.Score})
		}
		n := len(sc.hits)
		sc.out[q] = sc.hits[from:n:n]
	}
	return nil
}

// merger is the deterministic k-way merge of per-shard hit lists, with
// its cursor heap kept between merges.
type merger struct{ cursors [][]Hit }

var mergerPool = sync.Pool{New: func() any { return new(merger) }}

// merge returns the k best hits of lists (k <= 0: all of them), each
// list already sorted by (score desc, doc asc): a cursor min-heap pops
// the globally best head until k hits are gathered. Shard doc ranges are
// disjoint, so the (score, doc) order is total and the output is unique.
// The result is a list of its own, exactly as long as it needs to be —
// except that, with alias, a single list with hits is returned cut to
// length rather than copied.
func (m *merger) merge(lists [][]Hit, k int, alias bool) []Hit {
	cursors := m.cursors[:0]
	total := 0
	for _, l := range lists {
		if len(l) > 0 {
			cursors = append(cursors, l)
			total += len(l)
		}
	}
	defer func() { clear(cursors); m.cursors = cursors[:0] }()
	if len(cursors) == 0 {
		return nil
	}
	want := total
	if k > 0 && k < want {
		want = k
	}
	if len(cursors) == 1 {
		if alias {
			return cursors[0][:want]
		}
		return append(make([]Hit, 0, want), cursors[0][:want]...)
	}
	// cursors is a binary min-heap ordered by "head hit wins": higher
	// score first, lower doc on ties.
	headBefore := func(a, b []Hit) bool {
		if a[0].Score != b[0].Score {
			return a[0].Score > b[0].Score
		}
		return a[0].Doc < b[0].Doc
	}
	h := cursors
	siftDown := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			best := i
			if l < len(h) && headBefore(h[l], h[best]) {
				best = l
			}
			if r < len(h) && headBefore(h[r], h[best]) {
				best = r
			}
			if best == i {
				return
			}
			h[i], h[best] = h[best], h[i]
			i = best
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(i)
	}
	out := make([]Hit, 0, want)
	for len(out) < want {
		out = append(out, h[0][0])
		if rest := h[0][1:]; len(rest) > 0 {
			h[0] = rest
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
			if len(h) == 0 {
				break
			}
		}
		siftDown(0)
	}
	return out
}

// BatchOptions tunes a RetrieveBatchOpts round.
type BatchOptions struct {
	// Prune enables MaxScore dynamic pruning for the queries it can
	// serve exactly: the model must be Boundable with its max-score
	// table installed on the index, and the query must bound its result
	// size (k > 0 — "all matches" admits no threshold). Everything else
	// keeps the exhaustive shared-scatter path. Results are bit-identical
	// either way; only the work differs.
	Prune bool
}

// RetrieveBatchOpts evaluates a batch of analyzed queries against the
// segmented index in one scatter-gather round: every shard is visited by
// exactly one worker no matter how many queries are pending, and each
// worker computes each (term, posting) model score once, sharing it
// across all queries containing the term. ks[i] bounds query i's result
// size (<= 0 means all matches). The per-query results are bit-identical
// to Retrieve(seg.Index(), model, queries[i], ks[i]), with opts.Prune or
// without. Each list is the caller's; the working state is pooled.
//
// ctx cancellation aborts the remaining shard work and returns the
// context's error — the serving layer threads request contexts here so
// shed or disconnected requests stop consuming shard workers.
func RetrieveBatchOpts(ctx context.Context, seg *index.Segmented, model Model, queries [][]string, ks []int, opts BatchOptions) ([][]Hit, error) {
	if len(queries) != len(ks) {
		panic("ranking: RetrieveBatchOpts queries/ks length mismatch")
	}
	out := make([][]Hit, len(queries))
	if len(queries) == 0 {
		return out, nil
	}
	idx := seg.Index()
	b := batchPool.Get().(*batchScratch)
	defer b.release()
	if !b.prepare(idx, queries, ks, opts, model) {
		return out, nil
	}

	shards := seg.NumShards()
	for si := 0; si < shards; si++ {
		b.shards = append(b.shards, shardScratchPool.Get().(*shardScratch))
	}
	if shards == 1 {
		if err := b.scoreShard(ctx, seg, 0, model, queries, ks, b.shards[0]); err != nil {
			return nil, err
		}
	} else {
		var wg sync.WaitGroup
		b.errs = grow(b.errs, shards)
		for si := 0; si < shards; si++ {
			wg.Add(1)
			go func(si int) {
				defer wg.Done()
				b.errs[si] = b.scoreShard(ctx, seg, si, model, queries, ks, b.shards[si])
			}(si)
		}
		wg.Wait()
		for _, err := range b.errs {
			if err != nil {
				return nil, err
			}
		}
	}

	for q := range queries {
		if b.qterms[q] == nil {
			continue
		}
		b.lists = b.lists[:0]
		for _, sc := range b.shards {
			b.lists = append(b.lists, sc.out[q])
		}
		hits := b.merge.merge(b.lists, ks[q], false)
		for i := range hits {
			hits[i].DocID = idx.DocID(hits[i].Doc)
			hits[i].Rank = i + 1
		}
		out[q] = hits
	}
	return out, nil
}

// MergeSegments merges per-segment hit lists — each already sorted by
// (score desc, doc asc) with globalized Doc numbers and DocIDs filled —
// into one top-k list with the same deterministic order, reassigning
// ranks. It is the cross-segment gather of the live index's search path:
// the same k-way merge the sharded scorer uses, so stitching segment
// results cannot introduce order differences a single-segment run would
// not have.
func MergeSegments(lists [][]Hit, k int) []Hit {
	m := mergerPool.Get().(*merger)
	hits := m.merge(lists, k, true)
	mergerPool.Put(m)
	for i := range hits {
		hits[i].Rank = i + 1
	}
	return hits
}
