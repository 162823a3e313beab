package ranking

import (
	"context"
	"sort"
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

// buildScatterPlan resolves the union of all query terms against the
// dictionary, in ascending term order, grouping the queries interested in
// each term. Unindexed terms are dropped (they contribute no postings).
func buildScatterPlan(idx *index.Index, qterms [][]string, qmults [][]float64) []scatterTerm {
	type ref struct {
		term string
		q    int
		mult float64
	}
	var refs []ref
	for q := range qterms {
		for i, t := range qterms[q] {
			refs = append(refs, ref{term: t, q: q, mult: qmults[q][i]})
		}
	}
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].term != refs[j].term {
			return refs[i].term < refs[j].term
		}
		return refs[i].q < refs[j].q
	})
	var plan []scatterTerm
	for i := 0; i < len(refs); {
		j := i
		for j < len(refs) && refs[j].term == refs[i].term {
			j++
		}
		if tstats, ok := idx.Lookup(refs[i].term); ok {
			st := scatterTerm{stats: tstats, targets: make([]scatterTarget, 0, j-i)}
			for _, r := range refs[i:j] {
				st.targets = append(st.targets, scatterTarget{q: r.q, mult: r.mult})
			}
			plan = append(plan, st)
		}
		i = j
	}
	return plan
}

// shardHits is the per-shard output for one query: hits with global Doc
// and final Score, sorted by (score desc, doc asc); DocID and Rank are
// filled after the gather.
type shardHits []Hit

// scoreShard runs the batch's scatter plan over one shard: a single pass
// over the shard's posting sub-slices feeding one pooled accumulator per
// query, then a bounded top-k selection per query. Cancellation is
// checked once per plan term — the natural preemption point between
// posting-list traversals.
//
// Queries flagged in pruned leave the shared scatter pass and run the
// MaxScore evaluator over shard-ranged iterators of the same lists
// instead, each against its own local heap (table carries the per-term
// bounds; global maxima, hence valid for any document sub-range). A
// pruned query gives up the batch's term-score sharing but skips whole
// posting blocks by header; per-shard results are bit-identical either
// way, so the merge cannot tell.
func scoreShard(ctx context.Context, seg *index.Segmented, shard index.Shard, model Model,
	plan []scatterTerm, queries [][]string, ks []int, table []float64, pruned []bool) ([]shardHits, error) {
	idx := seg.Index()
	cstats := idx.Stats()
	lo, _ := shard.DocRange()
	nq := len(queries)

	// Cursor lists for the pruned queries, assembled off the plan: the
	// plan is in ascending term order and each query's term list is a
	// subsequence of it, so append order is the accumulation order. Each
	// cursor gets its OWN shard-ranged iterator (iterators carry decode
	// state and pooled scratch, so they cannot be shared). Ownership passes to maxscoreTopK query by
	// query; the deferred sweep releases whatever an early error leaves
	// behind (Release is a no-op for never-decoded iterators).
	var msCursors [][]msCursor
	bkey := boundKey(model)
	if table != nil {
		msCursors = make([][]msCursor, nq)
		defer func() {
			for _, cs := range msCursors {
				for i := range cs {
					cs[i].it.Release()
				}
			}
		}()
		for ti := range plan {
			st := &plan[ti]
			for _, tgt := range st.targets {
				if !pruned[tgt.q] {
					continue
				}
				it := shard.Iter(st.stats.ID)
				it.SetBlockMax(idx.TermBlockMax(bkey, st.stats.ID))
				msCursors[tgt.q] = append(msCursors[tgt.q], msCursor{
					it:    it,
					stats: st.stats,
					mult:  tgt.mult,
					ub:    tgt.mult * table[st.stats.ID],
					order: len(msCursors[tgt.q]),
				})
			}
		}
	}

	accs := make([]*accumulator, nq)
	anyExhaustive := false
	for q := range accs {
		if len(queries[q]) == 0 || (pruned != nil && pruned[q]) {
			continue
		}
		acc := accPool.Get().(*accumulator)
		acc.reset(shard.NumDocs())
		accs[q] = acc
		anyExhaustive = true
	}
	defer func() {
		for _, acc := range accs {
			if acc != nil {
				accPool.Put(acc)
			}
		}
	}()

	if anyExhaustive {
		scratch := scoreTablePool.Get().(*scoreTables)
		defer scoreTablePool.Put(scratch)
		tab := &scratch.take(1)[0]
		termScore := model.TermScore
		for ti := range plan {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			st := &plan[ti]
			targets := st.targets
			if table != nil {
				// Strip pruned queries' targets; skip the traversal when
				// nobody on the exhaustive path wants this term.
				live := targets[:0:0]
				for _, tgt := range targets {
					if !pruned[tgt.q] {
						live = append(live, tgt)
					}
				}
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
						accs[tgt.q].add(local, tgt.mult*s)
					}
				}
			}
			it.Release()
		}
	}

	out := make([]shardHits, nq)
	for q, acc := range accs {
		if pruned != nil && pruned[q] {
			// Ownership of the cursors (and their iterators) transfers to
			// maxscoreTopK; drop our reference so the deferred sweep does
			// not double-release.
			cs := msCursors[q]
			msCursors[q] = nil
			items, err := maxscoreTopK(ctx, idx, model, len(queries[q]), cs, ks[q])
			if err != nil {
				return nil, err
			}
			if len(items) == 0 {
				continue
			}
			hits := make(shardHits, len(items))
			for i, it := range items {
				hits[i] = Hit{Doc: it.Value, Score: it.Score}
			}
			out[q] = hits
			continue
		}
		if acc == nil || len(acc.touched) == 0 {
			continue
		}
		qLen := len(queries[q])
		heap := topk.NewBounded[int32](boundFor(ks[q], len(acc.touched)))
		for _, local := range acc.touched {
			doc := local + lo
			score := acc.scores[local] + model.DocAdjust(float64(idx.DocLen(doc)), qLen, cstats)
			heap.Push(doc, score, int64(doc))
		}
		items := heap.DrainSorted()
		hits := make(shardHits, len(items))
		for i, it := range items {
			hits[i] = Hit{Doc: it.Value, Score: it.Score}
		}
		out[q] = hits
	}
	return out, nil
}

// mergeHits performs the deterministic k-way merge of per-shard hit
// lists: each list is already sorted by (score desc, doc asc), and a
// cursor min-heap pops the globally best head until k hits are gathered
// (k <= 0 merges everything). Shard doc ranges are disjoint, so the
// (score, doc) order is total and the output is unique.
func mergeHits(lists []shardHits, k int) []Hit {
	live := lists[:0:0]
	total := 0
	for _, l := range lists {
		if len(l) > 0 {
			live = append(live, l)
			total += len(l)
		}
	}
	if len(live) == 0 {
		return nil
	}
	want := total
	if k > 0 && k < want {
		want = k
	}
	if len(live) == 1 {
		out := live[0]
		if len(out) > want {
			out = out[:want]
		}
		return out
	}
	// cursors is a binary min-heap ordered by "head hit wins": higher
	// score first, lower doc on ties.
	cursors := make([]shardHits, len(live))
	copy(cursors, live)
	headBefore := func(a, b shardHits) bool {
		if a[0].Score != b[0].Score {
			return a[0].Score > b[0].Score
		}
		return a[0].Doc < b[0].Doc
	}
	siftDown := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			best := i
			if l < len(cursors) && headBefore(cursors[l], cursors[best]) {
				best = l
			}
			if r < len(cursors) && headBefore(cursors[r], cursors[best]) {
				best = r
			}
			if best == i {
				return
			}
			cursors[i], cursors[best] = cursors[best], cursors[i]
			i = best
		}
	}
	for i := len(cursors)/2 - 1; i >= 0; i-- {
		siftDown(i)
	}
	out := make([]Hit, 0, want)
	for len(out) < want {
		out = append(out, cursors[0][0])
		if rest := cursors[0][1:]; len(rest) > 0 {
			cursors[0] = rest
		} else {
			cursors[0] = cursors[len(cursors)-1]
			cursors = cursors[:len(cursors)-1]
			if len(cursors) == 0 {
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

// batchPlan resolves everything about a query batch that is shard-
// independent: per-query sorted terms and multiplicities, the scatter
// plan over the term union, and — when pruning is requested and the
// model's max-score table is installed — the per-query pruned flags.
// Both the all-shards gather (RetrieveBatchOpts) and the single-shard
// worker path (RetrieveShardBatch) build their plan here, so a remote
// worker scores its shard with exactly the plan the in-process fan-out
// would have used — the first half of the distributed tier's
// bit-identity argument (the other half is that per-query accumulation
// order depends only on the query's own sorted terms, never on the rest
// of the batch).
func batchPlan(idx *index.Index, queries [][]string, ks []int, opts BatchOptions, model Model) (qterms [][]string, plan []scatterTerm, table []float64, pruned []bool, any bool) {
	qterms = make([][]string, len(queries))
	qmults := make([][]float64, len(queries))
	for q, toks := range queries {
		if len(toks) == 0 {
			continue
		}
		qterms[q], qmults[q] = termMultiplicities(toks)
		any = true
	}
	if !any {
		return qterms, nil, nil, nil, false
	}
	plan = buildScatterPlan(idx, qterms, qmults)

	if opts.Prune {
		if table = maxScoreTable(idx, model); table != nil {
			pruned = make([]bool, len(queries))
			anyPruned := false
			for q := range queries {
				pruned[q] = ks[q] > 0 && qterms[q] != nil
				anyPruned = anyPruned || pruned[q]
			}
			if !anyPruned {
				table, pruned = nil, nil
			}
		}
	}
	return qterms, plan, table, pruned, true
}

// RetrieveBatchOpts evaluates a batch of analyzed queries against the
// segmented index in one scatter-gather round: every shard is visited by
// exactly one worker no matter how many queries are pending, and each
// worker computes each (term, posting) model score once, sharing it
// across all queries containing the term. ks[i] bounds query i's result
// size (<= 0 means all matches). The per-query results are bit-identical
// to Retrieve(seg.Index(), model, queries[i], ks[i]), with opts.Prune or
// without.
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

	qterms, plan, table, pruned, any := batchPlan(idx, queries, ks, opts, model)
	if !any {
		return out, nil
	}

	shards := seg.NumShards()
	perShard := make([][]shardHits, shards)
	if shards == 1 {
		hits, err := scoreShard(ctx, seg, seg.Shard(0), model, plan, queries, ks, table, pruned)
		if err != nil {
			return nil, err
		}
		perShard[0] = hits
	} else {
		var wg sync.WaitGroup
		errs := make([]error, shards)
		for si := 0; si < shards; si++ {
			wg.Add(1)
			go func(si int) {
				defer wg.Done()
				perShard[si], errs[si] = scoreShard(ctx, seg, seg.Shard(si), model, plan, queries, ks, table, pruned)
			}(si)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}

	lists := make([]shardHits, 0, shards)
	for q := range queries {
		if qterms[q] == nil {
			continue
		}
		lists = lists[:0]
		for si := 0; si < shards; si++ {
			lists = append(lists, perShard[si][q])
		}
		hits := mergeHits(lists, ks[q])
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
	sh := make([]shardHits, len(lists))
	for i, l := range lists {
		sh[i] = l
	}
	hits := mergeHits(sh, k)
	for i := range hits {
		hits[i].Rank = i + 1
	}
	return hits
}
