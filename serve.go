package repro

import (
	"context"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/index"
	"repro/internal/ranking"
	"repro/internal/suggest"
	"repro/internal/text"
	"repro/internal/textsim"
)

// queryArtifacts is what the serving cache stores per normalized query:
// the outcome of Algorithm 1 and the R_q′ lists of every detected
// specialization — everything that is query-dependent but
// request-independent. A nil Specs means the query was detected as
// unambiguous; caching that verdict is just as valuable, since it skips
// the recommender walk on every repeat. Cached artifacts are shared
// across concurrent requests and must never be mutated.
type queryArtifacts struct {
	Specs []suggest.Specialization
	// SpecLists keep each result's ID and rank; their surrogate vectors
	// live in Aspects only.
	SpecLists []core.Specialization
	// Aspects is the one inverted index Definition 2 scores every
	// candidate through, built once here instead of per request. It
	// replaces the result vectors rather than sitting beside them: the
	// benchmark holds live heap to 2 %, and both would not fit.
	Aspects *core.AspectIndex
	// Bounds is what the bounded OptSelect knows about SpecLists before a
	// candidate has a vector (nil with no specializations).
	Bounds *core.SpecBounds
}

// ServeHandle is the concurrency-safe serving facade over a warm
// Pipeline. The artifacts of every mined ambiguous query come from the
// store Build precomputed (§4.1); the rest — other queries' verdicts and
// artifacts, and every query once the engine has moved past the store's
// epoch — are built on a miss and memoized in a sharded LRU (package
// cache). Either way, a request with its artifacts skips Algorithm 1 and
// the |S_q| specialization retrievals and pays only for the R_q
// retrieval plus the selection algorithm. It is the building block of
// the internal/server subsystem.
type ServeHandle struct {
	Pipeline *Pipeline
	cache    *cache.Cache[*queryArtifacts]

	// Miss coalescing (singleflight): concurrent first requests for the
	// same normalized query join the leader's build instead of each
	// running Algorithm 1 and the |S_q| retrievals redundantly — without
	// it, a cold start under Zipf-skewed load grinds every worker on
	// duplicate builds of the same head query.
	mu       sync.Mutex
	inflight map[string]*artifactCall
	builds   int64 // completed artifact builds (leaders only), for tests/stats

	storeHits atomic.Int64 // requests Build's store answered

	// Work counts what requests actually paid for.
	Work SelectionWork
}

// SelectionWork is a handle's running totals: how deep its requests'
// retrievals went and, over the diversified ones (an ambiguous query under
// a diversifying algorithm), how much of R_q the selection looked at.
// OptSelect is served by core.OptSelectBounded, which scores — and builds
// the surrogate vector of — only the candidates that can still enter a
// heap; xQuAD and IASelect read whole columns of the utility matrix and
// MMR every pairwise distance, so they build and score everything.
type SelectionWork struct {
	// CandidatesRetrieved sums the |R_q| retrieval returned, over every
	// request: NumCandidates deep where the request may diversify, k deep
	// where it is known beforehand that it will not (see servedDepth).
	CandidatesRetrieved atomic.Int64
	// CandidatesSeen sums |R_q| over the diversified requests.
	CandidatesSeen atomic.Int64
	// CandidatesWalked sums how far into R_q the selection's walk went
	// before its stop rule fired (core.BoundedWork.Walked): the prefix a
	// retrieval stopping where the selection stops would have needed.
	// All of R_q for the algorithms that read every candidate.
	CandidatesWalked atomic.Int64
	// CandidatesEvaluated sums the candidates the selection scored.
	CandidatesEvaluated atomic.Int64
	// VectorsBuilt sums the R_q surrogate vectors built.
	VectorsBuilt atomic.Int64
}

func (w *SelectionWork) add(seen, walked, evaluated, vectors int) {
	w.CandidatesSeen.Add(int64(seen))
	w.CandidatesWalked.Add(int64(walked))
	w.CandidatesEvaluated.Add(int64(evaluated))
	w.VectorsBuilt.Add(int64(vectors))
}

// artifactCall is one in-flight artifact build; followers block on done.
// degraded records that the leader's fan-out lost a shard (partial-mode
// scatter): the artifacts are served to the leader and every follower of
// this singleflight — a partial R_q′ list still diversifies better than
// none — but they are never cached, and every response built on them
// carries the degraded marker.
type artifactCall struct {
	done     chan struct{}
	art      *queryArtifacts
	degraded bool
}

// NewServeHandle wraps the pipeline with a query-artifact cache of the
// given capacity striped over the given number of shards (see cache.New
// for clamping rules).
func (p *Pipeline) NewServeHandle(capacity, shards int) *ServeHandle {
	return &ServeHandle{
		Pipeline: p,
		cache:    cache.New[*queryArtifacts](capacity, shards),
		inflight: make(map[string]*artifactCall),
	}
}

// CacheStats snapshots the artifact cache counters: the LRU's alone, not
// the requests Build's store answered.
func (h *ServeHandle) CacheStats() cache.Stats { return h.cache.Stats() }

// StoreStats describes Build's artifact store as this handle uses it.
type StoreStats struct {
	// Entries is how many queries the store holds artifacts for.
	Entries int
	// Epoch is the engine epoch the store was built at and serves at.
	Epoch uint64
	// Hits counts the requests of this handle the store answered.
	Hits int64
}

// StoreStats snapshots the store's size and this handle's hits on it.
func (h *ServeHandle) StoreStats() StoreStats {
	st := StoreStats{Hits: h.storeHits.Load()}
	if s := h.Pipeline.store; s != nil {
		st.Entries, st.Epoch = len(s.arts), s.epoch
	}
	return st
}

// DiversifyServe is the serving entry point: it answers a query end to
// end like Pipeline.Diversify, reusing cached artifacts when the
// normalized query has been seen before at this engine epoch, and the
// stored ones while the engine is at the store's epoch. The SERP is
// identical to Diversify(text.NormalizeQuery(query), alg) cut to k (k <= 0
// means the pipeline's configured K; artifacts are k-independent); the
// boolean reports whether the store or the cache served the artifacts.
// Safe for concurrent use.
//
// R_q is retrieved NumCandidates deep when the request may diversify, and
// only k deep — the same SERP, bit for bit — when it is known before
// retrieval starts that it will not: alg is the baseline, or the cache holds
// the query's "not ambiguous" verdict (servedDepth has the argument and the
// one exception).
//
// ctx is threaded into the per-request R_q retrieval fan-out, so a shed or
// client-aborted request stops its shard work mid-flight (locally the only
// possible error is ctx.Err()). The shared artifact build deliberately
// does NOT inherit ctx — its product is cached and served to every
// follower of the singleflight, so one impatient client must not poison
// it.
//
// The SearchInfo is what a tail-tolerant Searcher reports: whether the
// SERP was built from a degraded (shard-missing) candidate set and whether
// any scatter leg was answered by a hedge. Degradation can enter through
// the per-request R_q retrieval or through the artifact build it joined (a
// degraded build is served but never cached); hedging is reported for this
// request's own retrievals only. For local engines the info is always
// zero.
func (h *ServeHandle) DiversifyServe(ctx context.Context, query string, alg core.Algorithm, k int) ([]core.Selected, []suggest.Specialization, bool, SearchInfo, error) {
	p := h.Pipeline
	// Serving normalizes at the edge: the log-mined knowledge (sessions
	// cut by the chaining probability, the recommender trained on them,
	// the popularity function) lives in normalized query space, and
	// normalization is also what makes "Jaguar  Cars" and "jaguar cars"
	// share a cache entry.
	norm := text.NormalizeQuery(query)

	// Artifacts are scoped to an engine epoch: a mutation — ingest,
	// delete, flush, compaction — bumps it, so artifacts computed against
	// an older snapshot are never served after it (a deleted document must
	// not resurface through a stored or cached R_q′ list). Build's store
	// answers first while the engine is at the epoch it was built at; the
	// LRU, keyed by (epoch, normalized query), holds what the store lacks,
	// and its stale-epoch entries age out naturally. The key is assembled
	// on the stack, and made a string only on a miss.
	epoch := p.Engine.Epoch()
	var kb [96]byte
	var key []byte
	art, hit := p.store.get(epoch, norm)
	if hit {
		h.storeHits.Add(1)
	} else {
		key = appendArtifactKey(kb[:0], epoch, norm)
		art, hit = h.cache.Get(key)
	}

	// The document scoring phase runs per request, in two halves: R_q is
	// retrieved now — on a miss beside the artifact build (the §6 parallel
	// architecture), on a hit as the only retrieval left — and a candidate
	// given its surrogate vector only once something will read it.
	// servedDepth decides how deep the retrieval goes, and whether vectors
	// can be asked for at all, from what is known of the verdict by now:
	// all of it on a hit, nothing on a miss. "None" spares a remote fan-out
	// everything but the hit headers.
	var rq *Scored
	var rqErr error
	var info SearchInfo
	if hit {
		depth, vectors := p.servedDepth(alg, k, len(art.Specs) > 0)
		rq, rqErr = p.scoreOne(ctx, norm, depth, vectors)
	} else {
		art, info.Degraded, rq, rqErr = h.miss(ctx, string(key), norm, alg, k)
	}
	if rqErr != nil {
		return nil, nil, hit, info, rqErr
	}
	defer rq.Close()
	info.Merge(rq.Info)
	exec.CountQuery(exec.ModeStaged)

	// OptSelect asks for vectors one candidate at a time, and only for
	// those its bounds cannot rule out; the baseline reads none; the other
	// algorithms read them all.
	ambiguous := len(art.Specs) > 0
	bounded := alg == core.AlgOptSelect
	var vector func(q, j int, slab *textsim.Slab) (textsim.IVector, error)
	if ambiguous && !bounded && alg != core.AlgBaseline {
		vector = rq.Vector
	}
	col := docColumns.Get().(*[]core.Doc)
	defer putDocColumn(col)
	cands, err := candidatesOf(ctx, rq.Lists[0], vector, col)
	if err != nil {
		return nil, nil, hit, info, err
	}
	problem := p.newProblem(norm, cands, art.SpecLists)
	problem.Aspects = art.Aspects
	if k > 0 {
		problem.K = k
	}
	n := len(problem.Candidates)
	h.Work.CandidatesRetrieved.Add(int64(n))
	if !ambiguous {
		return core.Baseline(&problem), nil, hit, info, nil
	}
	if alg == core.AlgBaseline {
		return core.Baseline(&problem), art.Specs, hit, info, nil
	}
	if !bounded {
		h.Work.add(n, n, n, n)
		return core.Diversify(alg, &problem), art.Specs, hit, info, nil
	}
	sel, work, err := core.OptSelectBounded(ctx, &problem, art.Bounds,
		func(i int, slab *textsim.Slab) (textsim.IVector, error) { return rq.Vector(0, i, slab) })
	h.Work.add(n, work.Walked, work.Evaluated, work.Evaluated)
	if err != nil {
		return nil, nil, hit, info, err
	}
	return sel, art.Specs, hit, info, nil
}

// miss runs a miss's two halves side by side: R_q is retrieved on a
// goroutine, as deep as an unknown verdict needs, while this one builds or
// joins the query's artifacts. It is DiversifyServe's miss branch, kept
// apart so that only a miss pays for what the goroutine captures.
func (h *ServeHandle) miss(ctx context.Context, key, norm string, alg core.Algorithm, k int) (art *queryArtifacts, degraded bool, rq *Scored, err error) {
	p := h.Pipeline
	depth, vectors := p.servedDepth(alg, k, true)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rq, err = p.scoreOne(ctx, norm, depth, vectors)
	}()
	art, degraded = h.buildOrJoin(key, norm)
	wg.Wait() // rq and err are the retrieval goroutine's until joined
	return art, degraded, rq, err
}

// servedDepth says how many candidates a request's R_q retrieval asks for,
// and whether any of their surrogate vectors may be read. ambiguous is what
// is known of Algorithm 1's verdict when retrieval starts — true on a miss,
// where nothing is. A request that may diversify selects from all of R_q
// and reads vectors; one that cannot — the baseline asked for by name, or
// a cached "not ambiguous" verdict — is answered by core.Baseline out of
// ID, Rank and Rel of the top k, and may retrieve just those where that is
// exact.
//
// The top k of a retrieval are the first k of any deeper one (one total
// order, score then document number), so stopping at k changes ID, Rank and
// Score of nothing returned. Rel is the score normalized over the whole
// retrieved column (exec.RelNormalizer): a ranking.Boundable model promises
// non-negative scores, which puts the normalizer on its score/max branch,
// and the maximum is rank 1 of the short list and the long one alike. A
// model whose scores go negative (LMDirichlet) is shifted by the column's
// minimum, which only the full depth knows, so it keeps NumCandidates.
func (p *Pipeline) servedDepth(alg core.Algorithm, k int, ambiguous bool) (depth int, vectors bool) {
	depth = p.Config.NumCandidates
	if ambiguous && alg != core.AlgBaseline {
		return depth, true
	}
	if _, ok := p.Engine.Model().(ranking.Boundable); ok {
		if k <= 0 {
			k = p.Config.K
		}
		depth = min(k, depth)
	}
	return depth, false
}

// score runs one scoring fan-out through the active backend — the local
// engine or a remote Searcher, one shape — degrading instead of failing
// where the backend can. vectors says whether Vector may be called.
func (p *Pipeline) score(ctx context.Context, queries []string, ks []int, vectors bool) (*Scored, error) {
	return p.searcher().Score(ctx, p.Engine.Dictionary(), queries, ks, vectors)
}

// scoreArgs are the two one-element slices a one-query fan-out passes to
// Score. They escape through the Searcher interface, so a request borrows
// them from scoreArgsPool rather than allocating them.
type scoreArgs struct {
	queries [1]string
	ks      [1]int
}

var scoreArgsPool = sync.Pool{New: func() any { return new(scoreArgs) }}

// scoreOne is score for one query retrieved depth deep: a request's R_q.
func (p *Pipeline) scoreOne(ctx context.Context, query string, depth int, vectors bool) (*Scored, error) {
	a := scoreArgsPool.Get().(*scoreArgs)
	a.queries[0], a.ks[0] = query, depth
	sc, err := p.score(ctx, a.queries[:], a.ks[:], vectors)
	a.queries[0] = ""
	scoreArgsPool.Put(a)
	return sc, err
}

// candidatesOf converts a retrieved R_q into diversification candidates,
// normalizing relevance as candidatesFromResults does: the one place the
// serving route makes core.Doc. The column is laid out in *col's space,
// which grows to fit. With vector set (for list 0) every candidate is
// given its surrogate vector in the same pass, carved into one slab the
// candidates keep, ctx polled every 64 candidates.
func candidatesOf(ctx context.Context, hits []ranking.Hit, vector func(q, j int, slab *textsim.Slab) (textsim.IVector, error), col *[]core.Doc) ([]core.Doc, error) {
	var rn exec.RelNormalizer
	for i := range hits {
		rn.Observe(hits[i].Score)
	}
	*col = slices.Grow((*col)[:0], len(hits))[:len(hits)]
	docs := *col
	var slab *textsim.Slab
	if vector != nil {
		slab = new(textsim.Slab)
	}
	for j, h := range hits {
		docs[j] = core.Doc{ID: h.DocID, Rank: h.Rank, Rel: rn.Rel(h.Score)}
		if vector == nil {
			continue
		}
		if j&63 == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		var err error
		if docs[j].IVec, err = vector(0, j, slab); err != nil {
			return nil, err
		}
	}
	return docs, nil
}

// docColumns pools the candidate column a request's problem is laid out
// in: no SERP row points into it (a selection copies ID, Rank and Rel),
// so it goes back once DiversifyServe returns.
var docColumns = sync.Pool{New: func() any { return new([]core.Doc) }}

// putDocColumn drops what the column references — the request's IDs and
// vectors — and hands it back.
func putDocColumn(col *[]core.Doc) {
	clear(*col)
	docColumns.Put(col)
}

// appendArtifactKey appends the cache key scoping a normalized query to an
// engine epoch. The NUL separator cannot occur in either part (epochs are
// decimal digits, normalization strips control characters), so keys never
// collide.
func appendArtifactKey(b []byte, epoch uint64, norm string) []byte {
	b = strconv.AppendUint(b, epoch, 10)
	b = append(b, 0)
	return append(b, norm...)
}

// buildOrJoin returns the artifacts for norm under the epoch-scoped cache
// key, building them if this goroutine is the first to ask (the leader
// caches the result) and joining the in-flight build otherwise. The
// singleflight map is keyed like the cache, so requests racing an epoch
// swap coalesce only with builds against their own snapshot. The boolean
// reports a degraded build (partial-mode scatter lost a shard): such
// artifacts serve this singleflight's requests but are never cached.
func (h *ServeHandle) buildOrJoin(key, norm string) (*queryArtifacts, bool) {
	h.mu.Lock()
	if c, ok := h.inflight[key]; ok {
		h.mu.Unlock()
		<-c.done
		if c.art != nil {
			return c.art, c.degraded
		}
		// The leader panicked before producing artifacts; retry as (or
		// joining) a new leader rather than returning nil.
		return h.buildOrJoin(key, norm)
	}
	// Nobody is building: either nobody has, or a leader cached its
	// artifacts and left after this request's Get missed. A leader Puts
	// before it unregisters, both seen from under h.mu, so looking again
	// here tells the two apart. Peek, not Get: the miss is counted once.
	if art, ok := h.cache.Peek(key); ok {
		h.mu.Unlock()
		return art, false
	}
	c := &artifactCall{done: make(chan struct{})}
	h.inflight[key] = c
	h.mu.Unlock()

	// Unregister via defer so a panicking build does not wedge every
	// future request for this query on a never-closed channel.
	defer func() {
		h.mu.Lock()
		delete(h.inflight, key)
		h.builds++
		h.mu.Unlock()
		close(c.done)
	}()
	art, degraded, err := h.buildArtifacts(norm)
	c.art = art
	c.degraded = degraded
	if err == nil && !degraded {
		h.cache.Put(key, art)
	}
	// On error (only a distributed Searcher can fail under Background —
	// a shard with every replica unreachable) or a degraded partial-mode
	// build, the artifact is handed to this request's leader and
	// followers but never cached, so one scatter failure cannot pin a
	// wrong (or shard-incomplete) verdict for the epoch's lifetime.
	return art, degraded
}

// buildArtifacts runs Algorithm 1 and fetches the R_q′ lists: all |S_q|
// specialization retrievals are batched into a single scatter-gather
// round over the index segments (one pass per shard scores every spec's
// query vector), as in BuildProblem. The build runs under
// context.Background() on purpose — see DiversifyServe. Under a Searcher
// configured for partial results a shard outage degrades the lists
// (reported via the boolean) instead of failing the build.
func (h *ServeHandle) buildArtifacts(norm string) (*queryArtifacts, bool, error) {
	p := h.Pipeline
	specs := p.DetectSpecializations(norm)
	if len(specs) == 0 {
		art, err := newArtifacts(specs, nil, nil)
		return art, false, err
	}
	queries := make([]string, len(specs))
	ks := make([]int, len(specs))
	for i, s := range specs {
		queries[i], ks[i] = s.Query, p.Config.PerSpec
	}
	// The posting blocks the aspect batch skipped via Block-Max thresholds
	// are credited to the fused-path stats as a BlockIOStats delta around
	// it, so under concurrent traffic the attribution is approximate (other
	// scans' skips in the window are counted too); the index counters stay
	// exact.
	_, skipped0 := index.BlockIOStats()
	sc, err := p.score(context.Background(), queries, ks, true)
	_, skipped1 := index.BlockIOStats()
	if d := skipped1 - skipped0; d > 0 {
		exec.AddAspectBlocksSkipped(uint64(d))
	}
	if err != nil {
		// Degrade to an empty (baseline-serving) artifact; buildOrJoin
		// will not cache it.
		return &queryArtifacts{}, false, err
	}
	defer sc.Close()
	art, err := newArtifacts(specs, sc.Lists, sc.Vector)
	if err != nil {
		return &queryArtifacts{}, false, err
	}
	return art, sc.Info.Degraded, nil
}

// newArtifacts assembles a query's artifacts from Algorithm 1's verdict
// and the retrieved R_q′ lists, lists[i] answering specs[i] with vector
// building its results' vectors: the one builder behind both the lazy
// miss path and the store Build fills. The vectors are read once, by the
// aspect index, and not kept.
func newArtifacts(specs []suggest.Specialization, lists [][]ranking.Hit, vector func(q, j int, slab *textsim.Slab) (textsim.IVector, error)) (*queryArtifacts, error) {
	art := &queryArtifacts{
		Specs:     specs,
		SpecLists: make([]core.Specialization, len(specs)),
	}
	if len(specs) == 0 {
		return art, nil
	}
	var slab textsim.Slab
	for i, s := range specs {
		rs := make([]core.SpecResult, len(lists[i]))
		for j, h := range lists[i] {
			iv, err := vector(i, j, &slab)
			if err != nil {
				return nil, err
			}
			rs[j] = core.SpecResult{ID: h.DocID, Rank: h.Rank, IVec: iv}
		}
		art.SpecLists[i] = core.Specialization{Query: s.Query, Prob: s.Prob, Results: rs}
	}
	art.Aspects = core.NewAspectIndex(art.SpecLists)
	art.Bounds = art.Aspects.Bounds(art.SpecLists)
	for i := range art.SpecLists {
		for j := range art.SpecLists[i].Results {
			art.SpecLists[i].Results[j].IVec = textsim.IVector{}
		}
	}
	return art, nil
}
