// Package engine assembles the search-engine substrate: it indexes a
// corpus through the text analysis chain, retrieves ranked result lists
// under a pluggable weighting model (DPH by default, as in §5), and
// produces the query-biased snippets that serve as document surrogates —
// "actually only short summaries, and not whole documents, can be used
// without significative loss in the precision of our method" (§4.1). It
// also implements the surrogate store whose memory footprint §4.1
// estimates as N·|S_q̂|·|R_q̂′|·L bytes.
package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/index"
	"repro/internal/ranking"
	"repro/internal/text"
	"repro/internal/textsim"
)

// Document is one raw corpus document.
type Document struct {
	ID    string
	Title string
	Body  string
}

// Result is one retrieved document with its display snippet.
type Result struct {
	DocID   string
	Rank    int // 1-based
	Score   float64
	Snippet string
}

// Config tunes engine construction.
type Config struct {
	// Model is the weighting model; nil means DPH (the paper's baseline).
	// Retrieval prunes whenever the model is ranking.Boundable: per-block
	// and per-term score upper bounds are computed at build time (or read
	// back from the index image), and Block-Max MaxScore top-k evaluation
	// skips postings — whole blocks of them undecoded — that provably
	// cannot enter the result. Results are bit-identical to exhaustive
	// scoring, which the other models (LMDirichlet) keep.
	Model ranking.Model
	// Analyzer is the analysis chain; nil means stopwords + Porter.
	Analyzer *text.Analyzer
	// SnippetWindow is the surrogate length in raw tokens. 0 means 30.
	SnippetWindow int
	// Shards is the number of index segments retrieval fans out over.
	// 0 means 1 at build time; at Load/OpenIndexFile time 0 keeps the
	// partition the image records. Results are bit-identical at any shard
	// count — only parallelism changes.
	Shards int
	// MemtableCap bounds the in-memory write buffer: once Ingest has
	// buffered this many live documents the memtable is flushed into an
	// immutable segment automatically. 0 means 1024; negative disables
	// auto-flush (explicit Flush/Compact only).
	MemtableCap int
	// Mmap makes OpenIndexFile serve RIDX7 index files in place from a
	// read-only file mapping instead of reading them onto a heap slab:
	// instant startup (no copy of the block region) and page-cache-shared
	// memory across processes serving the same file. Ignored by
	// Build/Load (they own their heap state).
	Mmap bool
	// WALDir, when non-empty, makes flushes and compactions durable: each
	// sealed epoch is persisted to an epoch file (RENG3) in this directory
	// (written to a temp file, fsynced, atomically renamed) BEFORE the
	// in-memory swap, and Build/Load recover the newest parseable epoch on
	// startup. Ingest/Delete epochs between seals are not persisted — a
	// crash rolls the buffered tail back to the last sealed epoch.
	WALDir string
}

func (c Config) withDefaults() Config {
	if c.Model == nil {
		c.Model = ranking.DPH{}
	}
	if c.Analyzer == nil {
		c.Analyzer = text.NewAnalyzer()
	}
	if c.SnippetWindow == 0 {
		c.SnippetWindow = 30
	}
	return c
}

// Engine is a search engine over an LSM-style segment lifecycle: an
// immutable base state built (or loaded) up front, a mutable in-memory
// write buffer fed by Ingest/Delete, flushes that seal the buffer into
// immutable segments, and compactions that fold everything back into one
// freshly built base. Searches never block on mutations — they load the
// current state once (an atomic pointer) and run entirely against that
// snapshot, while mutators build the next state and publish it with a
// single atomic swap.
type Engine struct {
	cfg Config
	// mu serializes mutations (Ingest/Delete/Flush/Compact). Searches
	// never take it.
	mu  sync.Mutex
	cur atomic.Pointer[state]

	// durable is the newest epoch sealed into the WAL (guarded by mu;
	// meaningful only when cfg.WALDir is set). Flush consults it so a
	// delete-only interval — empty memtable, fresh tombstones — still
	// reaches disk.
	durable uint64

	// closed latches Close: the current state's reference has been
	// dropped and no further searches may start.
	closed atomic.Bool

	flushes     atomic.Uint64
	compactions atomic.Uint64

	// memSrc caches the memtable view's searchable wrapper (forward.go).
	memSrc atomic.Pointer[memSource]
}

// segment is one searchable source of a snapshot — an immutable sealed
// segment, or the memtable's sealed view: its index (forward index
// included) plus the raw text of its documents, for snippet text and
// compaction replay.
type segment struct {
	// seg owns the segment's index as a set of contiguous document
	// shards; retrieval fans out over them (one shard degenerates to the
	// sequential path). The physical index is shared across shards, so
	// statistics — and therefore scores — stay collection-global within
	// the segment.
	seg *index.Segmented
	// docs serves raw text by document number — an owned table for
	// built/loaded segments, a payload view for mapped ones (see docStore).
	docs docStore
	// xlat maps the index's term numbers to the snapshot lexicon's IDs.
	// nil for the base segment, whose dictionary IS the lexicon's base.
	xlat []int32
}

// state is one consistent snapshot of the engine: the sealed segments
// (oldest first), the delete set, and the live write buffer. A document's
// LIVE version is its newest copy: the memtable's if buffered there,
// otherwise the newest segment's — and only if its ID is not in dead.
// Older copies are superseded structurally (a newer source holds the ID);
// dead holds only fully deleted IDs, so re-ingesting clears the tombstone.
type state struct {
	// stateData is embedded, not inlined, so clone can copy the logical
	// snapshot wholesale WITHOUT touching refs: a plain struct copy of
	// the whole state would read refs non-atomically while a concurrent
	// search's pin CASes it — a data race (mixed atomic/non-atomic
	// access to one word), even though the copied value is discarded.
	stateData
	// refs counts holders of this state: 1 for being the engine's
	// current state, plus 1 per in-flight pinned search. Each state also
	// holds one reference on every mapped segment index it contains
	// (taken at construction/clone); the last unpin releases them, so an
	// epoch swap retiring a mapped segment never unmaps under a reader.
	refs int32
}

// stateData is the logical snapshot content — everything immutable once
// the state is published, safe to copy with a struct assignment.
type stateData struct {
	epoch uint64
	segs  []*segment
	// dead is the tombstone set: IDs whose sealed copies are all deleted.
	// Invariant: no ID in dead is live in the memtable.
	dead map[string]bool
	mem  *index.Memtable
	// shadowed counts sealed document copies that are dead or superseded
	// — exactly the hits a search may have to filter, so retrieving
	// k+shadowed per source keeps top-k exact.
	shadowed int
	live     int // live documents across segments and memtable
	idf      textsim.SliceIDF
	// lex interns surrogate terms for the similarity hot paths. Its
	// sorted base is the base segment's dictionary (lexicographic by the
	// Build invariant), so every term of every base document — hence
	// every snippet term — gets an ID whose order equals string order,
	// so dot products accumulate in string order. Terms of
	// out-of-collection text (including memtable-only terms) land in the
	// dynamic overflow region.
	lex *textsim.Lexicon
	// dict is the lazily computed fingerprint of the base dictionary lex
	// wraps; it lives and is replaced with lex (see Dictionary).
	dict *dictPrint
}

// pin takes a read reference on the state. It fails once refs hit zero —
// the state was retired and its mapped segments may already be unmapped —
// in which case the caller must reload the current state and retry.
func (st *state) pin() bool {
	for {
		r := atomic.LoadInt32(&st.refs)
		if r <= 0 {
			return false
		}
		if atomic.CompareAndSwapInt32(&st.refs, r, r+1) {
			return true
		}
	}
}

// unpin drops a reference; the last one releases the state's hold on its
// mapped segments (the matching Retain was taken at construction).
func (st *state) unpin() {
	if atomic.AddInt32(&st.refs, -1) != 0 {
		return
	}
	for _, sg := range st.segs {
		sg.seg.Index().Release()
	}
}

// retainMapped takes this state's reference on every mapped segment it
// holds (no-ops for heap segments). Called once per state, at
// construction — the matching Release runs at the final unpin.
func (st *state) retainMapped() {
	for _, sg := range st.segs {
		sg.seg.Index().Retain()
	}
}

// snapshot loads and pins the current state. Searches run entirely
// against the returned snapshot and must unpin it when done. The retry
// loop covers the race where a mutator retires the loaded state between
// Load and pin; if the engine is Closed the drained state is returned
// unpinned (searching a closed engine is a documented bug — this only
// keeps the failure mode tame).
func (e *Engine) snapshot() *state {
	for {
		st := e.cur.Load()
		if st.pin() {
			return st
		}
		if e.cur.Load() == st {
			return st
		}
	}
}

// clone returns a mutable copy of the state sharing the immutable pieces:
// the segments slice (copied before append), the memtable pointer (the
// shared live tail between flushes), and the lexicon/IDF of the base
// segment. The dead set is deep-copied. Only stateData is copied — refs
// belongs to the old state's readers and is CASed concurrently.
func (st *state) clone() *state {
	ns := &state{stateData: st.stateData, refs: 1}
	ns.dead = make(map[string]bool, len(st.dead))
	for k, v := range st.dead {
		ns.dead[k] = v
	}
	ns.retainMapped()
	return ns
}

// sealedHas returns the newest segment holding a copy of id.
func (st *state) sealedHas(id string) (int, bool) {
	for j := len(st.segs) - 1; j >= 0; j-- {
		if _, ok := st.segs[j].docs.Ordinal(id); ok {
			return j, true
		}
	}
	return 0, false
}

// sealedLive reports whether segment si's copy of id is the live version:
// not deleted, and not superseded by a newer segment or the memtable view.
func (st *state) sealedLive(si int, id string, mv *index.MemView) bool {
	if st.dead[id] || mv.Has(id) {
		return false
	}
	for j := si + 1; j < len(st.segs); j++ {
		if _, ok := st.segs[j].docs.Ordinal(id); ok {
			return false
		}
	}
	return true
}

// quiet reports whether the snapshot degenerates to a single immutable
// segment with nothing to filter — the batch-built shape, searched on the
// exact pre-lifecycle code path.
func (st *state) quiet(mv *index.MemView) bool {
	return len(st.segs) == 1 && st.shadowed == 0 && mv == nil
}

// Build analyzes and indexes the corpus. Duplicate document IDs are an
// error (propagated from the index builder).
func Build(docs []Document, cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	b := index.NewBuilder()
	raw := newHeapDocs(len(docs))
	analyzer := cfg.Analyzer.ForPass()
	var tokens []string
	var lens []int32
	for _, d := range docs {
		t := docText{title: d.Title, body: d.Body}
		tokens, lens = analyze(analyzer, t, tokens[:0], lens[:0])
		if err := b.AddFields(d.ID, tokens, lens); err != nil {
			return nil, err
		}
		raw.add(d.ID, t)
	}
	shards := cfg.Shards
	if shards < 1 {
		shards = 1
	}
	seg := b.BuildSegmented(shards)
	e := newEngine(cfg, seg, raw)
	if err := e.openWAL(); err != nil {
		return nil, err
	}
	return e, nil
}

// newEngine assembles an Engine around a segmented index and its raw
// document store — shared by Build and Load. The lexicon wraps the index
// dictionary (sorted by the Build invariant), and the IDF table is the
// ID-indexed walk of the same dictionary. Max-score tables for the
// registered boundable models plus the configured one are installed
// here, while the index is still privately owned: fresh builds compute
// them, images arrive with them (and get any missing ones computed) —
// so pruning works identically whichever way the engine came to be.
func newEngine(cfg Config, seg *index.Segmented, docs docStore) *Engine {
	e := &Engine{cfg: cfg}
	e.cur.Store(freshState(cfg, seg, docs, 0))
	return e
}

// freshState builds the single-segment state every engine starts (and
// every compaction ends) in: max-score tables installed while the index
// is still privately owned (and a forward index rebuilt from the bodies
// when the index came without one), lexicon wrapped around the
// dictionary, IDF table derived from it, empty tombstones, empty memtable.
func freshState(cfg Config, seg *index.Segmented, docs docStore, epoch uint64) *state {
	idx := seg.Index()
	installTables(cfg, idx)
	ensureForward(cfg, idx, docs)
	lex := textsim.WrapSortedTerms(idx.Terms())
	st := &state{
		stateData: stateData{
			epoch: epoch,
			segs:  []*segment{{seg: seg, docs: docs}},
			dead:  make(map[string]bool),
			mem:   index.NewMemtable(),
			live:  idx.NumDocs(),
			idf:   textsim.ComputeIDFFromIndex(idx),
			lex:   lex,
			dict:  new(dictPrint),
		},
		refs: 1,
	}
	st.retainMapped()
	return st
}

// pruneOpts is the retrieval option every search path shares: prune
// wherever the model allows it.
var pruneOpts = ranking.BatchOptions{Prune: true}

// installTables installs max-score tables for the registered boundable
// models plus the configured one: fresh builds compute them, images
// arrive with the ones their writer had and get the rest computed — so
// pruning works identically whichever way the segment came to be.
func installTables(cfg Config, idx *index.Index) {
	models := append(ranking.PrecomputableModels(), cfg.Model)
	if err := ranking.InstallMaxScores(idx, models...); err != nil {
		// Only reachable through a table/dictionary size mismatch,
		// which InstallMaxScores cannot produce from its own
		// ComputeMaxScores output.
		panic(err)
	}
}

// Index exposes the base segment's inverted index (read-only use).
func (e *Engine) Index() *index.Index { return e.cur.Load().segs[0].seg.Index() }

// Segments exposes the base segment's shard partition (read-only use):
// the serving layer reports it in /stats, and benchmarks resegment it to
// sweep shard counts.
func (e *Engine) Segments() *index.Segmented { return e.cur.Load().segs[0].seg }

// Model returns the engine's weighting model.
func (e *Engine) Model() ranking.Model { return e.cfg.Model }

// NumDocs returns the number of live documents across segments and the
// write buffer. For a batch-built engine this is the collection size.
func (e *Engine) NumDocs() int { return e.cur.Load().live }

// Search retrieves the top-k documents for the raw query and attaches
// query-biased snippets. k <= 0 retrieves all matches.
func (e *Engine) Search(query string, k int) []Result {
	out, _, _ := e.SearchStamped(context.Background(), query, k) // cannot fail: Background never cancels
	return out
}

// SearchStamped is Search with request-scoped cancellation — the retrieval
// fan-out checks ctx between posting-list traversals, and the only
// possible error is ctx.Err() — plus the epoch of the snapshot the search
// ran against: the whole search — retrieval, filtering, merging, snippet
// extraction — uses one atomically loaded state, so the stamp certifies
// which mutations the results reflect.
func (e *Engine) SearchStamped(ctx context.Context, query string, k int) ([]Result, uint64, error) {
	st := e.snapshot()
	defer st.unpin()
	out, err := e.searchBatchState(ctx, st, []string{query}, []int{k})
	if err != nil {
		return nil, st.epoch, err
	}
	return out[0], st.epoch, nil
}

// ShardHit is one per-shard retrieval hit as ShardHits.Each hands it to
// the distributed tier's frame encoder. Doc is the global internal
// document number (shard doc ranges are disjoint), which the router's
// k-way merge uses as its deterministic tie-break; Rank is a property of
// the merged list and is assigned router-side.
type ShardHit struct {
	Doc   int32
	DocID string
	Score float64
	// Terms is the snippet window's sorted term numbers, one entry per
	// occurrence — base lexicon IDs, because workers serve the base
	// segment only. Valid during the callback; nil without windows.
	Terms []int32

	w hitWindow
}

// Snippet cuts the hit's query-biased snippet out of its document. Only
// hits walked with windows have one.
func (h *ShardHit) Snippet() string { return h.w.snippet() }

// ShardHits is a query batch retrieved against ONE shard of the base
// segment, over a pinned snapshot, with the per-hit work — picking the
// snippet window, cutting its text — left to the walk the caller asks
// for. Close must be called; it releases the snapshot.
type ShardHits struct {
	// Epoch is the snapshot's epoch, so a router can detect replicas that
	// have diverged from the common world; Dict fingerprints the
	// dictionary Terms are numbered in.
	Epoch uint64
	Dict  DictFingerprint

	r *retrieval // nil once closed
}

// SearchShard answers a query batch against ONE shard of the base
// segment — the worker half of the distributed serving tier. The lists
// are sorted by (score desc, doc asc) and truncated to ks[i] (<= 0 keeps
// all matches); merging the lists of every shard with
// ranking.MergeSegments reproduces SearchBatch bit for bit (scores
// depend only on collection-global statistics, so a worker holding the
// full deterministic index computes the very same float64s the
// in-process fan-out would).
//
// Workers serve immutable replicas: the engine must be quiescent (a
// fresh Build/Load with no pending mutations), because the live
// lifecycle's shadowed-copy filtering is a cross-segment property the
// per-shard path cannot apply exactly. A non-quiescent engine returns
// an error rather than silently approximate results.
func (e *Engine) SearchShard(ctx context.Context, si int, queries []string, ks []int) (*ShardHits, error) {
	st := e.snapshot()
	sh, err := e.searchShard(ctx, st, si, queries, ks)
	if err != nil {
		st.unpin()
		return nil, err
	}
	return sh, nil
}

func (e *Engine) searchShard(ctx context.Context, st *state, si int, queries []string, ks []int) (*ShardHits, error) {
	if !st.quiet(st.mem.View()) {
		return nil, errors.New("engine: shard search requires a quiescent index (no pending mutations)")
	}
	seg := st.segs[0].seg
	if si < 0 || si >= seg.NumShards() {
		return nil, fmt.Errorf("engine: shard %d out of range [0,%d)", si, seg.NumShards())
	}
	r := e.newRetrieval(st, st.segs[:1], queries)
	var err error
	r.hits, err = ranking.RetrieveShardBatch(ctx, seg, si, e.cfg.Model, r.qToks, ks, pruneOpts)
	if err != nil {
		return nil, err
	}
	return &ShardHits{Epoch: st.epoch, Dict: st.dict.of(seg.Index().Terms()), r: r}, nil
}

// Len returns the number of hits of query q.
func (s *ShardHits) Len(q int) int { return len(s.r.hits[q]) }

// Each walks the hits of query q in rank order. With windows every hit
// carries its snippet window (Terms, Snippet) out of the forward index;
// without, the walk touches nothing but the hit list. h is reused
// between calls. The only possible error is ctx.Err().
func (s *ShardHits) Each(ctx context.Context, q int, windows bool, f func(h *ShardHit)) error {
	var h ShardHit
	if !windows {
		for _, hit := range s.r.hits[q] {
			h = ShardHit{Doc: hit.Doc, DocID: hit.DocID, Score: hit.Score}
			f(&h)
		}
		return nil
	}
	return s.r.windows(ctx, q, func(_ int, w hitWindow) {
		h = ShardHit{Doc: w.Doc, DocID: w.DocID, Score: w.Score, Terms: w.terms, w: w}
		f(&h)
	})
}

// Close releases the snapshot the hits were retrieved against.
// Idempotent.
func (s *ShardHits) Close() {
	if s.r != nil {
		s.r.st.unpin()
		s.r = nil
	}
}

// SearchBatch answers a batch of queries in ONE scatter-gather round over
// the index segments: each shard is traversed by a single worker that
// scores every pending query per pass (see ranking.RetrieveBatchOpts).
// ks[i] bounds query i's result size. Per-query output is bit-identical to
// Search(queries[i], ks[i]) — Pipeline.BuildProblem batches the main query
// with all its specialization retrievals through here.
func (e *Engine) SearchBatch(ctx context.Context, queries []string, ks []int) ([][]Result, error) {
	st := e.snapshot()
	defer st.unpin()
	return e.searchBatchState(ctx, st, queries, ks)
}

// searchBatchState answers a query batch against one loaded snapshot:
// retrieve, then cut every hit's snippet out of its text at the window
// the forward index picked.
func (e *Engine) searchBatchState(ctx context.Context, st *state, queries []string, ks []int) ([][]Result, error) {
	r, err := e.retrieve(ctx, st, queries, ks)
	if err != nil {
		return nil, err
	}
	out := make([][]Result, len(queries))
	for i, hits := range r.hits {
		rs := make([]Result, len(hits))
		err := r.windows(ctx, i, func(j int, w hitWindow) {
			rs[j] = Result{DocID: w.DocID, Rank: w.Rank, Score: w.Score, Snippet: w.snippet()}
		})
		if err != nil {
			return nil, err
		}
		out[i] = rs
	}
	return out, nil
}

// newRetrieval analyzes the batch's queries for a retrieval over srcs.
func (e *Engine) newRetrieval(st *state, srcs []*segment, queries []string) *retrieval {
	r := &retrieval{st: st, srcs: srcs, w: e.cfg.SnippetWindow, qToks: make([][]string, len(queries))}
	for i, q := range queries {
		r.qToks[i] = e.cfg.Analyzer.Tokens(q)
	}
	return r
}

// retrieve runs the batch's retrieval against one loaded snapshot. The
// quiet fast path is the exact pre-lifecycle code; the general path
// retrieves k+shadowed per source (sealed segments plus the memtable
// view), filters superseded and deleted sealed copies, globalizes doc
// numbers by source offset and k-way merges — exact top-k, because at
// most `shadowed` hits per source can be filtered away.
func (e *Engine) retrieve(ctx context.Context, st *state, queries []string, ks []int) (*retrieval, error) {
	mv := st.mem.View()
	r := e.newRetrieval(st, e.sources(st, mv), queries)
	if st.quiet(mv) {
		var err error
		r.hits, err = ranking.RetrieveBatchOpts(ctx, st.segs[0].seg, e.cfg.Model, r.qToks, ks, pruneOpts)
		return r, err
	}

	segN := len(st.segs)
	kp := make([]int, len(ks))
	for i, k := range ks {
		kp[i] = k
		if k > 0 {
			kp[i] = k + st.shadowed
		}
	}
	lists := make([][][]ranking.Hit, len(queries))
	for i := range lists {
		lists[i] = make([][]ranking.Hit, 0, len(r.srcs))
	}
	off := int32(0)
	for si, src := range r.srcs {
		res, err := ranking.RetrieveBatchOpts(ctx, src.seg, e.cfg.Model, r.qToks, kp, pruneOpts)
		if err != nil {
			return nil, err
		}
		for q, hl := range res {
			if si < segN {
				kept := hl[:0]
				for _, h := range hl {
					if st.sealedLive(si, h.DocID, mv) {
						kept = append(kept, h)
					}
				}
				hl = kept
			}
			for j := range hl {
				hl[j].Doc += off
			}
			lists[q] = append(lists[q], hl)
		}
		off += int32(src.seg.Index().NumDocs())
	}
	r.hits = make([][]ranking.Hit, len(queries))
	for q := range queries {
		r.hits[q] = ranking.MergeSegments(lists[q], ks[q])
	}
	return r, nil
}

// Snippet returns the query-biased snippet of a document: the
// SnippetWindow-token window of the raw text containing the most query
// term matches (earliest such window on ties). An unknown or deleted
// document yields the empty string; a document with no match yields its
// leading window.
func (e *Engine) Snippet(docID, query string) string {
	st := e.snapshot()
	defer st.unpin()
	if st.dead[docID] { // by invariant not buffered either
		return ""
	}
	// The live version is the newest copy: the memtable view's (the last
	// source) if buffered there, else the newest segment's.
	srcs := e.sources(st, st.mem.View())
	for s := len(srcs) - 1; s >= 0; s-- {
		sg := srcs[s]
		if d, ok := sg.docs.Ordinal(docID); ok {
			sc := fwdScratchPool.Get().(*fwdScratch)
			defer fwdScratchPool.Put(sc)
			q := termSet(sg.seg.Index(), e.cfg.Analyzer.Tokens(query))
			lo, hi, _ := sg.window(d, q, e.cfg.SnippetWindow, sc)
			return sg.docs.Text(d).cut(lo, hi)
		}
	}
	return ""
}

// Lexicon returns the engine's term lexicon — the interning dictionary
// every IVectorOfText result is expressed in. Problems built from this
// engine's vectors carry it as their Problem.Lex. Compaction swaps
// in a fresh lexicon over the rebuilt dictionary; interned vectors from
// different epochs compare safely (the similarity kernels are sorted-ID
// merge joins), though cross-epoch cosines are not bit-stable — the
// serving layer keys its caches by epoch for exactly this reason.
func (e *Engine) Lexicon() *textsim.Lexicon { return e.cur.Load().lex }

// IVectorOfText analyzes arbitrary text and returns its IDF-weighted
// surrogate vector under the base segment's collection statistics,
// interned under Lexicon(): the reference route to the vectors the
// forward index counts (Candidates.Vector), bit for bit.
func (e *Engine) IVectorOfText(s string) textsim.IVector {
	st := e.cur.Load()
	return st.idf.InternTokens(st.lex, e.cfg.Analyzer.Tokens(s))
}
