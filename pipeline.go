// Package repro is the public facade of this reproduction of
// "Efficient Diversification of Web Search Results" (Capannini, Nardini,
// Perego, Silvestri — PVLDB 4(7), 2011). It wires the full §3 pipeline:
//
//	query log → logical sessions (cut by chaining probability) → recommender A(q)
//	          → AmbiguousQueryDetect (Algorithm 1) → specializations S_q
//	corpus    → inverted index → DPH retrieval → R_q and the R_q′ lists
//	          → utilities Ũ(d|R_q′) (Definition 2)
//	          → OptSelect / xQuAD / IASelect → diversified SERP
//
// The examples/ directory shows the intended use. cmd/repro's
// subcommands (efficiency, trecdiv, utilityfig; loggen and mine for the
// log stages; diversify, the interactive front end), cmd/footprint and
// the root benchmarks regenerate the paper's tables and figures through
// this API; cmd/buildindex persists the index; and the serving stack
// (cmd/serve backed by internal/server plus ServeHandle, load-tested by
// cmd/loadgen) runs the same pipeline as a concurrent HTTP service with
// cached per-query artifacts.
package repro

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/qfg"
	"repro/internal/ranking"
	"repro/internal/suggest"
	"repro/internal/synth"
	"repro/internal/textsim"
)

// Config assembles the knobs of the full pipeline. The zero value plus
// the synth defaults reproduce the paper's §5 setup at laptop scale.
type Config struct {
	// Corpus generates the document collection and TREC-style testbed.
	Corpus synth.CorpusSpec
	// Log generates the training query log (zero value: AOL-like preset
	// with 4000 sessions).
	Log synth.LogSpec
	// Engine configures analysis and the weighting model (default DPH).
	Engine engine.Config
	// PrebuiltEngine, when non-nil, is used as the pipeline's engine
	// instead of building one from the synthetic corpus — the path
	// cmd/serve takes when pointed at a persisted index file (-index,
	// optionally mmap-served). The caller must have built or loaded it
	// over the same deterministic world Config.Corpus describes: the
	// testbed and query log are still generated from Corpus/Log, and the
	// recommender mines queries that must resolve against this engine's
	// collection.
	PrebuiltEngine *engine.Engine
	// Session configures query-flow-graph session splitting.
	Session qfg.Options
	// Detect configures Algorithm 1 (ambiguity detection).
	Detect suggest.DetectOptions

	// NumCandidates is |R_q|, the size of the retrieved list to
	// diversify. The paper's Table 3 uses 25000. Default 1000.
	NumCandidates int
	// PerSpec is |R_q′|, the stored results per specialization (paper: 20).
	PerSpec int
	// K is the diversified result size (paper's Table 3: 1000). Default 20.
	K int
	// Lambda is λ (paper: 0.15).
	Lambda float64
	// Threshold is the utility threshold c (paper sweeps 0…0.75).
	Threshold float64
	// MaxSpecs caps |S_q| (the paper selects the k most probable when
	// |S_q| > k; a small cap keeps SERPs sane). Default 10.
	MaxSpecs int
}

func (c Config) withDefaults() Config {
	if c.Log.Sessions == 0 {
		c.Log = synth.AOLLike(c.Corpus.Seed+1, 4000)
	}
	if c.Detect.S == 0 && c.Detect.MaxCandidates == 0 {
		c.Detect = suggest.DefaultDetectOptions()
	}
	if c.NumCandidates == 0 {
		c.NumCandidates = 1000
	}
	if c.PerSpec == 0 {
		c.PerSpec = 20
	}
	if c.K == 0 {
		c.K = 20
	}
	if c.Lambda == 0 {
		c.Lambda = 0.15
	}
	if c.MaxSpecs == 0 {
		c.MaxSpecs = 10
	}
	return c
}

// Searcher is the document-scoring dependency of the Pipeline: the
// retrieval fan-out behind R_q and every R_q′ list. A freshly Built
// pipeline scores against its own Engine; the distributed serving tier
// (internal/router) swaps in a scatter-gatherer over remote shard-worker
// processes. Any implementation must return output bit-identical to the
// local engine over the same deterministic world — the deterministic
// k-way merge makes that achievable across process boundaries, and the
// router's differential tests enforce it.
//
// SearchBatch answers queries[i] with its top-ks[i] results (ks[i] <= 0
// means all matches), snippets attached: the reference route
// Pipeline.BuildProblem and Diversify take, strict even where Score may
// degrade. Score is the serving path's route: the same retrieval, bit for
// bit, in the two halves DiversifyServe needs them — the lists now, a
// candidate's surrogate vector only when asked for afterwards (see
// Scored). dict is the pipeline engine's dictionary, which a remote
// implementation checks its workers' against and counts their term
// numbers under; vectors false promises no vector will be asked for,
// which lets an implementation skip gathering what vectors are made of.
// Neither method may keep queries or ks once it has returned: the serving
// route lends them from a pool.
//
// The only error a conforming implementation may return for local
// serving is ctx.Err(), but distributed searchers also surface scatter
// failures (every replica of some shard unreachable).
type Searcher interface {
	SearchBatch(ctx context.Context, queries []string, ks []int) ([][]engine.Result, error)
	Score(ctx context.Context, dict engine.Dictionary, queries []string, ks []int, vectors bool) (*Scored, error)
}

// Scored is one scoring fan-out between the two halves of the document
// scoring phase: the lists are retrieved, their surrogate vectors not yet
// built. The local engine counts them out of its forward index against
// the snapshot the retrieval pinned; the router's searcher out of the
// term numbers its shard frames brought.
type Scored struct {
	// Lists[i] answers queries[i], in rank order: the retrieval's own hit
	// lists, the one copy of them the request holds.
	Lists [][]ranking.Hit
	// Info reports a degraded or hedged fan-out (always zero locally).
	Info SearchInfo
	// Vector builds the surrogate vector of candidate j of Lists[q], and
	// of no other, carved out of slab (nil: allocated on its own); it is
	// the one way a vector enters. The caller owns slab and so decides
	// how long the vector lives: the bounded selection asks only for the
	// candidates it scores, each into scratch it rewinds for the next;
	// every other reader asks for all of them into a slab it keeps. Nil
	// when the fan-out was told no vector would be read. Not safe for
	// concurrent use.
	Vector func(q, j int, slab *textsim.Slab) (textsim.IVector, error)
	// Close releases what the retrieval holds and must be called, once.
	// The lists, and the vectors carved into a slab the caller keeps, stay
	// valid after Close; Vector and the Scored itself do not.
	Close func()
}

// LocalSearcher is the Searcher a pipeline without an override scores
// through: the engine itself.
func LocalSearcher(e *engine.Engine) Searcher { return localSearcher{e} }

type localSearcher struct{ *engine.Engine }

func (l localSearcher) Score(ctx context.Context, _ engine.Dictionary, queries []string, ks []int, _ bool) (*Scored, error) {
	c, err := l.Candidates(ctx, queries, ks)
	if err != nil {
		return nil, err
	}
	ls := localScoredPool.Get().(*localScored)
	ls.c, ls.sc.Lists = c, c.Lists
	return &ls.sc, nil
}

// localScored is a local fan-out's Scored beside the candidates its
// Vector reads. It is pooled with Vector and Close bound once, so a
// request's Score allocates nothing beyond the retrieval; Close hands it
// back.
type localScored struct {
	sc Scored
	c  *engine.Candidates
}

var localScoredPool sync.Pool

func init() { // apart from the declaration: close refers to the pool
	localScoredPool.New = func() any {
		ls := new(localScored)
		ls.sc.Vector, ls.sc.Close = ls.vector, ls.close
		return ls
	}
}

func (ls *localScored) vector(q, j int, slab *textsim.Slab) (textsim.IVector, error) {
	return ls.c.Vector(q, j, slab), nil
}

func (ls *localScored) close() {
	ls.c.Close()
	ls.c, ls.sc.Lists = nil, nil
	localScoredPool.Put(ls)
}

// SearchInfo is per-request serving metadata reported by a tail-tolerant
// Searcher: whether the scatter degraded (some shard's results are
// missing because its whole replica pool was down or its sub-budget
// expired) and whether any shard's answer came from a hedged attempt.
// Local engines always report the zero value — retrieval against the
// in-process index cannot partially fail, and there is nothing to hedge.
type SearchInfo struct {
	// Degraded: the result lists were merged from a strict subset of the
	// shards. The response is still correctly ordered over the documents
	// it covers, but the bit-identity contract with a single-process
	// serve does NOT apply to it.
	Degraded bool
	// Hedged: at least one shard's list was answered by a hedge attempt
	// (a duplicate request fired when the primary replica ran slow).
	// Hedging never changes result bytes — it is purely informational.
	Hedged bool
}

// Merge folds another fan-out's metadata into this one (flags are
// sticky: a request is degraded/hedged if any of its stages was).
func (i *SearchInfo) Merge(o SearchInfo) {
	i.Degraded = i.Degraded || o.Degraded
	i.Hedged = i.Hedged || o.Hedged
}

// Pipeline is a fully assembled diversification system. It holds what
// serving reads: the engine and the recommender A(q) with its popularity
// function f(·). The query log and the sessions mined from it are the
// offline phase's input and are dropped once the recommender is trained.
type Pipeline struct {
	Config      Config
	Testbed     *synth.Testbed
	Engine      *engine.Engine
	Recommender *suggest.Recommender
	// LogRecords and MinedSessions count the training log's records and
	// the logical sessions cut from it.
	LogRecords    int
	MinedSessions int

	// Searcher overrides where the document scoring phase runs. Nil means
	// the local Engine. The distributed router sets this to its
	// scatter-gatherer over shard-worker pools; everything else about the
	// pipeline (Algorithm 1, utilities, selection) stays local.
	Searcher Searcher

	// store is the §4.1 artifact store Build fills; a pointer, so that
	// copies of the pipeline share it.
	store *artifactStore
}

// searcher resolves the active scoring backend.
func (p *Pipeline) searcher() Searcher {
	if p.Searcher != nil {
		return p.Searcher
	}
	return localSearcher{p.Engine}
}

// Build generates the testbed, indexes the corpus, generates and mines the
// query log, trains the recommender, and ends the offline phase as §4.1
// does: the artifacts of every mined ambiguous query are built into a
// store that serving reads before its cache. Everything is deterministic
// given Config.Corpus.Seed and Config.Log.Seed.
//
// The testbed keeps no documents (Testbed.Docs is nil): the engine holds
// their text, and nothing serving reads needs them again.
func Build(cfg Config) (*Pipeline, error) {
	cfg = cfg.withDefaults()
	tb := synth.GenerateTestbed(cfg.Corpus)
	p := &Pipeline{Config: cfg, Testbed: tb, Engine: cfg.PrebuiltEngine}

	// The two halves of the paper's offline phase share nothing but the
	// testbed, which both only read: the log is generated and mined beside
	// the index build, and goes out of scope with the goroutine.
	mined := make(chan struct{})
	go func() {
		defer close(mined)
		log := synth.GenerateLog(tb, cfg.Log)
		sessions := qfg.ExtractSessions(log, cfg.Session)
		p.Recommender = suggest.Train(sessions, log.Frequencies(), suggest.TrainOptions{})
		p.LogRecords, p.MinedSessions = log.Len(), len(sessions)
	}()
	var err error
	if p.Engine == nil {
		p.Engine, err = engine.Build(tb.Docs, cfg.Engine)
	}
	<-mined
	if err != nil {
		return nil, fmt.Errorf("repro: building engine: %w", err)
	}
	tb.Docs = nil
	p.store = p.buildStore()
	return p, nil
}

// DetectSpecializations runs Algorithm 1 on the query: a nil result means
// the query is not ambiguous and its results should not be diversified.
func (p *Pipeline) DetectSpecializations(query string) []suggest.Specialization {
	specs := suggest.AmbiguousQueryDetect(query, p.Recommender, p.Config.Detect)
	return suggest.TopSpecializations(specs, p.Config.MaxSpecs)
}

// candidatesFromResults converts a retrieved R_q into diversification
// candidates.
//
// P(d|q) is "the likelihood of document d being observed given q"
// (§3.1.2), derived from the retrieval score max-normalized over R_q.
// (The other reading — sum-normalizing into a distribution — makes the
// (1-λ)·P(d|q) term of Equations (5)/(9) microscopic and collapses
// every method into pure utility ordering; max-normalization keeps the
// two terms on the comparable footing the paper's λ = 0.15 implies.)
// The mapping — including the minimum-score shift that keeps
// negative-total models like LMDirichlet in [0,1] — lives in
// exec.RelNormalizer, shared with the engine's fused scan so both plans
// normalize through the same code.
func (p *Pipeline) candidatesFromResults(results []engine.Result) []core.Doc {
	candidates := make([]core.Doc, len(results))
	if len(results) == 0 {
		return candidates
	}
	var rn exec.RelNormalizer
	for i := range results {
		rn.Observe(results[i].Score)
	}
	for i, r := range results {
		candidates[i] = core.Doc{
			ID:   r.DocID,
			Rank: r.Rank,
			Rel:  rn.Rel(r.Score),
			IVec: p.Engine.IVectorOfText(r.Snippet),
		}
	}
	return candidates
}

// specFromResults converts a retrieved R_q′ into the core representation.
func (p *Pipeline) specFromResults(s suggest.Specialization, specResults []engine.Result) core.Specialization {
	rs := make([]core.SpecResult, len(specResults))
	for i, r := range specResults {
		rs[i] = core.SpecResult{
			ID:   r.DocID,
			Rank: r.Rank,
			IVec: p.Engine.IVectorOfText(r.Snippet),
		}
	}
	return core.Specialization{Query: s.Query, Prob: s.Prob, Results: rs}
}

// newProblem assembles a Problem from already-built parts, applying the
// configured k/λ/c parameters. Candidates and specialization results are
// already interned under the engine's lexicon, which the problem carries
// as Lex. It is a value, so a request's problem lives on its stack.
func (p *Pipeline) newProblem(query string, candidates []core.Doc, specs []core.Specialization) core.Problem {
	return core.Problem{
		Query:      query,
		Candidates: candidates,
		Specs:      specs,
		K:          p.Config.K,
		Lambda:     p.Config.Lambda,
		Threshold:  p.Config.Threshold,
		Lex:        p.Engine.Lexicon(),
	}
}

// BuildProblem assembles the core diversification problem for an
// ambiguous query: R_q (relevance normalized to P(d|q)), one R_q′
// snippet-surrogate list per specialization, and the configured k/λ/c
// parameters. The R_q retrieval and all |S_q| specialization retrievals
// go out as ONE SearchBatch — the §6 architecture "performing the
// diversification task in parallel with the document scoring phase": each
// shard scores every pending query in a single pass over its postings.
//
// This is the reference route the serving path is compared against, so it
// is strict: against the local engine the batch cannot fail, and when a
// distributed Searcher reports a scatter failure the problem comes back
// with no candidates and empty lists — never with lists merged from the
// shards that happened to answer.
func (p *Pipeline) BuildProblem(query string, specs []suggest.Specialization) *core.Problem {
	queries := make([]string, 1+len(specs))
	ks := make([]int, 1+len(specs))
	queries[0], ks[0] = query, p.Config.NumCandidates
	for i, s := range specs {
		queries[1+i], ks[1+i] = s.Query, p.Config.PerSpec
	}
	lists, err := p.searcher().SearchBatch(context.Background(), queries, ks)
	if err != nil {
		lists = make([][]engine.Result, len(queries))
	}
	var specLists []core.Specialization
	for i, s := range specs {
		specLists = append(specLists, p.specFromResults(s, lists[1+i]))
	}
	problem := p.newProblem(query, p.candidatesFromResults(lists[0]), specLists)
	return &problem
}

// Diversify answers a query end to end: detect ambiguity, build the
// problem, and run the chosen algorithm. For unambiguous queries it
// returns the plain retrieval baseline and a nil specialization list.
func (p *Pipeline) Diversify(query string, alg core.Algorithm) ([]core.Selected, []suggest.Specialization) {
	specs := p.DetectSpecializations(query)
	problem := p.BuildProblem(query, specs)
	if len(specs) == 0 {
		return core.Baseline(problem), nil
	}
	return core.Diversify(alg, problem), specs
}
