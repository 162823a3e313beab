// Package repro is the public facade of this reproduction of
// "Efficient Diversification of Web Search Results" (Capannini, Nardini,
// Perego, Silvestri — PVLDB 4(7), 2011). It wires the full §3 pipeline:
//
//	query log → logical sessions (query-flow graph) → recommender A(q)
//	          → AmbiguousQueryDetect (Algorithm 1) → specializations S_q
//	corpus    → inverted index → DPH retrieval → R_q and the R_q′ lists
//	          → utilities Ũ(d|R_q′) (Definition 2)
//	          → OptSelect / xQuAD / IASelect → diversified SERP
//
// The examples/ directory shows the intended use. The experiment tools
// (cmd/efficiency, cmd/trecdiv, cmd/utilityfig, cmd/footprint) and the
// root benchmarks regenerate the paper's tables and figures through this
// API; the data tools (cmd/loggen, cmd/mine, cmd/buildindex) expose the
// individual pipeline stages; and the serving stack (cmd/serve backed by
// internal/server plus ServeHandle, load-tested by cmd/loadgen) runs the
// same pipeline as a concurrent HTTP service with cached per-query
// artifacts. cmd/diversify is the interactive command-line front end.
package repro

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/qfg"
	"repro/internal/querylog"
	"repro/internal/suggest"
	"repro/internal/synth"
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

	// Fused enables the fused execution plan on the serving path: cache
	// hits for ambiguous queries run retrieval, candidate
	// materialization, utility scoring and diversification as ONE
	// Block-Max MaxScore scan (engine.SearchFusedStamped) instead of
	// staged passes. Results are bit-identical to the staged plan (the
	// fused differential sweep enforces it); only latency changes. The
	// staged plan remains in use for cache misses (where the artifact
	// build overlaps the scan), for unambiguous queries, for distributed
	// Searchers, and whenever the engine reports the snapshot not
	// fusable (pending mutations).
	Fused bool
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
// means all matches), snippets attached: the route Pipeline.Diversify
// and the BuildProblem family take. Score is the serving path's route:
// the same retrieval, bit for bit, in the two halves DiversifyServe
// needs them — the lists now, surrogate vectors only if asked for
// afterwards (see Scored). dict is the pipeline engine's dictionary,
// which a remote implementation checks its workers' against and counts
// their term numbers under; vectors false promises Attach will not be
// called, which lets an implementation skip gathering what vectors are
// made of.
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
	// Lists[i] answers queries[i], in rank order.
	Lists [][]engine.Candidate
	// Info reports a degraded or hedged fan-out (always zero locally).
	Info SearchInfo
	// Attach fills every candidate's IVec; Close releases what the
	// retrieval holds and must be called. Lists stay valid after Close.
	Attach func(context.Context) error
	Close  func()
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
	return &Scored{Lists: c.Lists, Attach: c.Surrogates, Close: c.Close}, nil
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

// PartialSearcher is a Searcher that can degrade instead of failing:
// when some shard has no reachable replica (or its scatter sub-budget
// expires) and the searcher is configured for partial results, it
// returns the merged lists of the surviving shards with
// SearchInfo.Degraded set, rather than an error. SearchBatch on the same
// implementation stays strict — callers that feed caches or bit-identity
// gates use it so a degraded fan-out can never masquerade as a complete
// one. The distributed router's Searcher implements this; the local
// engine does not (it cannot partially fail).
type PartialSearcher interface {
	Searcher
	SearchBatchPartial(ctx context.Context, queries []string, ks []int) ([][]engine.Result, SearchInfo, error)
}

// Pipeline is a fully assembled diversification system.
type Pipeline struct {
	Config      Config
	Testbed     *synth.Testbed
	Engine      *engine.Engine
	Log         *querylog.Log
	Sessions    []qfg.Session
	Graph       *qfg.Graph
	Recommender *suggest.Recommender

	// Searcher overrides where the document scoring phase runs. Nil means
	// the local Engine. The distributed router sets this to its
	// scatter-gatherer over shard-worker pools; everything else about the
	// pipeline (Algorithm 1, utilities, selection) stays local.
	Searcher Searcher
}

// searcher resolves the active scoring backend.
func (p *Pipeline) searcher() Searcher {
	if p.Searcher != nil {
		return p.Searcher
	}
	return localSearcher{p.Engine}
}

// searchBatchInfo runs one scoring fan-out through the active backend,
// preferring the partial-capable entry point when the backend offers one
// (the distributed router under -partial): a shard outage then degrades
// the batch instead of failing it, and the metadata reports it. Strict
// backends behave exactly as SearchBatch.
func (p *Pipeline) searchBatchInfo(ctx context.Context, queries []string, ks []int) ([][]engine.Result, SearchInfo, error) {
	s := p.searcher()
	if ps, ok := s.(PartialSearcher); ok {
		return ps.SearchBatchPartial(ctx, queries, ks)
	}
	lists, err := s.SearchBatch(ctx, queries, ks)
	return lists, SearchInfo{}, err
}

// searchOne retrieves one query's top-k through the active scoring
// backend (a one-element batch; for the local engine this is exactly
// Engine.SearchCtx).
func (p *Pipeline) searchOne(ctx context.Context, query string, k int) ([]engine.Result, error) {
	lists, err := p.searcher().SearchBatch(ctx, []string{query}, []int{k})
	if err != nil {
		return nil, err
	}
	return lists[0], nil
}

// Build generates the testbed, indexes the corpus, generates and mines the
// query log, and trains the recommender. Everything is deterministic given
// Config.Corpus.Seed and Config.Log.Seed.
func Build(cfg Config) (*Pipeline, error) {
	cfg = cfg.withDefaults()
	tb := synth.GenerateTestbed(cfg.Corpus)
	eng := cfg.PrebuiltEngine
	if eng == nil {
		var err error
		eng, err = engine.Build(tb.Docs, cfg.Engine)
		if err != nil {
			return nil, fmt.Errorf("repro: building engine: %w", err)
		}
	}
	log := synth.GenerateLog(tb, cfg.Log)
	sessions := qfg.ExtractSessions(log, cfg.Session)
	graph := qfg.Build(log, cfg.Session)
	rec := suggest.Train(sessions, log.Frequencies(), suggest.TrainOptions{})
	return &Pipeline{
		Config:      cfg,
		Testbed:     tb,
		Engine:      eng,
		Log:         log,
		Sessions:    sessions,
		Graph:       graph,
		Recommender: rec,
	}, nil
}

// DetectSpecializations runs Algorithm 1 on the query: a nil result means
// the query is not ambiguous and its results should not be diversified.
func (p *Pipeline) DetectSpecializations(query string) []suggest.Specialization {
	specs := suggest.AmbiguousQueryDetect(query, p.Recommender, p.Config.Detect)
	return suggest.TopSpecializations(specs, p.Config.MaxSpecs)
}

// candidateDocs runs the document scoring phase for q: it retrieves R_q
// and converts it into diversification candidates. Surrogate vectors are
// built directly in interned form under the engine's lexicon — the string
// Vector field stays empty, so a candidate costs int32 term IDs instead
// of term strings.
func (p *Pipeline) candidateDocs(query string) []core.Doc {
	docs, _, _ := p.candidateDocsCtx(context.Background(), query) // Background never cancels
	return docs
}

// candidateDocsCtx is candidateDocs with request-scoped cancellation
// threaded into the retrieval fan-out; against the local engine the only
// possible error is ctx.Err(), while a distributed Searcher can also
// surface scatter failures — or, under a partial-results configuration,
// degrade (SearchInfo.Degraded) to the candidates of the surviving
// shards instead of failing.
func (p *Pipeline) candidateDocsCtx(ctx context.Context, query string) ([]core.Doc, SearchInfo, error) {
	lists, info, err := p.searchBatchInfo(ctx, []string{query}, []int{p.Config.NumCandidates})
	if err != nil {
		return nil, info, err
	}
	return p.candidatesFromResults(lists[0]), info, nil
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

// specList retrieves the R_q′ snippet-surrogate list of one
// specialization — the expensive per-specialization work the serving
// cache amortizes. Like candidateDocs it stores interned vectors only,
// which is what makes the cached artifact lists compact: a cached R_q′
// entry holds int32 IDs, not strings.
func (p *Pipeline) specList(s suggest.Specialization) core.Specialization {
	results, _ := p.searchOne(context.Background(), s.Query, p.Config.PerSpec) // Background never cancels locally
	return p.specFromResults(s, results)
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
// configured k/λ/c parameters. Candidates and specialization results come
// from candidateDocs/specList, so they are already interned under the
// engine's lexicon, which the problem carries as Lex.
func (p *Pipeline) newProblem(query string, candidates []core.Doc, specs []core.Specialization) *core.Problem {
	return &core.Problem{
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
// ambiguous query: R_q from the engine (relevance normalized to P(d|q)),
// one R_q′ snippet-surrogate list per specialization, and the configured
// k/λ/c parameters.
func (p *Pipeline) BuildProblem(query string, specs []suggest.Specialization) *core.Problem {
	var specLists []core.Specialization
	for _, s := range specs {
		specLists = append(specLists, p.specList(s))
	}
	return p.newProblem(query, p.candidateDocs(query), specLists)
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

// fusedPlan assembles the execution plan of one fused query from the
// pipeline configuration and the (cached or freshly staged) aspect lists.
// k <= 0 means the configured K.
func (p *Pipeline) fusedPlan(query string, alg core.Algorithm, k int, specLists []core.Specialization) *exec.Plan {
	if k <= 0 {
		k = p.Config.K
	}
	return &exec.Plan{
		Mode:          exec.ModeFused,
		Query:         query,
		Alg:           alg,
		K:             k,
		NumCandidates: p.Config.NumCandidates,
		Lambda:        p.Config.Lambda,
		Threshold:     p.Config.Threshold,
		Aspects:       specLists,
		Lex:           p.Engine.Lexicon(),
	}
}

// fusedScan runs the fused plan on the local engine. The only errors are
// ctx.Err() and exec.ErrNotFusable (pending mutations — callers fall back
// to the staged plan).
func (p *Pipeline) fusedScan(ctx context.Context, query string, alg core.Algorithm, k int, specLists []core.Specialization) ([]core.Selected, error) {
	sel, _, err := p.Engine.SearchFusedStamped(ctx, p.fusedPlan(query, alg, k, specLists))
	return sel, err
}

// DiversifyFused is Diversify running the fused execution plan: for an
// ambiguous query the R_q′ aspect retrievals are staged first (one
// batched fan-out, as in DiversifyParallel), then retrieval, candidate
// materialization, utility scoring and selection run as ONE Block-Max
// MaxScore scan over shared cursor/heap state. Output is bit-identical
// to Diversify — the fused differential sweep enforces it; only latency
// changes. Unambiguous queries, pipelines without a local engine
// (distributed Searcher), and non-quiescent engines fall back to the
// staged plan.
func (p *Pipeline) DiversifyFused(query string, alg core.Algorithm) ([]core.Selected, []suggest.Specialization) {
	sel, specs, _ := p.DiversifyFusedK(context.Background(), query, alg, 0) // Background never cancels locally
	return sel, specs
}

// DiversifyFusedK is DiversifyFused with request-scoped cancellation and
// a per-request result size k (k <= 0 means the configured K).
func (p *Pipeline) DiversifyFusedK(ctx context.Context, query string, alg core.Algorithm, k int) ([]core.Selected, []suggest.Specialization, error) {
	specs := p.DetectSpecializations(query)
	if len(specs) == 0 || p.Engine == nil || p.Searcher != nil {
		return p.diversifyStagedK(ctx, query, alg, k, specs)
	}
	// Stage the aspect retrievals: |S_q| small-k scans whose heap
	// thresholds form fast enough for Block-Max skipping to bite (the
	// per-aspect-threshold half of the fused design; see
	// docs/ARCHITECTURE.md).
	queries := make([]string, len(specs))
	ks := make([]int, len(specs))
	for i, s := range specs {
		queries[i], ks[i] = s.Query, p.Config.PerSpec
	}
	var lists [][]engine.Result
	err := countAspectSkips(func() error {
		var err error
		lists, err = p.searcher().SearchBatch(ctx, queries, ks)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	specLists := make([]core.Specialization, len(specs))
	for i := range specs {
		specLists[i] = p.specFromResults(specs[i], lists[i])
	}
	sel, err := p.fusedScan(ctx, query, alg, k, specLists)
	if err == nil {
		return sel, specs, nil
	}
	if err != exec.ErrNotFusable {
		return nil, nil, err
	}
	// Pending mutations: finish on the staged plan with the aspect lists
	// already in hand.
	candidates, _, err := p.candidateDocsCtx(ctx, query)
	if err != nil {
		return nil, nil, err
	}
	return p.finishStaged(query, alg, k, specs, candidates, specLists)
}

// diversifyStagedK is the staged twin of DiversifyFusedK: one batched
// fan-out for R_q plus the aspect lists, then the selection stage.
func (p *Pipeline) diversifyStagedK(ctx context.Context, query string, alg core.Algorithm, k int, specs []suggest.Specialization) ([]core.Selected, []suggest.Specialization, error) {
	problem, err := p.BuildProblemBatched(ctx, query, specs)
	if err != nil {
		return nil, nil, err
	}
	if k > 0 {
		problem.K = k
	}
	if len(specs) == 0 {
		return core.Baseline(problem), nil, nil
	}
	return core.Diversify(alg, problem), specs, nil
}

// finishStaged runs the selection stage of the staged plan over
// already-materialized parts.
func (p *Pipeline) finishStaged(query string, alg core.Algorithm, k int, specs []suggest.Specialization, candidates []core.Doc, specLists []core.Specialization) ([]core.Selected, []suggest.Specialization, error) {
	problem := p.newProblem(query, candidates, specLists)
	if k > 0 {
		problem.K = k
	}
	if len(specs) == 0 {
		return core.Baseline(problem), nil, nil
	}
	return core.Diversify(alg, problem), specs, nil
}
