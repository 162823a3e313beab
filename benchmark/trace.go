package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/ranking"
	"repro/internal/server"
	"repro/internal/suggest"
	"repro/internal/text"
)

// span is one timed call into a layer. The spans of one request share
// Request; Parent is the ID of the span that caused this one, 0 for a
// request's root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	// Count is how many items the call returned, where a metric needs it:
	// specializations for suggest.detect, results for engine.search_rq.
	Count int `json:"count,omitempty"`
}

func (s span) us() float64 { return float64(s.EndNs-s.StartNs) / 1e3 }

// tracer keeps spans in memory; write puts them on disk when the
// benchmark ends.
type tracer struct {
	t0    time.Time
	spans []span
}

// begin opens a span and returns its ID; end closes it.
func (t *tracer) begin(request, parent int, name string) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Request: request, Name: name})
	t.spans[id-1].StartNs = int64(time.Since(t.t0))
	return id
}

func (t *tracer) end(id int) { t.spans[id-1].EndNs = int64(time.Since(t.t0)) }

// time runs f as a span and returns the span's ID.
func (t *tracer) time(request, parent int, name string, f func()) int {
	id := t.begin(request, parent, name)
	f()
	t.end(id)
	return id
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Span names. The served hit path is the R_q retrieval (router.search_rq
// where the router serves, else engine.search_rq) and hitPathLocal. A
// miss adds suggest.detect, engine.search_aspects and
// engine.surrogates_aspects, which the served code overlaps with the R_q
// retrieval. repro.serve_*, exec.fused_scan, the xquad and iaselect
// selections and, on routed, engine.search_rq time an alternative for the
// same request and belong to no path.
const (
	spanRequest      = "request"
	spanServeHit     = "repro.serve_hit"
	spanServeMiss    = "repro.serve_miss"
	spanNormalize    = "text.normalize"
	spanDetect       = "suggest.detect"
	spanSearchRq     = "engine.search_rq"
	spanRetrieveRq   = "ranking.retrieve_rq"
	spanRouterRq     = "router.search_rq"
	spanSearchAsp    = "engine.search_aspects"
	spanSurrogateRq  = "engine.surrogates_rq"
	spanSurrogateAsp = "engine.surrogates_aspects"
	spanUtilities    = "core.utilities"
	spanOptSelect    = "core.select.optselect"
	spanXQuAD        = "core.select.xquad"
	spanIASelect     = "core.select.iaselect"
	spanBaseline     = "core.baseline"
	spanFused        = "exec.fused_scan"
	spanEncode       = "server.encode"
)

// hitPathLocal is the hit path's spans besides the R_q retrieval; an
// ambiguous request has the utilities and optselect spans, an unambiguous
// one the baseline span.
var hitPathLocal = []string{spanNormalize, spanSurrogateRq, spanUtilities, spanOptSelect, spanBaseline}

// tracedPass replays the first n requests of the stream on one
// goroutine, stage by stage through the layers' public functions, and
// records a span around each call. It returns how many replayed SERPs
// (staged, fused, served from a warm handle, served from a fresh one)
// differ from the oracle's or could not be computed.
func (wd *world) tracedPass(t *tracer, stream []int, n int) (failed int) {
	rp := replayer{
		wd: wd, t: t,
		analyzer: text.NewAnalyzer(), // engine.Config's default chain
		warm:     wd.pipe.NewServeHandle(len(wd.queries), 1),
	}
	for r := 0; r < n; r++ {
		rp.request, rp.query = r+1, stream[r%len(stream)]
		rp.root = t.begin(rp.request, 0, spanRequest)
		if err := rp.replay(context.Background()); err != nil {
			rp.failed++
		}
		t.end(rp.root)
	}
	return rp.failed
}

type replayer struct {
	wd       *world
	t        *tracer
	analyzer *text.Analyzer
	warm     *repro.ServeHandle

	request, query, root int
	failed               int
}

// stage times f as a child of the request's root span.
func (rp *replayer) stage(name string, f func()) int {
	return rp.t.time(rp.request, rp.root, name, f)
}

func (rp *replayer) check(sel []core.Selected) {
	if !slices.Equal(core.IDs(sel), rp.wd.want[rp.query]) {
		rp.failed++
	}
}

func (rp *replayer) replay(ctx context.Context) error {
	wd := rp.wd
	p, eng, q := wd.pipe, wd.pipe.Engine, wd.queries[rp.query]

	// The two parents: the whole serving call, on a handle that has the
	// query's artifacts and on one that has nothing.
	if _, _, _, _, err := rp.warm.DiversifyServe(ctx, q, core.AlgOptSelect, wd.w.k); err != nil {
		return err
	}
	var sel []core.Selected
	var err error
	rp.stage(spanServeHit, func() { sel, _, _, _, err = rp.warm.DiversifyServe(ctx, q, core.AlgOptSelect, wd.w.k) })
	if err != nil {
		return err
	}
	rp.check(sel)
	fresh := p.NewServeHandle(wd.w.cacheCap, wd.w.cacheShard)
	rp.stage(spanServeMiss, func() { sel, _, _, _, err = fresh.DiversifyServe(ctx, q, core.AlgOptSelect, wd.w.k) })
	if err != nil {
		return err
	}
	rp.check(sel)

	var norm string
	rp.stage(spanNormalize, func() { norm = text.NormalizeQuery(q) })
	var specs []suggest.Specialization
	detect := rp.stage(spanDetect, func() { specs = p.DetectSpecializations(norm) })
	rp.t.spans[detect-1].Count = len(specs)

	// R_q: through the router's searcher where that is what serves, and
	// always through the engine in-process.
	var lists [][]engine.Result
	one, kq := []string{norm}, []int{wd.w.candidates}
	if wd.searcher != nil {
		rp.stage(spanRouterRq, func() { lists, err = wd.searcher.SearchBatch(ctx, one, kq) })
		if err != nil {
			return err
		}
	}
	search := rp.stage(spanSearchRq, func() { lists, err = eng.SearchBatch(ctx, one, kq) })
	if err != nil {
		return err
	}
	rq := lists[0]
	rp.t.spans[search-1].Count = len(rq)
	rp.t.time(rp.request, search, spanRetrieveRq, func() {
		ranking.RetrieveBatchOpts(ctx, eng.Segments(), eng.Model(),
			[][]string{rp.analyzer.Tokens(norm)}, kq, ranking.BatchOptions{Prune: true})
	})

	var aspects [][]engine.Result
	if len(specs) > 0 {
		qs, ks := make([]string, len(specs)), make([]int, len(specs))
		for j, s := range specs {
			qs[j], ks[j] = s.Query, perSpec
		}
		rp.stage(spanSearchAsp, func() { aspects, err = eng.SearchBatch(ctx, qs, ks) })
		if err != nil {
			return err
		}
	}

	problem := &core.Problem{
		Query: norm, K: wd.w.k, Lambda: p.Config.Lambda, Threshold: p.Config.Threshold,
		Lex: eng.Lexicon(),
	}
	rp.stage(spanSurrogateRq, func() {
		var rn exec.RelNormalizer
		for _, res := range rq {
			rn.Observe(res.Score)
		}
		problem.Candidates = make([]core.Doc, len(rq))
		for j, res := range rq {
			problem.Candidates[j] = core.Doc{
				ID: res.DocID, Rank: res.Rank, Rel: rn.Rel(res.Score),
				IVec: eng.IVectorOfText(res.Snippet),
			}
		}
	})

	if len(specs) == 0 {
		rp.stage(spanBaseline, func() { sel = core.Baseline(problem) })
	} else {
		rp.stage(spanSurrogateAsp, func() {
			problem.Specs = make([]core.Specialization, len(specs))
			for j, s := range specs {
				rs := make([]core.SpecResult, len(aspects[j]))
				for m, res := range aspects[j] {
					rs[m] = core.SpecResult{ID: res.DocID, Rank: res.Rank, IVec: eng.IVectorOfText(res.Snippet)}
				}
				problem.Specs[j] = core.Specialization{Query: s.Query, Prob: s.Prob, Results: rs}
			}
		})
		var u *core.Utilities
		rp.stage(spanUtilities, func() { u = core.ComputeUtilities(problem) })
		rp.stage(spanOptSelect, func() { sel = core.OptSelect(problem, u) })
		rp.stage(spanXQuAD, func() { core.XQuAD(problem, u) })
		rp.stage(spanIASelect, func() { core.IASelect(problem, u) })
		var fused []core.Selected
		rp.stage(spanFused, func() {
			fused, _, err = eng.SearchFusedStamped(ctx, &exec.Plan{
				Mode: exec.ModeFused, Query: norm, Alg: core.AlgOptSelect, K: wd.w.k,
				NumCandidates: wd.w.candidates, Lambda: p.Config.Lambda, Threshold: p.Config.Threshold,
				Aspects: problem.Specs, Lex: eng.Lexicon(),
			})
		})
		if err != nil {
			return err
		}
		rp.check(fused)
	}
	rp.check(sel)

	rp.stage(spanEncode, func() { _, err = json.Marshal(searchResponse(q, norm, wd.w.k, specs, sel)) })
	return err
}

// searchResponse is the body internal/server writes for this answer.
func searchResponse(q, norm string, k int, specs []suggest.Specialization, sel []core.Selected) server.SearchResponse {
	resp := server.SearchResponse{
		Query: q, NormalizedQuery: norm, Algorithm: string(core.AlgOptSelect), K: k,
		Ambiguous: len(specs) > 0, CacheHit: true,
		Results: make([]server.SearchResult, len(sel)),
	}
	for _, sp := range specs {
		resp.Specializations = append(resp.Specializations, server.SpecializationInfo{Query: sp.Query, Prob: sp.Prob})
	}
	for j, s := range sel {
		resp.Results[j] = server.SearchResult{ID: s.ID, Rank: s.Rank, Score: s.Score, Rel: s.Rel}
	}
	return resp
}
