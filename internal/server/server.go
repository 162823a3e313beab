// Package server is the serving subsystem: it exposes a warm
// diversification Pipeline over an HTTP/JSON API, the concrete
// realization of the paper's §6 outlook ("a search architecture
// performing the diversification task in parallel with the document
// scoring phase") scaled from one query to a query stream.
//
// A Server owns a repro.ServeHandle (pipeline + sharded LRU artifact
// cache) and a bounded worker pool: at most Config.Workers requests
// diversify concurrently, the rest queue up to Config.QueueTimeout and
// are then shed with 503 — under overload the server degrades by
// rejecting, never by collapsing. Endpoints:
//
//	GET  /search?q=…&k=…&alg=…  diversified SERP as JSON
//	GET  /healthz               liveness + collection summary
//	GET  /stats                 worker pool, cache and lifecycle counters
//	GET  /queries               known query strings, popularity-ordered
//	                            (the replay corpus for cmd/loadgen)
//	POST /ingest                add/replace one document in the live index
//	POST /delete                remove one document from the live index
//	POST /flush                 seal the write buffer into a segment
//	POST /compact               fold segments+tombstones into a fresh base
//
// Mutations bypass the search worker pool — the engine serializes them
// internally and searches never block on them (they run against the
// previous atomically-published snapshot until the epoch swap).
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/index"
	"repro/internal/ranking"
	"repro/internal/suggest"
	"repro/internal/synth"
	"repro/internal/text"
)

// Config tunes the serving layer. The zero value is usable: every field
// has a sensible default applied by New.
type Config struct {
	// Workers bounds the number of concurrent diversifications. Default 8.
	Workers int
	// QueueTimeout is how long a request waits for a worker slot before
	// being shed with 503. Default 5s.
	QueueTimeout time.Duration
	// DefaultAlg answers requests that do not pass ?alg=. Default
	// optselect (the paper's contribution).
	DefaultAlg core.Algorithm
	// MaxK caps the per-request result size. Default 100.
	MaxK int
	// DefaultBudget, when positive, bounds each /search end to end
	// (queueing included): the request context gets this deadline, which
	// a distributed Searcher propagates into scatter sub-budgets and
	// worker-side stop decisions. Per-request X-Search-Budget headers
	// override it. Default 0: no deadline beyond the client's.
	DefaultBudget time.Duration
}

// Headers carrying the deadline/degradation contract between clients
// and the serving tier.
const (
	// HeaderSearchBudget is a client's per-request total budget for
	// /search, as a Go duration string (e.g. "250ms"); it overrides
	// Config.DefaultBudget. Invalid values are a 400.
	HeaderSearchBudget = "X-Search-Budget"
	// HeaderDegraded is set to "true" on responses assembled from a
	// partial candidate set (a shard dropped in partial-results mode);
	// the body carries the same marker in its degraded field.
	HeaderDegraded = "X-Degraded"
	// HeaderHedged is set to "true" when answering the request involved
	// a hedged scatter attempt (latency salvage; results are NOT
	// affected — hedges race identical reads of the same snapshot).
	HeaderHedged = "X-Hedged"
)

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = 5 * time.Second
	}
	if c.DefaultAlg == "" {
		c.DefaultAlg = core.AlgOptSelect
	}
	if c.MaxK <= 0 {
		c.MaxK = 100
	}
	return c
}

// Server serves diversified SERPs from a warm pipeline. Create with New;
// all exported methods are safe for concurrent use.
//
// A Server can be created BEFORE its pipeline finishes building (New with
// a nil handle): it answers /healthz (liveness — the process is up) but
// reports not-ready on /readyz and sheds every pipeline-backed endpoint
// with 503 until Publish installs the handle. This is the split a
// replicated deployment needs — the distributed router's health probes
// watch /readyz, so a worker that is still indexing (or re-loading after
// a crash) is never routed to, while /healthz keeps the process manager
// from killing it during the build.
type Server struct {
	handle atomic.Pointer[repro.ServeHandle]
	cfg    Config
	start  time.Time
	mux    *http.ServeMux
	sem    chan struct{} // worker pool: one token per concurrent search

	// holdSearch, when non-nil, runs inside the worker slot before the
	// diversification — a test seam that lets the drain tests pin
	// in-flight requests deterministically. Set before serving starts;
	// never used in production paths.
	holdSearch func()

	requests  atomic.Int64 // /search requests admitted past parsing
	errors    atomic.Int64 // 4xx/5xx responses on /search
	rejected  atomic.Int64 // 503s from a saturated worker pool
	inFlight  atomic.Int64 // searches currently holding a worker slot
	searches  atomic.Int64 // completed searches
	ambiguous atomic.Int64 // completed searches that diversified
	cacheHits atomic.Int64 // completed searches served from cached artifacts
	serveNano atomic.Int64 // cumulative in-worker latency
	ingests   atomic.Int64 // documents accepted by POST /ingest
	deletes   atomic.Int64 // documents removed by POST /delete
	degraded  atomic.Int64 // searches answered from a partial candidate set
	hedged    atomic.Int64 // searches whose scatter involved a hedge

	// latency histograms per endpoint, measured around the whole handler
	// (for /search that includes worker-pool queueing, unlike serveNano
	// which is in-worker only).
	latency map[string]*latencyHistogram
}

// New wraps the handle in a Server with the given configuration. A nil
// handle creates a not-ready server (see Server); install the handle
// with Publish once the pipeline is built.
func New(h *repro.ServeHandle, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		start:   time.Now(),
		mux:     http.NewServeMux(),
		sem:     make(chan struct{}, cfg.Workers),
		latency: make(map[string]*latencyHistogram),
	}
	if h != nil {
		s.handle.Store(h)
	}
	s.mux.HandleFunc("GET /search", s.instrument("/search", s.handleSearch))
	s.mux.HandleFunc("GET /healthz", s.instrument("/healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /readyz", s.instrument("/readyz", s.handleReadyz))
	s.mux.HandleFunc("GET /stats", s.instrument("/stats", s.handleStats))
	s.mux.HandleFunc("GET /queries", s.instrument("/queries", s.handleQueries))
	s.mux.HandleFunc("POST /ingest", s.instrument("/ingest", s.handleIngest))
	s.mux.HandleFunc("POST /delete", s.instrument("/delete", s.handleDelete))
	s.mux.HandleFunc("POST /flush", s.instrument("/flush", s.handleFlush))
	s.mux.HandleFunc("POST /compact", s.instrument("/compact", s.handleCompact))
	return s
}

// Publish installs the serving handle and flips the server ready: from
// this point /readyz reports 200 and the pipeline-backed endpoints
// serve. Publishing is an atomic pointer store — requests racing it see
// either the warming-up 503 or the full pipeline, never a torn state.
func (s *Server) Publish(h *repro.ServeHandle) { s.handle.Store(h) }

// Ready reports whether the pipeline handle has been published.
func (s *Server) Ready() bool { return s.handle.Load() != nil }

// ready returns the handle, or sheds the request with 503 and reports
// false — every pipeline-backed handler gates on it first.
func (s *Server) ready(w http.ResponseWriter) (*repro.ServeHandle, bool) {
	h := s.handle.Load()
	if h == nil {
		s.fail(w, http.StatusServiceUnavailable, "warming up: index still loading")
		return nil, false
	}
	return h, true
}

// instrument wraps a handler with the endpoint's latency histogram. The
// histogram map is completed at construction time and read-only after,
// so recording needs no lock.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	hist := &latencyHistogram{}
	s.latency[endpoint] = hist
	return func(w http.ResponseWriter, r *http.Request) {
		began := time.Now()
		h(w, r)
		hist.observe(time.Since(began))
	}
}

// Handler returns the HTTP handler tree, for mounting in an http.Server
// or an httptest.Server.
func (s *Server) Handler() http.Handler { return s.mux }

// SearchResult is one SERP entry of a search response.
type SearchResult struct {
	ID    string  `json:"id"`
	Rank  int     `json:"rank"` // 1-based rank in the original R_q
	Score float64 `json:"score"`
	Rel   float64 `json:"rel"` // P(d|q)
}

// SpecializationInfo is one mined specialization in a search response.
type SpecializationInfo struct {
	Query string  `json:"query"`
	Prob  float64 `json:"prob"` // P(q'|q), Definition 1
}

// SearchResponse is the JSON body of GET /search.
type SearchResponse struct {
	Query           string `json:"query"`
	NormalizedQuery string `json:"normalized_query"`
	Algorithm       string `json:"algorithm"`
	K               int    `json:"k"`
	Ambiguous       bool   `json:"ambiguous"`
	CacheHit        bool   `json:"cache_hit"`
	// Degraded marks a response assembled from a partial candidate set
	// (a shard was down in partial-results mode). It omits when false so
	// healthy responses stay byte-identical to a single-process server's.
	// Hedging deliberately has NO body field: a hedged response carries
	// identical result bytes (hedges race identical reads of the same
	// snapshot), so it is flagged out-of-band via X-Hedged only and the
	// byte-identity gate keeps covering it.
	Degraded        bool                 `json:"degraded,omitempty"`
	TookMicros      int64                `json:"took_us"`
	Specializations []SpecializationInfo `json:"specializations,omitempty"`
	Results         []SearchResult       `json:"results"`
}

// HealthResponse is the JSON body of GET /healthz (liveness: always 200
// while the process answers; Ready mirrors /readyz for convenience).
type HealthResponse struct {
	Status        string `json:"status"`
	Ready         bool   `json:"ready"`
	UptimeSeconds int64  `json:"uptime_s"`
	Docs          int    `json:"docs"`
	LogRecords    int    `json:"log_records"`
	Topics        int    `json:"topics"`
}

// ReadyResponse is the JSON body of GET /readyz: 200 with Ready=true
// once the pipeline handle is published, 503 with a reason before that.
// Health probes (the distributed router's, an orchestrator's) should
// watch this, not /healthz — a worker mid-build is alive but must not
// receive traffic.
type ReadyResponse struct {
	Ready  bool   `json:"ready"`
	Reason string `json:"reason,omitempty"`
	Docs   int    `json:"docs,omitempty"`
}

// CacheStats is the cache section of a stats response.
type CacheStats struct {
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Evictions int64   `json:"evictions"`
	Entries   int     `json:"entries"`
	Capacity  int     `json:"capacity"`
	HitRate   float64 `json:"hit_rate"`
}

// IndexStats is the index-segment section of a stats response: the shard
// fan-out every retrieval pays, with the per-shard document counts of the
// partition, whether MaxScore dynamic pruning is live and which scoring
// functions have precomputed max-score tables, plus the posting-storage
// footprint and the process-wide block I/O counters — blocks decoded
// versus blocks skipped by header, the observable win of Block-Max
// skipping.
type IndexStats struct {
	Shards          int      `json:"shards"`
	DocsPerShard    []int    `json:"docs_per_shard"`
	Pruning         bool     `json:"pruning"`
	MaxScoreModels  []string `json:"max_score_models,omitempty"`
	BlockSize       int      `json:"block_size"`
	Postings        int64    `json:"postings"`
	PostingBytes    int64    `json:"posting_bytes"`
	BytesPerPosting float64  `json:"bytes_per_posting"`
	BlocksDecoded   int64    `json:"blocks_decoded"`
	BlocksSkipped   int64    `json:"blocks_skipped"`
}

// FusedStats mirrors the exec package's process-wide fused-plan
// counters: how often queries ran the fused single-scan plan vs the
// staged one, how many per-aspect heap entries were displaced by better
// candidates, and how many posting blocks the aspect retrievals skipped
// via their (small-k, fast-forming) thresholds. The skip counter is
// attribution-approximate under concurrency — see exec.Counters.
type FusedStats struct {
	FusedQueries        uint64 `json:"fused_queries"`
	StagedQueries       uint64 `json:"staged_queries"`
	AspectHeapEvictions uint64 `json:"aspect_heap_evictions"`
	AspectBlocksSkipped uint64 `json:"aspect_blocks_skipped"`
}

// SelectionStats is the selection section of a stats response: how many
// R_q candidates this server's requests retrieved — all of them, the
// ones answered k deep because nothing would diversify them included —
// and, over its diversified requests, how many the selection stage saw,
// how many it scored under Definition 2 and how many surrogate vectors it
// built. OptSelect is served by the bounded selection, which scores a
// candidate only while it can still enter a heap; xQuAD, IASelect and MMR
// read every candidate. Counted per serving handle, not per process.
type SelectionStats struct {
	CandidatesRetrieved int64 `json:"candidates_retrieved"`
	CandidatesSeen      int64 `json:"candidates_seen"`
	CandidatesEvaluated int64 `json:"candidates_evaluated"`
	VectorsBuilt        int64 `json:"vectors_built"`
}

// StatsResponse is the JSON body of GET /stats.
type StatsResponse struct {
	UptimeSeconds  int64                   `json:"uptime_s"`
	Workers        int                     `json:"workers"`
	Requests       int64                   `json:"requests"`
	Errors         int64                   `json:"errors"`
	Rejected       int64                   `json:"rejected"`
	InFlight       int64                   `json:"in_flight"`
	Searches       int64                   `json:"searches"`
	Ambiguous      int64                   `json:"ambiguous"`
	CacheHits      int64                   `json:"cache_hits"`
	Ingests        int64                   `json:"ingests"`
	Deletes        int64                   `json:"deletes"`
	Degraded       int64                   `json:"degraded"`
	Hedged         int64                   `json:"hedged"`
	AvgLatencyMsec float64                 `json:"avg_latency_ms"`
	Index          IndexStats              `json:"index"`
	Fused          FusedStats              `json:"fused"`
	Selection      SelectionStats          `json:"selection"`
	Live           engine.LiveStats        `json:"live"`
	Cache          CacheStats              `json:"cache"`
	Latency        map[string]LatencyStats `json:"latency"`
}

// MutationResponse is the JSON body of the POST mutation endpoints: the
// epoch at which the mutation became visible (or the current epoch for a
// no-op), and for /delete whether a live document was removed.
type MutationResponse struct {
	Epoch   uint64 `json:"epoch"`
	Deleted *bool  `json:"deleted,omitempty"`
}

// IngestRequest is the JSON body of POST /ingest.
type IngestRequest struct {
	ID    string `json:"id"`
	Title string `json:"title"`
	Body  string `json:"body"`
}

// DeleteRequest is the JSON body of POST /delete.
type DeleteRequest struct {
	ID string `json:"id"`
}

// QueriesResponse is the JSON body of GET /queries: query strings the
// pipeline's log knows about, most popular first (topic queries are
// Zipf-popular by position, then noise queries), so a rank-skewed sampler
// over the list reproduces a realistic head-heavy query mix.
type QueriesResponse struct {
	Queries []string `json:"queries"`
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("q")
	if q == "" {
		s.fail(w, http.StatusBadRequest, "missing required parameter q")
		return
	}
	h, ok := s.ready(w)
	if !ok {
		return
	}
	p := h.Pipeline

	k := p.Config.K
	if raw := r.URL.Query().Get("k"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 1 {
			s.fail(w, http.StatusBadRequest, "k must be a positive integer")
			return
		}
		if v > s.cfg.MaxK {
			v = s.cfg.MaxK
		}
		k = v
	}

	alg := s.cfg.DefaultAlg
	if raw := r.URL.Query().Get("alg"); raw != "" {
		alg = core.Algorithm(raw)
		if !alg.Valid() {
			s.fail(w, http.StatusBadRequest, fmt.Sprintf("unknown alg %q (valid: %v)", raw, core.Algorithms))
			return
		}
	}

	// Deadline propagation starts here: the total budget (flag default,
	// overridden per request by X-Search-Budget) becomes the request
	// context's deadline, covering queueing, retrieval — where a
	// distributed Searcher carves scatter sub-budgets from it and
	// advertises the remainder to workers — and diversification.
	budget := s.cfg.DefaultBudget
	if raw := r.Header.Get(HeaderSearchBudget); raw != "" {
		d, err := time.ParseDuration(raw)
		if err != nil || d <= 0 {
			s.fail(w, http.StatusBadRequest, "invalid "+HeaderSearchBudget+" (want a positive Go duration, e.g. 250ms)")
			return
		}
		budget = d
	}
	ctx := r.Context()
	if budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, budget)
		defer cancel()
	}

	s.requests.Add(1)

	// Bounded worker pool: block for a slot, shedding on timeout, spent
	// budget, or client disconnect.
	timeout := time.NewTimer(s.cfg.QueueTimeout)
	defer timeout.Stop()
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		s.rejected.Add(1)
		if r.Context().Err() == nil {
			s.fail(w, http.StatusServiceUnavailable, "request budget spent while queued")
		} else {
			s.fail(w, http.StatusServiceUnavailable, "client gave up while queued")
		}
		return
	case <-timeout.C:
		s.rejected.Add(1)
		s.fail(w, http.StatusServiceUnavailable, "worker pool saturated, retry later")
		return
	}
	s.inFlight.Add(1)
	began := time.Now()
	var (
		selected []core.Selected
		specs    []suggest.Specialization
		hit      bool
		info     repro.SearchInfo
		err      error
	)
	func() {
		// Release the slot via defer: a panic in the pipeline is recovered
		// per-connection by net/http, and without the defer it would leak
		// a worker token forever.
		defer func() {
			s.inFlight.Add(-1)
			<-s.sem
		}()
		if s.holdSearch != nil {
			s.holdSearch()
		}
		// The request context rides into the retrieval fan-out: when the
		// client disconnects (or the budget runs out) mid-search, the
		// shard workers stop instead of finishing a SERP nobody will
		// read.
		selected, specs, hit, info, err = h.DiversifyServe(ctx, q, alg, k)
	}()
	took := time.Since(began)
	if err != nil {
		// A canceled/expired request context (the client is gone), or —
		// behind a distributed Searcher — a scatter failure: some shard
		// had no reachable replica within the retry budget. Either way
		// the search did not complete; shed it.
		s.rejected.Add(1)
		s.fail(w, http.StatusServiceUnavailable, "retrieval aborted: "+err.Error())
		return
	}

	s.searches.Add(1)
	s.serveNano.Add(took.Nanoseconds())
	if hit {
		s.cacheHits.Add(1)
	}
	if len(specs) > 0 {
		s.ambiguous.Add(1)
	}
	if info.Degraded {
		s.degraded.Add(1)
		w.Header().Set(HeaderDegraded, "true")
	}
	if info.Hedged {
		s.hedged.Add(1)
		w.Header().Set(HeaderHedged, "true")
	}

	resp := SearchResponse{
		Query:           q,
		NormalizedQuery: text.NormalizeQuery(q),
		Algorithm:       string(alg),
		K:               k,
		Ambiguous:       len(specs) > 0,
		CacheHit:        hit,
		Degraded:        info.Degraded,
		TookMicros:      took.Microseconds(),
		Results:         make([]SearchResult, len(selected)),
	}
	for _, sp := range specs {
		resp.Specializations = append(resp.Specializations, SpecializationInfo{Query: sp.Query, Prob: sp.Prob})
	}
	for i, sel := range selected {
		resp.Results[i] = SearchResult{ID: sel.ID, Rank: sel.Rank, Score: sel.Score, Rel: sel.Rel}
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// Liveness only: 200 as long as the process answers, even while the
	// index is still building. Readiness is /readyz's job.
	resp := HealthResponse{
		Status:        "ok",
		UptimeSeconds: int64(time.Since(s.start).Seconds()),
	}
	if h := s.handle.Load(); h != nil {
		p := h.Pipeline
		resp.Ready = true
		resp.Docs = p.Engine.NumDocs()
		resp.LogRecords = p.Log.Len()
		resp.Topics = len(p.Testbed.Topics)
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	h := s.handle.Load()
	if h == nil {
		s.writeJSON(w, http.StatusServiceUnavailable, ReadyResponse{
			Ready:  false,
			Reason: "index still loading",
		})
		return
	}
	s.writeJSON(w, http.StatusOK, ReadyResponse{
		Ready: true,
		Docs:  h.Pipeline.Engine.NumDocs(),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st, ok := s.StatsSnapshot()
	if !ok {
		s.fail(w, http.StatusServiceUnavailable, "warming up: index still loading")
		return
	}
	s.writeJSON(w, http.StatusOK, st)
}

// StatsSnapshot assembles the /stats payload; ok is false while the
// server is not ready. Exported so the distributed router can embed the
// serving-layer stats inside its own /stats document.
func (s *Server) StatsSnapshot() (StatsResponse, bool) {
	h := s.handle.Load()
	if h == nil {
		return StatsResponse{}, false
	}
	cs := h.CacheStats()
	searches := s.searches.Load()
	avgMs := 0.0
	if searches > 0 {
		avgMs = float64(s.serveNano.Load()) / float64(searches) / 1e6
	}
	latency := make(map[string]LatencyStats, len(s.latency))
	for endpoint, hist := range s.latency {
		latency[endpoint] = hist.snapshot()
	}
	seg := h.Pipeline.Engine.Segments()
	storage := seg.Index().Storage()
	decoded, skipped := index.BlockIOStats()
	fused := exec.Stats()
	return StatsResponse{
		UptimeSeconds:  int64(time.Since(s.start).Seconds()),
		Workers:        s.cfg.Workers,
		Requests:       s.requests.Load(),
		Errors:         s.errors.Load(),
		Rejected:       s.rejected.Load(),
		InFlight:       s.inFlight.Load(),
		Searches:       searches,
		Ambiguous:      s.ambiguous.Load(),
		CacheHits:      s.cacheHits.Load(),
		Ingests:        s.ingests.Load(),
		Deletes:        s.deletes.Load(),
		Degraded:       s.degraded.Load(),
		Hedged:         s.hedged.Load(),
		AvgLatencyMsec: avgMs,
		Index: IndexStats{
			Shards:          seg.NumShards(),
			DocsPerShard:    seg.ShardSizes(),
			Pruning:         ranking.Pruneable(seg.Index(), h.Pipeline.Engine.Model()),
			MaxScoreModels:  seg.Index().MaxScoreKeys(),
			BlockSize:       storage.BlockSize,
			Postings:        storage.Postings,
			PostingBytes:    storage.Bytes,
			BytesPerPosting: storage.BytesPerPosting,
			BlocksDecoded:   decoded,
			BlocksSkipped:   skipped,
		},
		Fused: FusedStats{
			FusedQueries:        fused.FusedQueries,
			StagedQueries:       fused.StagedQueries,
			AspectHeapEvictions: fused.AspectHeapEvictions,
			AspectBlocksSkipped: fused.AspectBlocksSkipped,
		},
		Selection: SelectionStats{
			CandidatesRetrieved: h.Work.CandidatesRetrieved.Load(),
			CandidatesSeen:      h.Work.CandidatesSeen.Load(),
			CandidatesEvaluated: h.Work.CandidatesEvaluated.Load(),
			VectorsBuilt:        h.Work.VectorsBuilt.Load(),
		},
		Live:    h.Pipeline.Engine.Live(),
		Latency: latency,
		Cache: CacheStats{
			Hits:      cs.Hits,
			Misses:    cs.Misses,
			Evictions: cs.Evictions,
			Entries:   cs.Entries,
			Capacity:  cs.Capacity,
			HitRate:   cs.HitRate(),
		},
	}, true
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	var req IngestRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		s.fail(w, http.StatusBadRequest, "bad ingest body: "+err.Error())
		return
	}
	if req.ID == "" {
		s.fail(w, http.StatusBadRequest, "missing required field id")
		return
	}
	h, ok := s.ready(w)
	if !ok {
		return
	}
	epoch, err := h.Pipeline.Engine.Ingest(engine.Document{ID: req.ID, Title: req.Title, Body: req.Body})
	if err != nil {
		// The document is buffered and searchable; only sealing it durably
		// failed. Surface that as a server-side error.
		s.fail(w, http.StatusInternalServerError, "ingest flush failed: "+err.Error())
		return
	}
	s.ingests.Add(1)
	s.writeJSON(w, http.StatusOK, MutationResponse{Epoch: epoch})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	var req DeleteRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		s.fail(w, http.StatusBadRequest, "bad delete body: "+err.Error())
		return
	}
	if req.ID == "" {
		s.fail(w, http.StatusBadRequest, "missing required field id")
		return
	}
	h, ok := s.ready(w)
	if !ok {
		return
	}
	epoch, deleted := h.Pipeline.Engine.Delete(req.ID)
	if deleted {
		s.deletes.Add(1)
	}
	s.writeJSON(w, http.StatusOK, MutationResponse{Epoch: epoch, Deleted: &deleted})
}

func (s *Server) handleFlush(w http.ResponseWriter, r *http.Request) {
	h, ok := s.ready(w)
	if !ok {
		return
	}
	epoch, err := h.Pipeline.Engine.Flush()
	if err != nil {
		s.fail(w, http.StatusInternalServerError, "flush failed: "+err.Error())
		return
	}
	s.writeJSON(w, http.StatusOK, MutationResponse{Epoch: epoch})
}

func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	h, ok := s.ready(w)
	if !ok {
		return
	}
	epoch, err := h.Pipeline.Engine.Compact()
	if err != nil {
		s.fail(w, http.StatusInternalServerError, "compaction failed: "+err.Error())
		return
	}
	s.writeJSON(w, http.StatusOK, MutationResponse{Epoch: epoch})
}

func (s *Server) handleQueries(w http.ResponseWriter, r *http.Request) {
	h, ok := s.ready(w)
	if !ok {
		return
	}
	p := h.Pipeline
	var qs []string
	for _, topic := range p.Testbed.Topics {
		qs = append(qs, topic.Query)
	}
	// A slice of the noise tail: enough distinct cold queries to exercise
	// misses and evictions without dwarfing the ambiguous head.
	noise := p.Config.Log.NoiseVocab
	if noise > 4*len(qs) {
		noise = 4 * len(qs)
	}
	for i := 0; i < noise; i++ {
		qs = append(qs, synth.NoiseQuery(i))
	}
	s.writeJSON(w, http.StatusOK, QueriesResponse{Queries: qs})
}

func (s *Server) fail(w http.ResponseWriter, code int, msg string) {
	s.errors.Add(1)
	s.writeJSON(w, code, map[string]string{"error": msg})
}

func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}
