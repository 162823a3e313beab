package server

import (
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/synth"
)

var (
	testPipe, lazyPipe         *repro.Pipeline
	testPipeOnce, lazyPipeOnce sync.Once
)

// testPipeline builds one small shared pipeline; server tests only read it.
func testPipeline(t testing.TB) *repro.Pipeline {
	t.Helper()
	testPipeOnce.Do(func() { testPipe = buildTestPipeline(t) })
	return testPipe
}

// lazyPipeline is a second build of that world, moved past the epoch of
// Build's artifact store: every request takes the lazy path (the LRU and
// singleflight), so a cold one misses. Tests only read it.
func lazyPipeline(t testing.TB) *repro.Pipeline {
	t.Helper()
	lazyPipeOnce.Do(func() {
		lazyPipe = buildTestPipeline(t)
		pastStore(t, lazyPipe)
	})
	return lazyPipe
}

func buildTestPipeline(t testing.TB) *repro.Pipeline {
	t.Helper()
	p, err := repro.Build(repro.Config{
		Corpus: synth.CorpusSpec{
			Seed:                11,
			NumTopics:           6,
			MinSubtopics:        2,
			MaxSubtopics:        4,
			DocsPerSubtopic:     10,
			GenericDocsPerTopic: 5,
			NoiseDocs:           100,
			DocLength:           40,
			BackgroundVocab:     400,
			TopicVocab:          10,
			SubtopicVocab:       8,
		},
		Log:           synth.AOLLike(12, 2500),
		NumCandidates: 100,
		PerSpec:       10,
		K:             10,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// pastStore moves p's engine past the epoch its artifact store was built
// at without changing any answer: it ingests a document and deletes it
// again.
func pastStore(t testing.TB, p *repro.Pipeline) {
	t.Helper()
	const id = "past-the-store"
	if _, err := p.Engine.Ingest(engine.Document{ID: id, Title: "past", Body: "past the store"}); err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Engine.Delete(id); !ok {
		t.Fatalf("deleting %s missed", id)
	}
}

func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	return newTestServerOver(t, testPipeline(t), cfg)
}

// newTestServerOver is newTestServer over p.
func newTestServerOver(t testing.TB, p *repro.Pipeline, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(p.NewServeHandle(256, 4), cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// searchURL builds a correctly escaped /search URL.
func searchURL(base, q string, extra url.Values) string {
	v := url.Values{"q": {q}}
	for key, vals := range extra {
		v[key] = vals
	}
	return base + "/search?" + v.Encode()
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(out)
	io.Copy(io.Discard, resp.Body) // drain so the keep-alive conn is reused
	if err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
	return resp.StatusCode
}

func TestSearchEndpoint(t *testing.T) {
	p := lazyPipeline(t)
	_, ts := newTestServerOver(t, p, Config{})
	q := p.Testbed.TopicQuery(1)

	var got SearchResponse
	code := getJSON(t, searchURL(ts.URL, q, url.Values{"k": {"5"}, "alg": {"optselect"}}), &got)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if got.CacheHit {
		t.Error("first request should be a cache miss")
	}
	if !got.Ambiguous || len(got.Specializations) < 2 {
		t.Fatalf("topic query should be ambiguous: %+v", got)
	}
	if len(got.Results) != 5 {
		t.Fatalf("len(results) = %d, want 5", len(got.Results))
	}

	// The served SERP must match the facade's cached answer exactly.
	want, _, _, _, err := p.NewServeHandle(16, 1).DiversifyServe(context.Background(), q, core.AlgOptSelect, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i, sel := range want {
		if got.Results[i].ID != sel.ID || got.Results[i].Score != sel.Score {
			t.Fatalf("result %d: got %+v, want %+v", i, got.Results[i], sel)
		}
	}

	// Repeat: same SERP, served from cache.
	var again SearchResponse
	getJSON(t, searchURL(ts.URL, q, url.Values{"k": {"5"}, "alg": {"optselect"}}), &again)
	if !again.CacheHit {
		t.Error("repeat request should hit the cache")
	}
	for i := range got.Results {
		if got.Results[i] != again.Results[i] {
			t.Fatalf("cached SERP differs at %d", i)
		}
	}
}

func TestSearchValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		url  string
		code int
	}{
		{"/search", http.StatusBadRequest},               // missing q
		{"/search?q=x&k=0", http.StatusBadRequest},       // bad k
		{"/search?q=x&k=nope", http.StatusBadRequest},    // bad k
		{"/search?q=x&alg=bogus", http.StatusBadRequest}, // bad alg
		{"/search?q=topic01&alg=xquad", http.StatusOK},   // fine
		{"/missing", http.StatusNotFound},                // unknown route
	} {
		resp, err := http.Get(ts.URL + tc.url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("GET %s = %d, want %d", tc.url, resp.StatusCode, tc.code)
		}
	}
}

func TestHealthzAndQueries(t *testing.T) {
	p := testPipeline(t)
	_, ts := newTestServer(t, Config{})

	var health HealthResponse
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz status = %d", code)
	}
	if health.Status != "ok" || health.Docs == 0 || health.Topics != len(p.Testbed.Topics) {
		t.Fatalf("healthz = %+v", health)
	}

	var queries QueriesResponse
	getJSON(t, ts.URL+"/queries", &queries)
	if len(queries.Queries) <= len(p.Testbed.Topics) {
		t.Fatalf("queries should include topics plus noise, got %d", len(queries.Queries))
	}
	if queries.Queries[0] != p.Testbed.Topics[0].Query {
		t.Errorf("queries[0] = %q, want most popular topic %q", queries.Queries[0], p.Testbed.Topics[0].Query)
	}
}

// TestStatsStore pins the store section of /stats: a stored query is a
// cache hit from its first search on, counted under store and in
// cache_hits but not in the LRU's section, which counts the query the
// store lacks alone.
func TestStatsStore(t *testing.T) {
	p := testPipeline(t)
	_, ts := newTestServer(t, Config{})
	q := p.Testbed.TopicQuery(2)
	for i := 0; i < 2; i++ {
		var sr SearchResponse
		getJSON(t, searchURL(ts.URL, q, nil), &sr)
		if !sr.CacheHit || !sr.Ambiguous {
			t.Fatalf("search %d for stored %q: cache_hit=%v ambiguous=%v, want both", i, q, sr.CacheHit, sr.Ambiguous)
		}
	}
	var sr SearchResponse
	getJSON(t, searchURL(ts.URL, synth.NoiseQuery(1), nil), &sr)
	var st StatsResponse
	getJSON(t, ts.URL+"/stats", &st)
	if st.Store.Entries == 0 || st.Store.Epoch != p.Engine.Epoch() || st.Store.Hits != 2 {
		t.Errorf("store = %+v, want entries > 0, epoch %d, hits 2", st.Store, p.Engine.Epoch())
	}
	if st.CacheHits != 2 || st.Cache.Hits != 0 || st.Cache.Misses != 1 || st.Cache.Entries != 1 {
		t.Errorf("cache_hits %d, cache %+v; want 2, and the LRU to hold only the noise query's one miss", st.CacheHits, st.Cache)
	}
}

func TestStatsCounters(t *testing.T) {
	p := lazyPipeline(t)
	_, ts := newTestServerOver(t, p, Config{})
	q := p.Testbed.TopicQuery(2)
	for i := 0; i < 3; i++ {
		var sr SearchResponse
		getJSON(t, searchURL(ts.URL, q, nil), &sr)
	}
	var st StatsResponse
	getJSON(t, ts.URL+"/stats", &st)
	if st.Searches != 3 || st.Requests != 3 {
		t.Fatalf("searches/requests = %d/%d, want 3/3", st.Searches, st.Requests)
	}
	if st.CacheHits != 2 || st.Cache.Hits != 2 || st.Cache.Misses != 1 {
		t.Fatalf("cache hits/misses = %d (%d/%d), want 2 (2/1)", st.CacheHits, st.Cache.Hits, st.Cache.Misses)
	}
	if st.Cache.HitRate <= 0 {
		t.Error("hit rate should be positive")
	}
	if st.InFlight != 0 {
		t.Errorf("in_flight = %d at rest", st.InFlight)
	}
	// Three OptSelect answers over the same R_q: the bounded selection
	// saw all of it each time, scored only part of it, and built a vector
	// for exactly what it scored. An xQuAD answer reads everything.
	sel := st.Selection
	if sel.CandidatesSeen == 0 || sel.CandidatesSeen%3 != 0 || sel.CandidatesEvaluated >= sel.CandidatesSeen ||
		sel.CandidatesEvaluated == 0 || sel.VectorsBuilt != sel.CandidatesEvaluated {
		t.Errorf("selection after 3 optselect searches = %+v, want 0 < evaluated = vectors < seen = 3·|R_q|", sel)
	}
	// The walk goes at least as far as the last candidate scored, and the
	// same query walks the same prefix every time.
	if sel.CandidatesWalked%3 != 0 || sel.CandidatesWalked < sel.CandidatesEvaluated || sel.CandidatesWalked > sel.CandidatesSeen {
		t.Errorf("selection after 3 optselect searches = %+v, want evaluated <= walked <= seen, walked = 3·a prefix", sel)
	}
	if sel.CandidatesRetrieved != sel.CandidatesSeen {
		t.Errorf("retrieved %d candidates over 3 ambiguous searches, want what the selection saw, %d", sel.CandidatesRetrieved, sel.CandidatesSeen)
	}
	var sr SearchResponse
	getJSON(t, searchURL(ts.URL, q, url.Values{"alg": {"xquad"}}), &sr)
	var after StatsResponse
	getJSON(t, ts.URL+"/stats", &after)
	rq := sel.CandidatesSeen / 3
	if d := after.Selection; d.CandidatesSeen-sel.CandidatesSeen != rq || d.CandidatesWalked-sel.CandidatesWalked != rq ||
		d.CandidatesEvaluated-sel.CandidatesEvaluated != rq || d.VectorsBuilt-sel.VectorsBuilt != rq {
		t.Errorf("selection after one xquad search = %+v (before %+v), want all four up by |R_q| = %d", d, sel, rq)
	}
	// An unambiguous query diversifies nothing, so only the retrieval count
	// moves: by the full depth while the verdict is being found out, by the
	// k the SERP shows once it is cached.
	noise := synth.NoiseQuery(1)
	for i, want := range []int64{int64(p.Config.NumCandidates), int64(p.Config.K)} {
		before := after
		sr = SearchResponse{}
		getJSON(t, searchURL(ts.URL, noise, nil), &sr)
		getJSON(t, ts.URL+"/stats", &after)
		if sr.Ambiguous || len(sr.Results) != p.Config.K || sr.CacheHit != (i == 1) {
			t.Fatalf("search %d for %q: ambiguous=%v, %d results, cache_hit=%v", i, noise, sr.Ambiguous, len(sr.Results), sr.CacheHit)
		}
		d, b := after.Selection, before.Selection
		if d.CandidatesRetrieved-b.CandidatesRetrieved != want || d.CandidatesSeen != b.CandidatesSeen || d.CandidatesWalked != b.CandidatesWalked ||
			d.CandidatesEvaluated != b.CandidatesEvaluated || d.VectorsBuilt != b.VectorsBuilt {
			t.Errorf("selection after search %d for %q = %+v (before %+v), want only candidates_retrieved up, by %d", i, noise, d, b, want)
		}
	}
	// Per-endpoint latency histograms: /search observed the 3 searches.
	search, ok := st.Latency["/search"]
	if !ok {
		t.Fatalf("no /search latency in stats: %v", st.Latency)
	}
	if search.Count != 3 {
		t.Errorf("/search latency count = %d, want 3", search.Count)
	}
	if search.P50Ms <= 0 || search.P99Ms < search.P50Ms {
		t.Errorf("implausible percentiles: p50=%f p99=%f", search.P50Ms, search.P99Ms)
	}
	if len(search.Buckets) == 0 ||
		search.Buckets[len(search.Buckets)-1].Count != search.Count {
		t.Errorf("cumulative buckets malformed: %+v", search.Buckets)
	}
	// /stats instruments itself too (this very request is its first).
	if _, ok := st.Latency["/stats"]; !ok {
		t.Error("no /stats latency histogram")
	}
}

// TestConcurrentLoad hammers the server with a skewed mix across all
// algorithms (run with -race): every response must be well-formed and the
// counters must reconcile afterwards.
func TestConcurrentLoad(t *testing.T) {
	p := testPipeline(t)
	srv, ts := newTestServer(t, Config{Workers: 4})

	var queries []string
	for _, topic := range p.Testbed.Topics {
		queries = append(queries, topic.Query)
	}
	queries = append(queries, "noise query 0001", "unseen phrase entirely")
	algs := []core.Algorithm{core.AlgOptSelect, core.AlgXQuAD, core.AlgIASelect, core.AlgBaseline}

	const workers = 8
	const perWorker = 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWorker; i++ {
				q := queries[rng.Intn(len(queries))]
				alg := algs[rng.Intn(len(algs))]
				var sr SearchResponse
				code := getJSON(t, searchURL(ts.URL, q, url.Values{"alg": {string(alg)}}), &sr)
				if code != http.StatusOK {
					t.Errorf("status %d for %q", code, q)
					return
				}
				if sr.Algorithm != string(alg) {
					t.Errorf("alg echo = %q, want %q", sr.Algorithm, alg)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()

	var st StatsResponse
	getJSON(t, ts.URL+"/stats", &st)
	if st.Searches != workers*perWorker {
		t.Errorf("searches = %d, want %d", st.Searches, workers*perWorker)
	}
	if st.Rejected != 0 || st.Errors != 0 {
		t.Errorf("rejected/errors = %d/%d under in-budget load", st.Rejected, st.Errors)
	}
	if st.Cache.HitRate == 0 {
		t.Error("skewed replay should produce cache hits")
	}
	if got := srv.inFlight.Load(); got != 0 {
		t.Errorf("in-flight = %d after drain", got)
	}
}

// TestWorkerPoolSheds verifies overload shedding deterministically: the
// test occupies the single worker slot itself, so every request must be
// shed with 503 until the slot is released.
func TestWorkerPoolSheds(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, QueueTimeout: 10 * time.Millisecond})

	srv.sem <- struct{}{} // hold the only worker token
	for i := 0; i < 4; i++ {
		resp, err := http.Get(ts.URL + "/search?q=topic01")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("request %d with saturated pool: status %d, want 503", i, resp.StatusCode)
		}
	}
	<-srv.sem // release

	resp, err := http.Get(ts.URL + "/search?q=topic01")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after release: status %d, want 200", resp.StatusCode)
	}

	var st StatsResponse
	getJSON(t, ts.URL+"/stats", &st)
	if st.Rejected != 4 {
		t.Errorf("rejected = %d, want 4", st.Rejected)
	}
}

// TestStatsIndexShards: /stats must report the engine's segment
// partition, and the per-shard doc counts must sum to the collection.
func TestStatsIndexShards(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var st StatsResponse
	getJSON(t, ts.URL+"/stats", &st)
	if st.Index.Shards < 1 || len(st.Index.DocsPerShard) != st.Index.Shards {
		t.Fatalf("index stats malformed: %+v", st.Index)
	}
	total := 0
	for _, d := range st.Index.DocsPerShard {
		total += d
	}
	if total != testPipeline(t).Engine.NumDocs() {
		t.Errorf("shard docs sum %d, want %d", total, testPipeline(t).Engine.NumDocs())
	}
}

// TestSearchBudgetHeader: X-Search-Budget must parse as a positive Go
// duration (else 400), a generous budget serves normally, and a budget
// that cannot possibly be met sheds the request with 503 instead of
// serving a late answer.
func TestSearchBudgetHeader(t *testing.T) {
	p := testPipeline(t)
	_, ts := newTestServer(t, Config{})
	q := p.Testbed.TopicQuery(1)

	get := func(budget string) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, searchURL(ts.URL, q, nil), nil)
		if err != nil {
			t.Fatal(err)
		}
		if budget != "" {
			req.Header.Set(HeaderSearchBudget, budget)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	for _, bad := range []string{"nonsense", "100", "-5ms", "0s"} {
		if code := get(bad); code != http.StatusBadRequest {
			t.Errorf("budget %q: status %d, want 400", bad, code)
		}
	}
	if code := get("30s"); code != http.StatusOK {
		t.Errorf("budget 30s: status %d, want 200", code)
	}
	if code := get("1ns"); code != http.StatusServiceUnavailable {
		t.Errorf("budget 1ns: status %d, want 503 (shed, never a late 200)", code)
	}
}

// stubPartial is a Searcher that scores against the local engine
// but reports whatever degradation metadata the test dials in — the
// server-side contract (wire field, header, counters, cache bypass) in
// isolation from a real router.
type stubPartial struct {
	p        *repro.Pipeline
	degraded atomic.Bool
	hedged   atomic.Bool
}

func (s *stubPartial) SearchBatch(ctx context.Context, queries []string, ks []int) ([][]engine.Result, error) {
	return s.p.Engine.SearchBatch(ctx, queries, ks)
}

func (s *stubPartial) Score(ctx context.Context, dict engine.Dictionary, queries []string, ks []int, vectors bool) (*repro.Scored, error) {
	sc, err := repro.LocalSearcher(s.p.Engine).Score(ctx, dict, queries, ks, vectors)
	if err == nil {
		sc.Info = repro.SearchInfo{Degraded: s.degraded.Load(), Hedged: s.hedged.Load()}
	}
	return sc, err
}

// TestSearchDegradedResponse pins the degradation surface: a degraded
// retrieval yields 200 with degraded:true in the body, X-Degraded (and
// X-Hedged) headers, bumped stats counters, NO hedged field in the body
// (hedging must not change response bytes), and — critically — no cache
// entry: the moment the fleet heals, full-fidelity answers return
// instead of a cached partial SERP.
func TestSearchDegradedResponse(t *testing.T) {
	p := lazyPipeline(t)
	stub := &stubPartial{p: p}
	stub.degraded.Store(true)
	stub.hedged.Store(true)
	cp := *p
	cp.Searcher = stub
	srv := New(cp.NewServeHandle(64, 2), Config{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	q := p.Testbed.TopicQuery(2)

	get := func() (SearchResponse, http.Header, string) {
		t.Helper()
		resp, err := http.Get(searchURL(ts.URL, q, url.Values{"k": {"5"}}))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var sr SearchResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		return sr, resp.Header, string(body)
	}

	for i := 0; i < 2; i++ {
		sr, hdr, body := get()
		if !sr.Degraded {
			t.Fatalf("request %d: body degraded = false, want true", i)
		}
		if hdr.Get(HeaderDegraded) != "true" || hdr.Get(HeaderHedged) != "true" {
			t.Errorf("request %d headers: %s=%q %s=%q, want both true",
				i, HeaderDegraded, hdr.Get(HeaderDegraded), HeaderHedged, hdr.Get(HeaderHedged))
		}
		if strings.Contains(body, "hedged") {
			t.Errorf("request %d body mentions hedging: %s (hedging must stay out of response bytes)", i, body)
		}
		// A degraded artifact must never be cached: the repeat is a MISS.
		if sr.CacheHit {
			t.Errorf("request %d served a cached degraded artifact", i)
		}
		if len(sr.Results) != 5 {
			t.Errorf("request %d: %d results, want 5 (degraded is partial, not empty)", i, len(sr.Results))
		}
	}

	// Fleet heals: the next answer is complete, unmarked — and only now
	// does the artifact cache start retaining.
	stub.degraded.Store(false)
	stub.hedged.Store(false)
	if sr, hdr, _ := get(); sr.Degraded || hdr.Get(HeaderDegraded) != "" || hdr.Get(HeaderHedged) != "" || sr.CacheHit {
		t.Fatalf("after heal: %+v headers=%v, want unmarked cache miss", sr, hdr)
	}
	if sr, _, _ := get(); !sr.CacheHit {
		t.Error("repeat after heal: cache miss, want hit (healthy artifacts cache again)")
	}

	var st StatsResponse
	getJSON(t, ts.URL+"/stats", &st)
	if st.Degraded != 2 || st.Hedged != 2 {
		t.Errorf("stats degraded/hedged = %d/%d, want 2/2", st.Degraded, st.Hedged)
	}
}

// TestSearchCanceledRequest: a request whose context is already canceled
// must be answered 503 (shed), never 200, and must not wedge a worker.
func TestSearchCanceledRequest(t *testing.T) {
	p := testPipeline(t)
	srv, _ := newTestServer(t, Config{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("GET", searchURL("http://x", p.Testbed.TopicQuery(1), nil), nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("canceled request: status %d, want 503", rec.Code)
	}
	if got := srv.inFlight.Load(); got != 0 {
		t.Errorf("in_flight = %d after canceled request", got)
	}
}
