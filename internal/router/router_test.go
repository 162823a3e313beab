package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/synth"
	"repro/internal/text"
	"repro/internal/textsim"
)

var (
	testPipes  = map[pipeKey]*repro.Pipeline{}
	testPipeMu sync.Mutex
)

// pipeKey names a memoized test world: its shard count, and whether its
// engine was moved past the store's epoch.
type pipeKey struct {
	shards int
	lazy   bool
}

// testPipeline builds one small deterministic world with a 2-shard
// index partition — the same spec the server tests use, so behavior
// differences between tiers cannot hide behind corpus differences.
// Tests only read it.
func testPipeline(t testing.TB) *repro.Pipeline { return testPipelineShards(t, 2) }

// testPipelineShards is the same world partitioned into the given
// number of shards (built once per count).
func testPipelineShards(t testing.TB, shards int) *repro.Pipeline {
	return memoPipeline(t, shards, false)
}

// lazyPipelineShards is testPipelineShards' world with its engine moved
// past the epoch Build's artifact store was built at, so that every
// request takes the lazy path — the LRU and singleflight — and a cold
// one misses: the world of the tests that count on that. Built once per
// count, apart from testPipelineShards' (a router pins its fleet to the
// first epoch it sees).
func lazyPipelineShards(t testing.TB, shards int) *repro.Pipeline {
	return memoPipeline(t, shards, true)
}

func memoPipeline(t testing.TB, shards int, lazy bool) *repro.Pipeline {
	t.Helper()
	testPipeMu.Lock()
	defer testPipeMu.Unlock()
	key := pipeKey{shards, lazy}
	if p := testPipes[key]; p != nil {
		return p
	}
	p, err := repro.Build(testConfig(shards, 400))
	if err != nil {
		t.Fatal(err)
	}
	if lazy {
		// An ingest and a delete of the same document: the epoch moves on,
		// and the engine is left quiescent, as workers need it, with every
		// answer as it was.
		const id = "past-the-store"
		if _, err := p.Engine.Ingest(engine.Document{ID: id, Title: "past", Body: "past the store"}); err != nil {
			t.Fatal(err)
		}
		if _, ok := p.Engine.Delete(id); !ok {
			t.Fatalf("deleting %s missed", id)
		}
	}
	testPipes[key] = p
	return p
}

// testConfig is the test world's spec; backgroundVocab is a knob only so
// a test can build a world whose dictionary differs.
func testConfig(shards, backgroundVocab int) repro.Config {
	return repro.Config{
		Corpus: synth.CorpusSpec{
			Seed:                11,
			NumTopics:           6,
			MinSubtopics:        2,
			MaxSubtopics:        4,
			DocsPerSubtopic:     10,
			GenericDocsPerTopic: 5,
			NoiseDocs:           100,
			DocLength:           40,
			BackgroundVocab:     backgroundVocab,
			TopicVocab:          10,
			SubtopicVocab:       8,
		},
		Log:           synth.AOLLike(12, 2500),
		Engine:        engine.Config{Shards: shards},
		NumCandidates: 100,
		PerSpec:       10,
		K:             10,
	}
}

// routedPipeline shallow-copies the shared pipeline with the
// distributed searcher swapped in: every component (engine, lexicon,
// recommender) is the shared immutable one, only document scoring goes
// remote.
func routedPipeline(p *repro.Pipeline, s *Searcher) *repro.Pipeline {
	rp := *p
	rp.Searcher = s
	return &rp
}

func searchURL(base, q string, extra url.Values) string {
	v := url.Values{}
	v.Set("q", q)
	for key, vals := range extra {
		for _, val := range vals {
			v.Add(key, val)
		}
	}
	return base + "/search?" + v.Encode()
}

// tookUs strips the only inherently timing-dependent field from a
// /search body so the remainder can be compared byte for byte.
var tookUs = regexp.MustCompile(`"took_us":\d+`)

func normalizeBody(b []byte) string {
	return tookUs.ReplaceAllString(string(b), `"took_us":0`)
}

func fetch(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, normalizeBody(b)
}

// TestRouterDifferential is the tentpole gate: a router fronting shard
// workers must answer /search byte-identically (modulo took_us) to the
// single-process server over the same deterministic world, across
// topologies (one worker serving every shard; two shards with two
// replicas each), every algorithm, and several k. Both servers get
// identical request sequences from fresh caches, so even cache_hit
// fields must line up.
func TestRouterDifferential(t *testing.T) {
	p := testPipeline(t)
	eng := p.Engine

	worker := func() *httptest.Server {
		ts := httptest.NewServer(NewWorker(eng).Handler())
		t.Cleanup(ts.Close)
		return ts
	}
	w1, w2, w3 := worker(), worker(), worker()

	topologies := []struct {
		name   string
		shards [][]ReplicaSpec
	}{
		{"one-worker-all-shards", [][]ReplicaSpec{
			{{URL: w1.URL}},
			{{URL: w1.URL}},
		}},
		{"two-shards-two-replicas", [][]ReplicaSpec{
			{{URL: w1.URL}, {URL: w2.URL, Weight: 2}},
			{{URL: w2.URL}, {URL: w3.URL}},
		}},
	}

	queries := []string{
		p.Testbed.TopicQuery(1),
		p.Testbed.TopicQuery(2),
		p.Testbed.TopicQuery(4),
	}

	for _, topo := range topologies {
		t.Run(topo.name, func(t *testing.T) {
			s, err := NewSearcher(Config{Shards: topo.shards})
			if err != nil {
				t.Fatal(err)
			}
			s.ProbeOnce(context.Background())
			if !s.Ready() {
				t.Fatalf("searcher not ready after probe: %+v", s.Stats())
			}

			// Fresh caches on BOTH sides so the nth request of every
			// sequence sees the same hit/miss state.
			single := httptest.NewServer(server.New(p.NewServeHandle(64, 2), server.Config{}).Handler())
			defer single.Close()
			routed := httptest.NewServer(NewRouter(server.New(routedPipeline(p, s).NewServeHandle(64, 2), server.Config{}), s).Handler())
			defer routed.Close()

			for _, q := range queries {
				for _, alg := range core.Algorithms {
					for _, k := range []string{"5", "10"} {
						v := url.Values{"alg": {string(alg)}, "k": {k}}
						wantCode, want := fetch(t, searchURL(single.URL, q, v))
						gotCode, got := fetch(t, searchURL(routed.URL, q, v))
						if wantCode != gotCode || want != got {
							t.Fatalf("q=%q alg=%s k=%s:\nsingle (%d): %s\nrouter (%d): %s",
								q, alg, k, wantCode, want, gotCode, got)
						}
					}
				}
			}
		})
	}
}

// localWorkers serves p's engine through one worker and returns a probed
// searcher whose every shard pool is that worker.
func localWorkers(t *testing.T, p *repro.Pipeline, cfg Config) *Searcher {
	t.Helper()
	ts := httptest.NewServer(NewWorker(p.Engine).Handler())
	t.Cleanup(ts.Close)
	for si := 0; si < p.Engine.Segments().NumShards(); si++ {
		cfg.Shards = append(cfg.Shards, []ReplicaSpec{{URL: ts.URL}})
	}
	s, err := NewSearcher(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	s.ProbeOnce(context.Background())
	if !s.Ready() {
		t.Fatalf("searcher not ready after probe: %+v", s.Stats())
	}
	return s
}

// testQueries is every testbed topic query plus a few of the log's noise
// queries (unambiguous, some matching nothing).
func testQueries(p *repro.Pipeline) []string {
	var qs []string
	for _, topic := range p.Testbed.Topics {
		qs = append(qs, topic.Query)
	}
	for i := 0; i < 6; i++ {
		qs = append(qs, synth.NoiseQuery(i))
	}
	return qs
}

// vectorsOf asks sc.Vector for every candidate's surrogate vector, list
// by list, in rank order, carved into one slab it keeps; zero vectors
// where the fan-out was told none would be read. The first error stops
// it.
func vectorsOf(sc *repro.Scored) ([][]textsim.IVector, error) {
	var slab textsim.Slab
	vecs := make([][]textsim.IVector, len(sc.Lists))
	for q, list := range sc.Lists {
		vecs[q] = make([]textsim.IVector, len(list))
		for j := 0; j < len(list) && sc.Vector != nil; j++ {
			var err error
			if vecs[q][j], err = sc.Vector(q, j, &slab); err != nil {
				return nil, err
			}
		}
	}
	return vecs, nil
}

// TestRouterServeDifferential is the frame's gate at the facade: through
// the router's searcher — term payloads, per-candidate vectors, payload
// none for cached unambiguous verdicts — DiversifyServe must return
// exactly what the local handle returns, and both what the uncached
// reference route (Pipeline.Diversify at that k) returns — documents,
// order, ranks and selection scores — cold and warm, for every query ×
// algorithm × k × shard count; the bounded OptSelect behind both handles
// must be seen to skip candidates (a bound silently off would pass every
// equality) and the other algorithms to skip none; every vector Vector
// builds must equal IVectorOfText of the snippet the text payload carries
// for the same hit; and SearchBatch over the frame must equal
// engine.SearchBatch.
func TestRouterServeDifferential(t *testing.T) {
	ctx := context.Background()
	for _, shards := range []int{1, 2, 3} {
		p := lazyPipelineShards(t, shards)
		s := localWorkers(t, p, Config{})
		rp := routedPipeline(p, s)
		queries := testQueries(p)
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			for _, alg := range []core.Algorithm{core.AlgOptSelect, core.AlgXQuAD, core.AlgIASelect} {
				for _, k := range []int{10, 100} {
					local, routed := p.NewServeHandle(64, 2), rp.NewServeHandle(64, 2)
					oracle := *p
					oracle.Config.K = k
					shallowLegs := 0
					for _, temp := range []string{"cold", "warm"} {
						for _, q := range queries {
							refSel, refSpecs := oracle.Diversify(text.NormalizeQuery(q), alg)
							retrieved := [2]int64{local.Work.CandidatesRetrieved.Load(), routed.Work.CandidatesRetrieved.Load()}
							wantSel, wantSpecs, wantHit, _, err := local.DiversifyServe(ctx, q, alg, k)
							if err != nil {
								t.Fatal(err)
							}
							gotSel, gotSpecs, gotHit, info, err := routed.DiversifyServe(ctx, q, alg, k)
							if err != nil {
								t.Fatalf("%s %s k=%d q=%q through the router: %v", temp, alg, k, q, err)
							}
							if info != (repro.SearchInfo{}) || gotHit != wantHit || gotHit != (temp == "warm") {
								t.Fatalf("%s %s k=%d q=%q: hit %v/%v info %+v", temp, alg, k, q, gotHit, wantHit, info)
							}
							if !reflect.DeepEqual(gotSel, wantSel) || !reflect.DeepEqual(gotSpecs, wantSpecs) {
								t.Fatalf("%s %s k=%d q=%q diverges:\nlocal:  %+v\nrouter: %+v", temp, alg, k, q, wantSel, gotSel)
							}
							if !reflect.DeepEqual(gotSel, refSel) || !reflect.DeepEqual(gotSpecs, refSpecs) {
								for i := range refSel {
									if i >= len(gotSel) || gotSel[i].ID != refSel[i].ID || gotSel[i].Rank != refSel[i].Rank || gotSel[i].Score != refSel[i].Score {
										t.Fatalf("%s %s k=%d q=%q: served SERP leaves Pipeline.Diversify's at #%d\nreference: %+v\nserved:    %+v", temp, alg, k, q, i, refSel, gotSel)
									}
								}
								t.Fatalf("%s %s k=%d q=%q: served SERP has Pipeline.Diversify's IDs, ranks and scores but differs elsewhere\nreference: %+v\nserved:    %+v", temp, alg, k, q, refSel, gotSel)
							}
							// A cached "not ambiguous" verdict is answered from k
							// hit headers a shard: what was retrieved is the SERP,
							// on both sides of the process boundary.
							retrieved[0] = local.Work.CandidatesRetrieved.Load() - retrieved[0]
							retrieved[1] = routed.Work.CandidatesRetrieved.Load() - retrieved[1]
							if retrieved[0] != retrieved[1] || (refSpecs == nil && temp == "warm" && retrieved[1] != int64(len(gotSel))) {
								t.Fatalf("%s %s k=%d q=%q: retrieved %d candidates locally, %d through the router, for a SERP of %d", temp, alg, k, q, retrieved[0], retrieved[1], len(gotSel))
							}
							if refSpecs == nil && temp == "warm" && len(gotSel) == k {
								shallowLegs++
							}
						}
					}
					if k == 10 && shallowLegs == 0 {
						t.Fatalf("%s k=%d: no unambiguous query filled its SERP, so no shard leg was cut short", alg, k)
					}
					for side, h := range map[string]*repro.ServeHandle{"local": local, "routed": routed} {
						seen, evaluated, vectors := h.Work.CandidatesSeen.Load(), h.Work.CandidatesEvaluated.Load(), h.Work.VectorsBuilt.Load()
						// At k=100 no topic retrieves k candidates: M never fills.
						if bounded := alg == core.AlgOptSelect && k == 10; seen == 0 || bounded != (evaluated < seen) || bounded != (vectors < seen) {
							t.Fatalf("%s %s k=%d: %d candidates seen, %d scored, %d vectors built; OptSelect must skip some at k=10, everything else none", side, alg, k, seen, evaluated, vectors)
						}
					}
				}
			}

			ks := make([]int, len(queries))
			for i := range ks {
				ks[i] = []int{p.Config.NumCandidates, 7, 0}[i%3]
			}
			want, err := p.Engine.SearchBatch(ctx, queries, ks)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.SearchBatch(ctx, queries, ks)
			if err != nil {
				t.Fatal(err)
			}
			for i := range queries {
				// An empty list is nil from one side and empty from the other.
				if len(got[i]) != len(want[i]) || (len(want[i]) > 0 && !reflect.DeepEqual(got[i], want[i])) {
					t.Fatalf("SearchBatch q=%q k=%d diverges from the engine's", queries[i], ks[i])
				}
			}
			for _, vectors := range []bool{true, false} {
				sc, err := s.Score(ctx, p.Engine.Dictionary(), queries, ks, vectors)
				if err != nil {
					t.Fatal(err)
				}
				vecs, err := vectorsOf(sc)
				if err != nil {
					t.Fatal(err)
				}
				for i, list := range sc.Lists {
					if len(list) != len(want[i]) {
						t.Fatalf("Score q=%q: %d candidates, SearchBatch has %d", queries[i], len(list), len(want[i]))
					}
					for j, c := range list {
						r := want[i][j]
						if c.DocID != r.DocID || c.Rank != r.Rank || c.Score != r.Score {
							t.Fatalf("Score q=%q #%d = %+v, SearchBatch has %+v", queries[i], j, c, r)
						}
						wantVec := p.Engine.IVectorOfText(r.Snippet)
						if !vectors {
							wantVec = textsim.IVector{}
						}
						if !reflect.DeepEqual(vecs[i][j], wantVec) {
							t.Fatalf("vectors=%v q=%q #%d (%s): vector %+v, IVectorOfText(snippet) %+v", vectors, queries[i], j, c.DocID, vecs[i][j], wantVec)
						}
					}
				}
				sc.Close()
				sc.Close() // idempotent
				if _, err := vectorsOf(sc); vectors && err == nil {
					t.Fatal("Vector after Close read frames that were handed back")
				}
			}
		})
	}
}

// TestScoreListsOutliveFrames: with a single shard answering, the merge
// has one list to return, and ranking.MergeSegments hands a lone list back
// uncopied — here a view into the shard's pooled frame. Score's lists must
// be the request's own: after Close hands the frame back and other Scores
// reuse it, the first request's lists must read as they did.
func TestScoreListsOutliveFrames(t *testing.T) {
	// One P, so the frame pool hands the frame just put back to the next
	// fan-out.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ctx := context.Background()
	p := testPipelineShards(t, 1)
	s := localWorkers(t, p, Config{})
	dict := p.Engine.Dictionary()
	queries := testQueries(p)
	for _, vectors := range []bool{false, true} {
		sc, err := s.Score(ctx, dict, queries[:1], []int{0}, vectors)
		if err != nil {
			t.Fatal(err)
		}
		want := slices.Clone(sc.Lists[0])
		if len(want) == 0 {
			t.Fatalf("%q retrieved nothing", queries[0])
		}
		sc.Close()
		for _, q := range queries[1:] {
			other, err := s.Score(ctx, dict, []string{q}, []int{0}, vectors)
			if err != nil {
				t.Fatal(err)
			}
			other.Close()
		}
		if !reflect.DeepEqual(sc.Lists[0], want) {
			t.Fatalf("vectors=%v: the lists changed after Close, once the frame was reused", vectors)
		}
	}
}

// TestScoredVectorSlab: a fan-out's vectors — local (engine.Candidates)
// or routed (the searcher's Score) — are carved out of the slab the
// caller hands in. Carved into one slab the caller keeps, each must equal
// IVectorOfText of its hit's snippet, have cap == len so that appending
// to one leaves its neighbours alone, and stay valid after Close; carved
// into scratch the caller resets before every candidate, as the bounded
// selection does, each must equal it too when read before the next.
// Eight requests run at once (under -race, the slabs must share nothing,
// and routed frames handed back on Close are reused by the others).
func TestScoredVectorSlab(t *testing.T) {
	p := testPipeline(t)
	ctx := context.Background()
	dict := p.Engine.Dictionary()
	queries := testQueries(p)
	for name, s := range map[string]repro.Searcher{"local": repro.LocalSearcher(p.Engine), "routed": localWorkers(t, p, Config{})} {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(q string) {
				defer wg.Done()
				ref, err := s.SearchBatch(ctx, []string{q}, []int{0})
				if err != nil {
					t.Error(err)
					return
				}
				sc, err := s.Score(ctx, dict, []string{q}, []int{0}, true)
				if err != nil {
					t.Error(err)
					return
				}
				var kept, scratch textsim.Slab
				vecs := make([]textsim.IVector, len(sc.Lists[0]))
				for j := range vecs {
					if vecs[j], err = sc.Vector(0, j, &kept); err != nil {
						t.Error(err)
					}
					scratch.Reset()
					v, err := sc.Vector(0, j, &scratch)
					if want := p.Engine.IVectorOfText(ref[0][j].Snippet); err != nil || !reflect.DeepEqual(v, want) {
						t.Errorf("%s q=%q #%d (%s): through a scratch slab, vector %+v (err %v), IVectorOfText(snippet) %+v", name, q, j, ref[0][j].DocID, v, err, want)
					}
				}
				sc.Close()
				for j, v := range vecs {
					if cap(v.IDs) != len(v.IDs) || cap(v.Weights) != len(v.Weights) {
						t.Errorf("%s q=%q #%d: vector of %d entries has cap %d/%d", name, q, j, v.Len(), cap(v.IDs), cap(v.Weights))
					}
					vecs[j].IDs, vecs[j].Weights = append(v.IDs, -1), append(v.Weights, -1)
				}
				for j, v := range vecs {
					want := p.Engine.IVectorOfText(ref[0][j].Snippet)
					v.IDs, v.Weights = v.IDs[:len(v.IDs)-1], v.Weights[:len(v.Weights)-1]
					if !reflect.DeepEqual(v, want) {
						t.Errorf("%s q=%q #%d (%s): after Close and every neighbour's append, vector %+v, IVectorOfText(snippet) %+v", name, q, j, ref[0][j].DocID, v, want)
					}
				}
			}(queries[g%len(queries)])
		}
		wg.Wait()
	}
}

// TestDictionaryMismatch: a worker whose dictionary numbers terms
// differently must never have a frame merged — its term payloads would
// count into the wrong vectors without any other symptom. It fails the
// attempt (like a diverged epoch: the router fails over) and, once the
// router knows its own dictionary, the probe (like a wrong shard count).
func TestDictionaryMismatch(t *testing.T) {
	ctx := context.Background()
	p := testPipeline(t)
	other, err := repro.Build(testConfig(2, 300))
	if err != nil {
		t.Fatal(err)
	}
	dict := p.Engine.Dictionary()
	if dict.Fingerprint == other.Engine.Dictionary().Fingerprint {
		t.Fatal("the two worlds share a dictionary; the test needs them to differ")
	}
	good := httptest.NewServer(NewWorker(p.Engine).Handler())
	defer good.Close()
	bad := httptest.NewServer(NewWorker(other.Engine).Handler())
	defer bad.Close()
	q, k := []string{p.Testbed.TopicQuery(1)}, []int{20}

	// Alone, the stranger fails every attempt, then every probe.
	s, err := NewSearcher(Config{Shards: [][]ReplicaSpec{{{URL: bad.URL}}, {{URL: bad.URL}}}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.ProbeOnce(ctx)
	if !s.Ready() {
		t.Fatal("before the router knows its dictionary a probe has nothing to compare: want ready")
	}
	if _, err := s.Score(ctx, dict, q, k, true); err == nil || !strings.Contains(err.Error(), "dictionary") {
		t.Fatalf("Score against a foreign dictionary: err = %v, want a dictionary mismatch", err)
	}
	if _, err := s.SearchBatch(ctx, q, k); err == nil || !strings.Contains(err.Error(), "dictionary") {
		t.Fatalf("SearchBatch against a foreign dictionary: err = %v, want a dictionary mismatch", err)
	}
	s.ProbeOnce(ctx)
	if s.Ready() {
		t.Fatalf("searcher ready over workers with a foreign dictionary: %+v", s.Stats())
	}

	// Beside a true replica it is failed over, and the answer is the
	// local one.
	s2, err := NewSearcher(Config{FailThreshold: 100, Shards: [][]ReplicaSpec{
		{{URL: bad.URL}, {URL: good.URL}},
		{{URL: bad.URL}, {URL: good.URL}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	s2.ProbeOnce(ctx)
	want, err := p.Engine.SearchBatch(ctx, q, k)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ { // round-robin lands primaries on both replicas
		sc, err := s2.Score(ctx, dict, q, k, true)
		if err != nil {
			t.Fatalf("request %d: %v (want failover to the true replica)", i, err)
		}
		vecs, err := vectorsOf(sc)
		if err != nil {
			t.Fatal(err)
		}
		for j, c := range sc.Lists[0] {
			if c.DocID != want[0][j].DocID || !reflect.DeepEqual(vecs[0][j], p.Engine.IVectorOfText(want[0][j].Snippet)) {
				t.Fatalf("request %d #%d: %+v, want %s", i, j, c, want[0][j].DocID)
			}
		}
		sc.Close()
	}
	failures := int64(0)
	for _, ps := range s2.Stats() {
		for _, rs := range ps.Replicas {
			if rs.URL == good.URL && rs.Failures != 0 {
				t.Errorf("the true replica failed %d attempts", rs.Failures)
			}
			if rs.URL == bad.URL {
				failures += rs.Failures
			}
		}
	}
	if failures == 0 {
		t.Error("the foreign replica took traffic and failed no attempt")
	}
}

// TestRouterReadyz pins the router's composite readiness: not ready
// until the local pipeline is published AND every pool has a healthy
// probed replica; /healthz stays 200 (liveness) throughout.
func TestRouterReadyz(t *testing.T) {
	p := testPipeline(t)
	w := NewWorker(nil) // worker up, index not loaded
	wts := httptest.NewServer(w.Handler())
	defer wts.Close()

	s, err := NewSearcher(Config{Shards: [][]ReplicaSpec{{{URL: wts.URL}}, {{URL: wts.URL}}}})
	if err != nil {
		t.Fatal(err)
	}
	inner := server.New(nil, server.Config{})
	rts := httptest.NewServer(NewRouter(inner, s).Handler())
	defer rts.Close()

	get := func(path string) (int, RouterReady) {
		resp, err := http.Get(rts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var rr RouterReady
		if path == "/readyz" {
			if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, rr
	}

	if code, rr := get("/readyz"); code != http.StatusServiceUnavailable || rr.Ready {
		t.Fatalf("readyz before anything: %d %+v", code, rr)
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz must stay 200 (liveness): %d", code)
	}

	// Pipeline up, backends still cold.
	inner.Publish(p.NewServeHandle(16, 1))
	if code, rr := get("/readyz"); code != http.StatusServiceUnavailable || rr.Backends || !rr.Pipeline {
		t.Fatalf("readyz with cold backends: %d %+v", code, rr)
	}

	// Worker publishes; a probe round flips backends.
	w.Publish(p.Engine)
	s.ProbeOnce(context.Background())
	if code, rr := get("/readyz"); code != http.StatusOK || !rr.Ready {
		t.Fatalf("readyz after publish+probe: %d %+v", code, rr)
	}
}

// TestProbeRejectsShardMismatch: a worker partitioned differently than
// the router's topology must never pass a probe — merging its lists
// would be silently wrong.
func TestProbeRejectsShardMismatch(t *testing.T) {
	p := testPipeline(t) // 2-shard engine
	wts := httptest.NewServer(NewWorker(p.Engine).Handler())
	defer wts.Close()

	// Router configured for 3 shards; worker partitions into 2.
	s, err := NewSearcher(Config{Shards: [][]ReplicaSpec{
		{{URL: wts.URL}}, {{URL: wts.URL}}, {{URL: wts.URL}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	s.ProbeOnce(context.Background())
	if s.Ready() {
		t.Fatalf("searcher ready despite shard-count mismatch: %+v", s.Stats())
	}
	for _, ps := range s.Stats() {
		for _, rs := range ps.Replicas {
			if rs.Healthy {
				t.Fatalf("replica marked healthy despite shard mismatch: %+v", rs)
			}
		}
	}
}

// TestSearcherOwnTransport: without a configured transport the searcher
// brings one whose idle pool holds a connection per search a worker
// admits — http.DefaultTransport keeps two per host and redials the rest
// under load — and Close leaves no idle connection behind.
func TestSearcherOwnTransport(t *testing.T) {
	p := testPipeline(t)
	var mu sync.Mutex
	states := map[http.ConnState]int{}
	// The first wave's sixteen shard requests are held at the server until
	// all have arrived, so the idle pool fills with exactly sixteen dials.
	// Left to race, a request that finds the pool empty dials, and when
	// another request's connection comes back first it takes that one
	// instead; the dial still completes and lands in the pool, a
	// connection more than the waves ever use at once.
	var holding atomic.Bool
	var held atomic.Int32
	arrived := make(chan struct{})
	worker := NewWorker(p.Engine).Handler()
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if holding.Load() && r.URL.Path == "/shard/search" {
			if held.Add(1) == workerSearches {
				close(arrived)
			}
			select {
			case <-arrived:
			case <-time.After(5 * time.Second): // the wave never reached sixteen: the count below says so
			}
		}
		worker.ServeHTTP(w, r)
	}))
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		mu.Lock()
		states[st]++
		mu.Unlock()
	}
	ts.Start()
	defer ts.Close()
	s, err := NewSearcher(Config{Shards: [][]ReplicaSpec{{{URL: ts.URL}}, {{URL: ts.URL}}}})
	if err != nil {
		t.Fatal(err)
	}
	if s.own == nil || s.own.MaxIdleConnsPerHost != workerSearches || s.own == http.DefaultTransport {
		t.Fatalf("own transport = %+v, want a private one keeping %d idle connections per host", s.own, workerSearches)
	}
	// Waves of eight concurrent two-shard searches — sixteen connections
	// at most in use at once. An idle pool of two would redial most of
	// every wave; this one never needs a seventeenth connection. A search
	// reads its answer to the end, which hands the connection back to the
	// pool before the search returns.
	holding.Store(true)
	for wave := 0; wave < 4; wave++ {
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := s.SearchBatch(context.Background(), []string{p.Testbed.TopicQuery(1)}, []int{5}); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		holding.Store(false)
	}
	mu.Lock()
	dialed := states[http.StateNew]
	mu.Unlock()
	if dialed > workerSearches {
		t.Errorf("four waves dialed %d connections, want at most %d", dialed, workerSearches)
	}
	s.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		open := states[http.StateNew] - states[http.StateClosed]
		mu.Unlock()
		if open == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d connections still open after Close", open)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A configured transport is used as is and left alone.
	s2, err := NewSearcher(Config{Transport: newFakeNet(), Shards: [][]ReplicaSpec{{{URL: "http://x"}}}})
	if err != nil {
		t.Fatal(err)
	}
	if s2.own != nil {
		t.Error("searcher built its own transport beside the configured one")
	}
	s2.Close()
}

// TestSearcherValidation covers topology construction errors.
func TestSearcherValidation(t *testing.T) {
	if _, err := NewSearcher(Config{}); err == nil {
		t.Error("empty topology accepted")
	}
	if _, err := NewSearcher(Config{Shards: [][]ReplicaSpec{{{URL: "http://a"}}, {}}}); err == nil {
		t.Error("shard with no replicas accepted")
	}
}

// TestWorkerShardSearchErrors pins the worker's error envelope: shed
// while loading, reject malformed request frames — and a JSON body, with
// a message naming the frame's magic — and out-of-range shards.
func TestWorkerShardSearchErrors(t *testing.T) {
	p := testPipeline(t)
	w := NewWorker(nil)
	ts := httptest.NewServer(w.Handler())
	defer ts.Close()

	post := func(body []byte) (int, string) {
		resp, err := http.Post(ts.URL+"/shard/search", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	one := ShardSearchRequest{Shard: 0, Queries: []string{"x"}, Ks: []int{5}}

	if code, _ := post(one.frame()); code != http.StatusServiceUnavailable {
		t.Errorf("search while loading: %d, want 503", code)
	}
	w.Publish(p.Engine)
	malformed := one.frame()
	malformed[len(malformed)-2] = 2 // the query claims two bytes, one follows
	if code, _ := post(malformed); code != http.StatusBadRequest {
		t.Errorf("malformed body: %d, want 400", code)
	}
	mismatch := one.frame()
	mismatch[len(requestMagic)]++ // the length field counts a byte that is not there
	if code, _ := post(mismatch); code != http.StatusBadRequest {
		t.Errorf("length mismatch: %d, want 400", code)
	}
	if code, _ := post(ShardSearchRequest{Shard: 99, Queries: []string{"x"}, Ks: []int{5}}.frame()); code != http.StatusInternalServerError {
		t.Errorf("out-of-range shard: %d, want 500", code)
	}
	if code, _ := post(ShardSearchRequest{Shard: 0, Queries: []string{"x"}, Ks: []int{5}, Payload: PayloadText + 1}.frame()); code != http.StatusBadRequest {
		t.Errorf("unknown payload kind: %d, want 400", code)
	}
	many := ShardSearchRequest{Queries: make([]string, maxShardQueries+1), Ks: make([]int, maxShardQueries+1)}
	if code, _ := post(many.frame()); code != http.StatusBadRequest {
		t.Errorf("%d queries in one batch: %d, want 400", len(many.Queries), code)
	}
	huge := ShardSearchRequest{Shard: 0, Queries: []string{strings.Repeat("x", maxShardRequestBytes)}, Ks: []int{5}}
	if code, _ := post(huge.frame()); code != http.StatusBadRequest {
		t.Errorf("body over %d bytes: %d, want 400", maxShardRequestBytes, code)
	}
	if code, body := post([]byte(`{"shard":0,"queries":["x"],"ks":[5]}`)); code != http.StatusBadRequest || !strings.Contains(body, `RSQ\\x01`) {
		t.Errorf("JSON body: %d %s, want 400 naming the request frame's magic", code, body)
	}
	if code, _ := post(one.frame()); code != http.StatusOK {
		t.Errorf("valid search: %d, want 200", code)
	}
	for kind := PayloadNone; kind <= PayloadText; kind++ {
		if code, _ := post(ShardSearchRequest{Shard: 1, Queries: []string{"x", "y"}, Ks: []int{5, 0}, Payload: kind}.frame()); code != http.StatusOK {
			t.Errorf("payload %v: %d, want 200", kind, code)
		}
	}
}
