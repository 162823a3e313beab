package repro_test

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/qfg"
	"repro/internal/ranking"
	"repro/internal/router"
	"repro/internal/suggest"
	"repro/internal/synth"
	"repro/internal/text"
)

// depthWorld is a world small enough to build once per model and shard
// count. K is set apart from every k the sweep asks for by number.
func depthWorld(seed int64, ec engine.Config) repro.Config {
	return repro.Config{
		Corpus: synth.CorpusSpec{
			Seed: seed, NumTopics: 6, MinSubtopics: 2, MaxSubtopics: 4,
			DocsPerSubtopic: 10, GenericDocsPerTopic: 5, NoiseDocs: 100,
			DocLength: 40, BackgroundVocab: 400, TopicVocab: 10, SubtopicVocab: 8,
		},
		Log:           synth.AOLLike(seed+1, 2500),
		Engine:        ec,
		NumCandidates: 100,
		PerSpec:       10,
		K:             7,
	}
}

// scoreCall is one Score fan-out as the searcher was asked for it.
type scoreCall struct {
	queries []string
	ks      []int
	vectors bool
}

// recordingSearcher passes everything through and remembers what Score
// was asked. A miss scores R_q on one goroutine beside the aspect batch on
// another, hence the lock.
type recordingSearcher struct {
	repro.Searcher
	mu    sync.Mutex
	calls []scoreCall
}

func (r *recordingSearcher) Score(ctx context.Context, dict engine.Dictionary, queries []string, ks []int, vectors bool) (*repro.Scored, error) {
	r.mu.Lock()
	r.calls = append(r.calls, scoreCall{append([]string(nil), queries...), append([]int(nil), ks...), vectors})
	r.mu.Unlock()
	return r.Searcher.Score(ctx, dict, queries, ks, vectors)
}

// take returns the calls recorded since the last take.
func (r *recordingSearcher) take() []scoreCall {
	r.mu.Lock()
	defer r.mu.Unlock()
	calls := r.calls
	r.calls = nil
	return calls
}

// answer is a SERP and the specializations it was diversified by.
type answer struct {
	sel   []core.Selected
	specs []suggest.Specialization
}

// reference is Pipeline.Diversify for one query with the part that depends
// on neither the algorithm nor k — Algorithm 1 and BuildProblem's snippet
// retrieval — done once.
type reference struct {
	specs   []suggest.Specialization
	problem *core.Problem
}

func newReference(t *testing.T, p *repro.Pipeline, norm string) reference {
	specs := p.DetectSpecializations(norm)
	r := reference{specs, p.BuildProblem(norm, specs)}
	// Held to the real thing where the two can be compared directly.
	sel, gotSpecs := p.Diversify(norm, core.AlgOptSelect)
	if got := r.at(core.AlgOptSelect, p.Config.K); !reflect.DeepEqual(got.sel, sel) || !reflect.DeepEqual(got.specs, gotSpecs) {
		t.Fatalf("q=%q: BuildProblem + core.Diversify is not Pipeline.Diversify", norm)
	}
	return r
}

// at is what Pipeline.Diversify(query, alg) answers under Config.K = k.
func (r reference) at(alg core.Algorithm, k int) answer {
	r.problem.K = k
	if len(r.specs) == 0 {
		return answer{core.Baseline(r.problem), nil}
	}
	return answer{core.Diversify(alg, r.problem), r.specs}
}

// TestServeDepthFollowsVerdict pins the rule DiversifyServe retrieves R_q
// by, and that no depth it picks can be told from the SERP: over weighting
// models × shard counts × local and routed handles × every algorithm × k,
// cold then warm, the answer is Pipeline.Diversify's at that k — ID, Rank,
// Rel and Score, by reflect.DeepEqual — while the searcher is asked for
// min(k, NumCandidates) candidates exactly when nothing will diversify them
// (the baseline by name, or a cached "not ambiguous" verdict) and the model
// keeps scores non-negative, for NumCandidates everywhere else — LMDirichlet
// always, every miss and every ambiguous query under a diversifying
// algorithm — and for vectors exactly when the request may diversify. (The
// exception earns its keep on this very world: LMDirichlet scores the noise
// queries below zero, and retrieving them k deep moves every Rel.)
func TestServeDepthFollowsVerdict(t *testing.T) {
	ctx := context.Background()
	models := []ranking.Model{ranking.DPH{}, ranking.BM25{}, ranking.TFIDF{}, ranking.LMDirichlet{}}
	algs := []core.Algorithm{core.AlgBaseline, core.AlgOptSelect, core.AlgXQuAD, core.AlgIASelect, core.AlgMMR}
	for _, m := range models {
		_, boundable := m.(ranking.Boundable)
		for _, shards := range []int{1, 2} {
			m, shards := m, shards
			t.Run(fmt.Sprintf("%s/shards=%d", m.Name(), shards), func(t *testing.T) {
				t.Parallel()
				p, err := repro.Build(depthWorld(42, engine.Config{Model: m, Shards: shards}))
				if err != nil {
					t.Fatal(err)
				}
				repro.PastStore(t, p)
				n := p.Config.NumCandidates
				ks := []int{-3, 0, 1, 10, p.Config.K, n, n + 5}

				// Every topic query (ambiguous, if the log made them so), a sample
				// of the log's noise queries and one query the log never saw.
				var queries []string
				for _, topic := range p.Testbed.Topics {
					queries = append(queries, topic.Query)
				}
				for _, i := range []int{0, 1, 7, 40} {
					queries = append(queries, synth.NoiseQuery(i))
				}
				queries = append(queries, "  Noise  QUERY never-logged ")

				ts := httptest.NewServer(router.NewWorker(p.Engine).Handler())
				var pools [][]router.ReplicaSpec
				for si := 0; si < shards; si++ {
					pools = append(pools, []router.ReplicaSpec{{URL: ts.URL}})
				}
				remote, err := router.NewSearcher(router.Config{Shards: pools})
				if err != nil {
					t.Fatal(err)
				}
				remote.ProbeOnce(ctx)
				if !remote.Ready() {
					t.Fatalf("searcher not ready after probe: %+v", remote.Stats())
				}

				sides := map[string]*recordingSearcher{
					"local":  {Searcher: repro.LocalSearcher(p.Engine)},
					"routed": {Searcher: remote},
				}
				// The reference route's problem does not depend on the algorithm
				// or on k, so each query's is built once.
				refs := make([]reference, len(queries))
				for i, q := range queries {
					refs[i] = newReference(t, p, text.NormalizeQuery(q))
				}
				ambiguous, shallow := 0, 0
				for _, alg := range algs {
					for _, k := range ks {
						keff := k
						if keff <= 0 {
							keff = p.Config.K
						}
						want := make([]answer, len(queries))
						for i := range queries {
							want[i] = refs[i].at(alg, keff)
						}
						for side, rec := range sides {
							sp := *p
							sp.Searcher = rec
							h := sp.NewServeHandle(64, 2)
							for _, temp := range []string{"cold", "warm"} {
								for i, q := range queries {
									at := fmt.Sprintf("%s %s %s k=%d q=%q", side, temp, alg, k, q)
									rec.take()
									before := h.Work.CandidatesRetrieved.Load()
									sel, specs, hit, info, err := h.DiversifyServe(ctx, q, alg, k)
									if err != nil {
										t.Fatalf("%s: %v", at, err)
									}
									if hit != (temp == "warm") || info != (repro.SearchInfo{}) {
										t.Fatalf("%s: hit=%v info=%+v", at, hit, info)
									}
									if !reflect.DeepEqual(sel, want[i].sel) || !reflect.DeepEqual(specs, want[i].specs) {
										t.Fatalf("%s: served SERP is not Pipeline.Diversify's\nreference: %+v\nserved:    %+v", at, want[i].sel, sel)
									}

									// The one R_q fan-out among the recorded calls.
									norm := text.NormalizeQuery(q)
									var rq []scoreCall
									for _, c := range rec.take() {
										if len(c.queries) == 1 && c.queries[0] == norm {
											rq = append(rq, c)
										}
									}
									if len(rq) != 1 {
										t.Fatalf("%s: %d R_q fan-outs, want 1", at, len(rq))
									}
									known := temp == "cold" || len(want[i].specs) > 0 // what retrieval knew of the verdict
									wantVectors := known && alg != core.AlgBaseline
									wantDepth := n
									if boundable && !wantVectors {
										wantDepth = min(keff, n)
									}
									if rq[0].ks[0] != wantDepth || rq[0].vectors != wantVectors {
										t.Fatalf("%s: R_q asked %d deep, vectors=%v; want %d, %v", at, rq[0].ks[0], rq[0].vectors, wantDepth, wantVectors)
									}
									if got := h.Work.CandidatesRetrieved.Load() - before; got < int64(len(sel)) || got > int64(wantDepth) {
										t.Fatalf("%s: %d candidates counted as retrieved for a SERP of %d at depth %d", at, got, len(sel), wantDepth)
									}
									if len(want[i].specs) > 0 {
										ambiguous++
									}
									if wantDepth < n {
										shallow++
									}
								}
							}
						}
					}
				}
				remote.Close()
				ts.Close()
				if ambiguous == 0 || boundable != (shallow > 0) {
					t.Fatalf("%d ambiguous requests, %d shallow retrievals — the sweep did not reach both sides of the rule", ambiguous, shallow)
				}
			})
		}
	}
}

// TestBuildDeterministic: Build mines the log on a goroutine beside the
// index build and stems through a per-pass memo; neither may show in what
// comes out. Two builds of one seed serialize to the same index bytes in
// both formats cmd/buildindex writes (max-score and block-max tables
// included), train equal recommenders from logs and sessions of equal
// size, and their recommenders answer alike. The pipeline keeps no log, so
// the log and its sessions are compared by mining one testbed twice.
func TestBuildDeterministic(t *testing.T) {
	cfg := depthWorld(5, engine.Config{Shards: 2})
	tb := synth.GenerateTestbed(cfg.Corpus)
	logA, logB := synth.GenerateLog(tb, cfg.Log), synth.GenerateLog(tb, cfg.Log)
	if logA.Len() == 0 || !reflect.DeepEqual(logA, logB) {
		t.Errorf("two logs of one testbed differ (%d and %d records)", logA.Len(), logB.Len())
	}
	sessA, sessB := qfg.ExtractSessions(logA, cfg.Session), qfg.ExtractSessions(logB, cfg.Session)
	if len(sessA) == 0 || !reflect.DeepEqual(sessA, sessB) {
		t.Errorf("two minings of one log cut different sessions (%d and %d)", len(sessA), len(sessB))
	}

	var images [2][2]bytes.Buffer
	var pipes [2]*repro.Pipeline
	for i := range pipes {
		p, err := repro.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Engine.SaveTo(&images[i][0]); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Engine.WriteMappedTo(&images[i][1]); err != nil {
			t.Fatal(err)
		}
		pipes[i] = p
	}
	for f, name := range []string{"engine stream", "mapped image"} {
		if a, b := images[0][f].Bytes(), images[1][f].Bytes(); len(a) == 0 || !bytes.Equal(a, b) {
			t.Errorf("%s: two builds of one seed differ (%d and %d bytes)", name, len(a), len(b))
		}
	}
	a, b := pipes[0], pipes[1]
	if a.LogRecords == 0 || a.MinedSessions == 0 || a.LogRecords != b.LogRecords || a.MinedSessions != b.MinedSessions {
		t.Errorf("two builds of one seed mined %d/%d and %d/%d records/sessions", a.LogRecords, a.MinedSessions, b.LogRecords, b.MinedSessions)
	}
	if !reflect.DeepEqual(a.Recommender, b.Recommender) {
		t.Error("two builds of one seed trained different recommenders")
	}
	ambiguous := 0
	queries := []string{synth.NoiseQuery(0), "never logged"}
	for _, topic := range a.Testbed.Topics {
		queries = append(queries, topic.Query)
	}
	for _, q := range queries {
		sa, sb := a.DetectSpecializations(q), b.DetectSpecializations(q)
		if !reflect.DeepEqual(sa, sb) {
			t.Fatalf("DetectSpecializations(%q) differs between two builds of one seed:\n%+v\n%+v", q, sa, sb)
		}
		if len(sa) > 0 {
			ambiguous++
		}
	}
	if ambiguous == 0 {
		t.Fatal("no topic query is ambiguous: the recommenders were compared on nothing")
	}
}
