package repro_test

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/synth"
)

// servedWorld is the world the serving benchmark's head-hot, cold-tail and
// routed workloads build (benchmark/workloads.go, seed 1): 48 topics over
// 12 000 noise documents, |R_q| = 500, k = 10.
func servedWorld() repro.Config {
	return repro.Config{
		Corpus: synth.CorpusSpec{
			Seed: 1, NumTopics: 48, MinSubtopics: 4, MaxSubtopics: 4,
			DocsPerSubtopic: 40, GenericDocsPerTopic: 20, NoiseDocs: 12000,
			DocLength: 50, BackgroundVocab: 2000, TopicVocab: 12, SubtopicVocab: 8,
		},
		Log:           synth.AOLLike(2, 12000),
		NumCandidates: 500,
		PerSpec:       20,
		K:             10,
		Threshold:     0.30,
	}
}

// deepWorld is the world of the serving benchmark's deep-serp workload
// (seed 1): 8 topics of 5 subtopics, 350 documents per subtopic and 300
// generic ones per topic, 4 000 noise documents, |R_q| = 1 000, k = 100.
func deepWorld() repro.Config {
	c := servedWorld()
	c.Corpus.NumTopics, c.Corpus.MinSubtopics, c.Corpus.MaxSubtopics = 8, 5, 5
	c.Corpus.DocsPerSubtopic, c.Corpus.GenericDocsPerTopic, c.Corpus.NoiseDocs = 350, 300, 4000
	c.NumCandidates, c.K = 1000, 100
	return c
}

// BenchmarkBuild times repro.Build over that world: most of what the
// serving benchmark reports as setup_s.
func BenchmarkBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := repro.Build(servedWorld()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRetrievalByClass times first-stage retrieval for the two kinds
// of query the served stream is made of — a topic query (a few hundred
// postings) and a noise query (one 12 000-posting list) — at the two depths
// DiversifyServe asks for: NumCandidates when the request may diversify, k
// when a cached verdict says it will not. The loaded/ variants run the
// same queries over the engine read back from its epoch file (engine.Load:
// every segment an RIDX7 image on a heap slab) instead of the built one.
func BenchmarkRetrievalByClass(b *testing.B) {
	p, err := repro.Build(servedWorld())
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Engine.SaveTo(&buf); err != nil {
		b.Fatal(err)
	}
	loaded, err := engine.Load(&buf, p.Config.Engine)
	if err != nil {
		b.Fatal(err)
	}
	for _, eng := range []struct {
		prefix string
		e      *engine.Engine
	}{{"", p.Engine}, {"loaded/", loaded}} {
		for _, class := range []struct{ name, query string }{
			{"topic", p.Testbed.Topics[0].Query},
			{"noise", synth.NoiseQuery(3)},
		} {
			for _, depth := range []int{p.Config.NumCandidates, p.Config.K} {
				b.Run(fmt.Sprintf("%s%s/depth=%d", eng.prefix, class.name, depth), func(b *testing.B) {
					b.ReportAllocs()
					hits := 0
					for i := 0; i < b.N; i++ {
						c, err := eng.e.Candidates(context.Background(), []string{class.query}, []int{depth})
						if err != nil {
							b.Fatal(err)
						}
						hits = len(c.Lists[0])
						c.Close()
					}
					b.ReportMetric(float64(hits), "hits")
				})
			}
		}
	}
}

// BenchmarkServeHitByClass times a warm DiversifyServe hit (OptSelect, k =
// 10) over that world, per query class: topic queries, cycling through
// every topic, whose cached artifacts hold the aspect index Definition 2
// is scored through; noise queries, whose cached verdict is "not
// ambiguous", so the hit is one posting list retrieved k deep; and a mix
// of the two in head-hot's proportion (about 26 % noise). The deep class
// cycles through the topics of deepWorld at its k = 100 over 1 000
// candidates, where building the evaluated candidates' surrogate vectors
// is the largest cost.
func BenchmarkServeHitByClass(b *testing.B) {
	p, err := repro.Build(servedWorld())
	if err != nil {
		b.Fatal(err)
	}
	h := p.NewServeHandle(1024, 16)
	ctx := context.Background()
	var topics, noise []string
	for _, t := range p.Testbed.Topics {
		topics = append(topics, t.Query)
	}
	for i := 0; i < 17; i++ {
		noise = append(noise, synth.NoiseQuery(i))
	}
	mix := append(slices.Clip(topics), noise...)
	for _, q := range mix {
		if _, _, _, _, err := h.DiversifyServe(ctx, q, core.AlgOptSelect, p.Config.K); err != nil {
			b.Fatal(err)
		}
	}
	for _, class := range []struct {
		name    string
		queries []string
	}{{"topic", topics}, {"noise", noise}, {"mix", mix}} {
		b.Run(class.name, func(b *testing.B) { serveHits(b, h, class.queries, p.Config.K) })
	}

	var deep *repro.ServeHandle
	var deepTopics []string
	b.Run("deep", func(b *testing.B) {
		if deep == nil {
			dp, err := repro.Build(deepWorld())
			if err != nil {
				b.Fatal(err)
			}
			deep = dp.NewServeHandle(1024, 16)
			for _, t := range dp.Testbed.Topics {
				deepTopics = append(deepTopics, t.Query)
				if _, _, _, _, err := deep.DiversifyServe(ctx, t.Query, core.AlgOptSelect, dp.Config.K); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
		}
		serveHits(b, deep, deepTopics, deepWorld().K)
	})
}

// serveHits times b.N warm DiversifyServe hits cycling through queries.
func serveHits(b *testing.B, h *repro.ServeHandle, queries []string, k int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		if _, _, hit, _, err := h.DiversifyServe(context.Background(), q, core.AlgOptSelect, k); err != nil || !hit {
			b.Fatalf("%q: hit %v, err %v", q, hit, err)
		}
	}
}

// BenchmarkServeMiss times a DiversifyServe miss over servedWorld: a
// four-entry cache and the topics cycled by a stride of 7, past the epoch
// of Build's store, so every call runs Algorithm 1, retrieves and indexes
// the R_q′ lists, and evicts — cold-tail's request as it was before the
// store answered it, in process.
func BenchmarkServeMiss(b *testing.B) {
	p, err := repro.Build(servedWorld())
	if err != nil {
		b.Fatal(err)
	}
	repro.PastStore(b, p)
	h := p.NewServeHandle(4, 1)
	var topics []string
	for _, t := range p.Testbed.Topics {
		topics = append(topics, t.Query)
	}
	miss := func(i int) {
		q := topics[i*7%len(topics)]
		if _, _, hit, _, err := h.DiversifyServe(context.Background(), q, core.AlgOptSelect, p.Config.K); err != nil || hit {
			b.Fatalf("%q: hit %v, err %v", q, hit, err)
		}
	}
	for i := range topics {
		miss(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		miss(i)
	}
}

// BenchmarkAspectIndex times core.NewAspectIndex over the artifacts of
// servedWorld's topics: every topic's R_q′ lists, |R_q′| = 20 deep, with
// their surrogate vectors — what a miss indexes before it caches.
func BenchmarkAspectIndex(b *testing.B) {
	p, err := repro.Build(servedWorld())
	if err != nil {
		b.Fatal(err)
	}
	var sets [][]core.Specialization
	for _, t := range p.Testbed.Topics {
		specs := p.DetectSpecializations(t.Query)
		if len(specs) == 0 {
			continue
		}
		queries, ks := make([]string, len(specs)), make([]int, len(specs))
		for i, s := range specs {
			queries[i], ks[i] = s.Query, p.Config.PerSpec
		}
		c, err := p.Engine.Candidates(context.Background(), queries, ks)
		if err != nil {
			b.Fatal(err)
		}
		set := make([]core.Specialization, len(specs))
		for i, s := range specs {
			rs := make([]core.SpecResult, len(c.Lists[i]))
			for j, d := range c.Lists[i] {
				rs[j] = core.SpecResult{ID: d.DocID, Rank: d.Rank, IVec: c.Vector(i, j, nil)}
			}
			set[i] = core.Specialization{Query: s.Query, Prob: s.Prob, Results: rs}
		}
		c.Close()
		sets = append(sets, set)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		aspectSink = core.NewAspectIndex(sets[i%len(sets)])
	}
}

var aspectSink *core.AspectIndex
