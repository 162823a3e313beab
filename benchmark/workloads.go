package main

import (
	"math/rand"

	"repro/internal/synth"
)

// sampling names how a workload draws its query stream from the served
// query list.
type sampling int

const (
	zipfAll       sampling = iota // Zipf(1.0) by list position over the whole /queries list
	uniformTopics                 // uniform over the ambiguous topic queries
	roundRobin                    // the topic queries in turn
)

// workload is one world plus one traffic mix. Everything the serving
// code receives is generated from the run's seed; nothing here is read
// by the code under test.
type workload struct {
	name string
	why  string // one line, the BENCHMARK.json entry

	corpus     synth.CorpusSpec // Seed is filled from -seed
	sessions   int              // query-log sessions; the log's seed is -seed + 1
	candidates int              // |R_q|
	k          int              // SERP size
	shards     int              // engine.Config.Shards
	cacheCap   int              // NewServeHandle(cacheCap, cacheShards)
	cacheShard int
	routed     bool // serve through router.NewRouter over two in-process workers
	sampling   sampling

	// openRate is the open phase's arrival rate in requests per second:
	// about 45 % of the closed-loop capacity measured on the 2-core
	// reference box when the benchmark was defined (at 60 % the median
	// latency of ten runs spread by up to 14 %, at 45 % by 3 %). It is
	// frozen here and never derived at run time, so that open-phase
	// percentiles of two commits are taken at the same offered load.
	openRate float64
	// traced is how many requests the traced pass replays. deep-serp
	// replays fewer because one of its requests costs about five of the
	// others'.
	traced int
}

// Settings every workload shares: cmd/serve's defaults.
const (
	perSpec    = 20
	threshold  = 0.30
	srvWorkers = 8
)

func headWorld() synth.CorpusSpec {
	return synth.CorpusSpec{
		NumTopics: 48, MinSubtopics: 4, MaxSubtopics: 4,
		DocsPerSubtopic: 40, GenericDocsPerTopic: 20, NoiseDocs: 12000,
		DocLength: 50, BackgroundVocab: 2000, TopicVocab: 12, SubtopicVocab: 8,
	}
}

func deepWorld() synth.CorpusSpec {
	c := headWorld()
	c.NumTopics, c.MinSubtopics, c.MaxSubtopics = 8, 5, 5
	c.DocsPerSubtopic, c.GenericDocsPerTopic, c.NoiseDocs = 350, 300, 4000
	return c
}

var workloads = []workload{
	{
		name: "head-hot",
		why:  "Zipf(1.0) head traffic, every artifact cached: per-request R_q retrieval, snippets and surrogates do the work; suggest, cache writes and aspect retrieval do none. Open rate 100/s.",

		corpus: headWorld(), sessions: 12000, candidates: 500, k: 10, shards: 1,
		cacheCap: 1024, cacheShard: 16, sampling: zipfAll,
		openRate: 100, traced: 200,
	},
	{
		name: "cold-tail",
		why:  "Uniform over 48 ambiguous queries with a 4-entry cache (hit rate about 8 %): Algorithm 1, aspect retrieval, cache writes and evictions run on nearly every request. Open rate 95/s.",

		corpus: headWorld(), sessions: 12000, candidates: 500, k: 10, shards: 1,
		cacheCap: 4, cacheShard: 1, sampling: uniformTopics,
		openRate: 95, traced: 200,
	},
	{
		name: "deep-serp",
		why:  "8 heavy topics, 1000 candidates, k=100, warm cache: the paper's Table 2/3 regime, where per-candidate cost, core utilities and selection, and the response body weigh most. Open rate 22/s.",

		corpus: deepWorld(), sessions: 12000, candidates: 1000, k: 100, shards: 1,
		cacheCap: 1024, cacheShard: 16, sampling: roundRobin,
		openRate: 22, traced: 48,
	},
	{
		name: "routed",
		why:  "head-hot's world and stream through the router over two shard workers on loopback: the only workload where the shard hop, wire JSON and merge do work. Open rate 72/s.",

		corpus: headWorld(), sessions: 12000, candidates: 500, k: 10, shards: 2,
		cacheCap: 1024, cacheShard: 16, routed: true, sampling: zipfAll,
		openRate: 72, traced: 200,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// distinct returns the queries the workload draws from: served is the
// server's /queries list (topic queries first, then noise queries).
func (w workload) distinct(served []string) []string {
	if w.sampling == zipfAll {
		return served
	}
	return served[:w.corpus.NumTopics]
}

// stream draws n requests, each an index into the workload's distinct
// queries. The same seed gives the same stream; the Zipf rank of a query
// is its position in the served list, so the ambiguous share of the
// traffic (H_48/H_240, about 74 %) does not depend on the seed.
func (w workload) stream(seed int64, distinct, n int) []int {
	rng := rand.New(rand.NewSource(seed + 2))
	zipf := synth.NewZipf(distinct, 1.0)
	out := make([]int, n)
	for i := range out {
		switch w.sampling {
		case zipfAll:
			out[i] = zipf.Sample(rng)
		case uniformTopics:
			out[i] = rng.Intn(distinct)
		default:
			out[i] = i % distinct
		}
	}
	return out
}
