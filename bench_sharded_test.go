// Sharded-retrieval benchmarks: the scale-out counterparts of the
// hot-path set. BenchmarkRetrieveSharded sweeps the shard fan-out of one
// query; BenchmarkSpecRetrieval compares the two ways a request's R_q′
// lists can be fetched — sequential per-specialization retrieval (the
// pre-segmentation architecture) against the batched scatter-gather that
// scores the main query and every specialization in one pass per shard.
// Run them with
//
//	go test -run '^$' -bench 'Sharded|SpecRetrieval' -benchmem -cpu 1,2
package repro_test

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"repro/internal/ranking"
	"repro/internal/suggest"
	"repro/internal/text"
)

// densestTerms returns the n highest-document-frequency index terms,
// deterministically (the same query shape BenchmarkRetrieve uses).
func densestTerms(b *testing.B, n int) []string {
	b.Helper()
	idx := buildBenchPipeline(b).Engine.Index()
	type termDF struct {
		term string
		df   int
	}
	tds := make([]termDF, idx.NumTerms())
	for id := range tds {
		tds[id] = termDF{term: idx.Term(int32(id)), df: idx.DF(int32(id))}
	}
	sort.Slice(tds, func(i, j int) bool {
		if tds[i].df != tds[j].df {
			return tds[i].df > tds[j].df
		}
		return tds[i].term < tds[j].term
	})
	if n > len(tds) {
		b.Skip("dictionary too small")
	}
	terms := make([]string, n)
	for i := range terms {
		terms[i] = tds[i].term
	}
	return terms
}

// BenchmarkRetrieveSharded times one dense 4-term query across shard
// counts. shards=1 exposes the scatter-plan overhead over plain Retrieve;
// higher counts show the fan-out win once GOMAXPROCS > 1.
func BenchmarkRetrieveSharded(b *testing.B) {
	pipe := buildBenchPipeline(b)
	model := pipe.Engine.Model()
	tokens := densestTerms(b, 4)
	for _, shards := range []int{1, 2, 4, 8} {
		seg := pipe.Engine.Segments().Resegment(shards)
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				retrieveOne(b, seg, model, tokens, 100, ranking.BatchOptions{})
			}
		})
	}
}

// benchAmbiguousQuery finds a testbed query that Algorithm 1 flags as
// ambiguous, with its specializations — the R_q′ workload.
func benchAmbiguousQuery(b *testing.B) (string, []suggest.Specialization) {
	b.Helper()
	pipe := buildBenchPipeline(b)
	for _, topic := range pipe.Testbed.Topics {
		if specs := pipe.DetectSpecializations(topic.Query); len(specs) >= 3 {
			return topic.Query, specs
		}
	}
	b.Skip("no ambiguous topic in the bench testbed")
	return "", nil
}

// BenchmarkSpecRetrieval measures the document-scoring phase of one
// ambiguous request — R_q plus every R_q′ — under the two architectures:
//
//	sequential: 1+|S_q| separate index traversals
//	batched:    one scatter-gather round; each shard worker scores all
//	            pending query vectors in a single pass (what
//	            Pipeline.BuildProblem and the serving route do)
//
// The batched path wins even at GOMAXPROCS=1 because specializations
// share terms with the main query, so postings are traversed and model
// scores computed once instead of per-list; extra cores stack the shard
// parallelism on top (run with -cpu 1,2).
func BenchmarkSpecRetrieval(b *testing.B) {
	pipe := buildBenchPipeline(b)
	query, specs := benchAmbiguousQuery(b)
	ctx := context.Background()

	// Pipeline level: everything the reference route's scoring phase
	// pays, snippet extraction and vectorization included.
	b.Run(fmt.Sprintf("pipeline/batched/specs=%d", len(specs)), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pipe.BuildProblem(query, specs)
		}
	})

	// Retrieval level: the index traversals alone, where the batched
	// fan-out's term sharing and per-shard single pass actually live.
	analyzer := text.NewAnalyzer() // the bench pipeline uses the default chain
	model := pipe.Engine.Model()
	queries := make([][]string, 1+len(specs))
	ks := make([]int, 1+len(specs))
	queries[0], ks[0] = analyzer.Tokens(query), pipe.Config.NumCandidates
	for i, s := range specs {
		queries[1+i], ks[1+i] = analyzer.Tokens(s.Query), pipe.Config.PerSpec
	}
	idx := pipe.Engine.Index()
	for _, shards := range []int{1, 4} {
		seg := pipe.Engine.Segments().Resegment(shards)
		b.Run(fmt.Sprintf("retrieval/sequential/shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for qi := range queries {
					if shards == 1 {
						ranking.Retrieve(idx, model, queries[qi], ks[qi])
						continue
					}
					retrieveOne(b, seg, model, queries[qi], ks[qi], ranking.BatchOptions{})
				}
			}
		})
		b.Run(fmt.Sprintf("retrieval/batched/shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ranking.RetrieveBatchOpts(ctx, seg, model, queries, ks, ranking.BatchOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
