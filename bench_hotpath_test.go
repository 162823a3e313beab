// Hot-path benchmarks: the three inner loops every served query pays —
// the utility matrix of Definition 2 (ComputeUtilities), document-at-a-
// time retrieval (ranking.Retrieve), and the full per-problem Diversify
// call (utilities + selection, the serving path's compute). These are the
// benchmarks cmd/bench snapshots into BENCH_<date>.json, the repo's perf
// trajectory; run them with
//
//	go test -run '^$' -bench 'ComputeUtilities|Retrieve|DiversifyFull' -benchmem
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/ranking"
	"repro/internal/synth"
)

// BenchmarkComputeUtilities times the O(n·|S_q|·|R_q′|) utility matrix of
// Definition 2 in isolation — the dominant per-query cost the paper's
// timings (§5, Table 1) assume is cheap enough for the critical path.
func BenchmarkComputeUtilities(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		p := synth.GenerateProblem(synth.ProblemSpec{Seed: 1, N: n, NumSpecs: 8, PerSpec: 20})
		b.Run(fmt.Sprintf("Rq=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				core.ComputeUtilities(p)
			}
		})
	}
}

// BenchmarkDiversifyFull times core.Diversify — utilities plus selection,
// exactly what the serving layer pays per ambiguous query once the R_q′
// artifacts are cached.
func BenchmarkDiversifyFull(b *testing.B) {
	p := synth.GenerateProblem(synth.ProblemSpec{Seed: 2, N: 1000, NumSpecs: 8, PerSpec: 20, K: 20})
	for _, alg := range []core.Algorithm{core.AlgOptSelect, core.AlgXQuAD, core.AlgIASelect} {
		alg := alg
		b.Run(string(alg), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				core.Diversify(alg, p)
			}
		})
	}
}

// BenchmarkRetrieve times the DAAT evaluator over the memoized benchmark
// engine. Queries are built from the highest-document-frequency terms of
// the index (densestTerms, shared with the sharded benchmarks) so the
// accumulator structure — not term lookup — dominates.
func BenchmarkRetrieve(b *testing.B) {
	pipe := buildBenchPipeline(b)
	idx := pipe.Engine.Index()
	model := pipe.Engine.Model()
	terms := densestTerms(b, 8)
	for _, nTerms := range []int{2, 4, 8} {
		tokens := terms[:nTerms]
		b.Run(fmt.Sprintf("terms=%d", nTerms), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ranking.Retrieve(idx, model, tokens, 100)
			}
		})
	}
}

// BenchmarkRetrievePruned pits MaxScore dynamic pruning against the
// exhaustive evaluator on identical queries at k=100 — the tentpole
// comparison of the pruning PR. Output is bit-identical (the
// differential tests in internal/ranking enforce it); only the posting
// work differs.
//
// It runs over a dedicated collection-scale index (20k docs, Zipf
// vocabulary — the shape of ranking.BenchmarkRetrieveDPH) rather than
// the small shared bench pipeline: dynamic pruning's regime is
// k ≪ matching documents (the paper's Table 3 retrieves from ClueWeb,
// not from a thousand-doc testbed), and on a corpus where the top-100 is
// a tenth of every match, no threshold can form and the comparison
// measures only cursor overhead. Query shapes cover the head-heavy and
// mixed-selectivity cases a Zipf query stream produces; the max-score
// table is installed at build time, so "maxscore" measures steady-state
// serving, not table construction. The pruned arm goes through the entry
// point the engine uses (RetrieveBatchOpts, one query, one shard), so it
// includes the scatter plan a served query pays.
func BenchmarkRetrievePruned(b *testing.B) {
	idx := buildPruningBenchIndex(b)
	seg := index.SegmentIndex(idx, 1)
	model := ranking.DPH{}
	if !ranking.Pruneable(idx, model) {
		b.Fatal("pruning bench index has no max-score table")
	}
	for _, q := range []struct {
		name   string
		tokens []string
	}{
		{"head3", []string{"t0000", "t0003", "t0050"}},
		{"dense4", []string{"t0000", "t0001", "t0002", "t0003"}},
		{"mixed4", []string{"t2000", "t3000", "t0000", "t0001"}},
	} {
		b.Run("exhaustive/"+q.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ranking.Retrieve(idx, model, q.tokens, 100)
			}
		})
		b.Run("maxscore/"+q.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				retrieveOne(b, seg, model, q.tokens, 100, ranking.BatchOptions{Prune: true})
			}
		})
	}
}

// BenchmarkRetrieveLayout times the block-compressed posting layout on
// the 20k-doc Zipf index, over the exhaustive evaluator (decode cost
// shows) and the pruned one (block skipping shows), at k=100. It also
// reports the storage footprint as a bytes/posting metric — the number
// the compression exists to shrink (a []Posting struct is 8.0) — so the
// committed BENCH snapshots track index size next to latency, and
// cmd/bench's delta table surfaces size regressions.
func BenchmarkRetrieveLayout(b *testing.B) {
	model := ranking.DPH{}
	layouts := []struct {
		name string
		idx  *index.Index
	}{
		{"block128", buildPruningBenchIndex(b)},
	}
	queries := []struct {
		name   string
		tokens []string
	}{
		{"head3", []string{"t0000", "t0003", "t0050"}},
		{"mixed4", []string{"t2000", "t3000", "t0000", "t0001"}},
	}
	for _, lay := range layouts {
		if !ranking.Pruneable(lay.idx, model) {
			b.Fatalf("%s index has no max-score table", lay.name)
		}
		seg := index.SegmentIndex(lay.idx, 1)
		st := lay.idx.Storage()
		b.Run("storage/"+lay.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = lay.idx.Storage()
			}
			b.ReportMetric(st.BytesPerPosting, "bytes/posting")
		})
		for _, q := range queries {
			b.Run("exhaustive/"+lay.name+"/"+q.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					ranking.Retrieve(lay.idx, model, q.tokens, 100)
				}
			})
			b.Run("maxscore/"+lay.name+"/"+q.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					retrieveOne(b, seg, model, q.tokens, 100, ranking.BatchOptions{Prune: true})
				}
			})
		}
	}
}
