package repro_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro"
	"repro/internal/index"
	"repro/internal/ranking"
	"repro/internal/synth"
)

var (
	benchPipeOnce sync.Once
	benchPipe     *repro.Pipeline
	benchPipeErr  error
)

// buildBenchPipeline memoizes one moderately sized pipeline for the
// end-to-end benchmarks, so every bench does not pay the build cost.
func buildBenchPipeline(b *testing.B) *repro.Pipeline {
	b.Helper()
	benchPipeOnce.Do(func() {
		benchPipe, benchPipeErr = repro.Build(repro.Config{
			Corpus: synth.CorpusSpec{
				Seed: 17, NumTopics: 10, MinSubtopics: 2, MaxSubtopics: 5,
				DocsPerSubtopic: 20, GenericDocsPerTopic: 10, NoiseDocs: 500, DocLength: 50,
				BackgroundVocab: 1000, TopicVocab: 12, SubtopicVocab: 8,
			},
			Log:           synth.AOLLike(18, 5000),
			NumCandidates: 500,
			PerSpec:       20,
			K:             20,
			Threshold:     0.2,
		})
	})
	if benchPipeErr != nil {
		b.Fatal(benchPipeErr)
	}
	return benchPipe
}

// retrieveOne answers one analyzed query through the retrieval entry point
// the engine uses, ranking.RetrieveBatchOpts, as a batch of one.
func retrieveOne(b *testing.B, seg *index.Segmented, model ranking.Model, tokens []string, k int, opts ranking.BatchOptions) {
	if _, err := ranking.RetrieveBatchOpts(context.Background(), seg, model, [][]string{tokens}, []int{k}, opts); err != nil {
		b.Fatal(err)
	}
}

var (
	pruneIdxOnce sync.Once
	pruneIdx     *index.Index
)

// buildPruningBenchIndex memoizes the collection-scale index behind
// BenchmarkRetrievePruned: 20k documents over a Zipf-skewed vocabulary
// (squared-uniform draw, the same recipe as ranking.BenchmarkRetrieveDPH)
// with the DPH max-score table installed — big enough that a top-100
// heap threshold actually forms, which is the regime dynamic pruning is
// for.
func buildPruningBenchIndex(b *testing.B) *index.Index {
	b.Helper()
	pruneIdxOnce.Do(func() {
		rng := rand.New(rand.NewSource(11))
		builder := index.NewBuilder()
		vocab := make([]string, 5000)
		for i := range vocab {
			vocab[i] = fmt.Sprintf("t%04d", i)
		}
		for d := 0; d < 20000; d++ {
			toks := make([]string, 60)
			for j := range toks {
				u := rng.Float64()
				toks[j] = vocab[int(u*u*float64(len(vocab)))]
			}
			if err := builder.AddFields(fmt.Sprintf("doc%05d", d), toks, []int32{int32(len(toks))}); err != nil {
				panic(err)
			}
		}
		pruneIdx = builder.Build()
		if err := ranking.InstallMaxScores(pruneIdx, ranking.DPH{}); err != nil {
			panic(err)
		}
	})
	return pruneIdx
}
