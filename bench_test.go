// Root benchmarks: one testing.B target per table and figure of the paper
// (see DESIGN.md §4 for the experiment index). The heavyweight printed
// tables come from the cmd/ tools; these benches keep the same code paths
// exercised under `go test -bench` with laptop-friendly sizes and report
// the headline quantity of each experiment as a custom metric.
package repro_test

import (
	"fmt"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/exp"
	"repro/internal/ranking"
	"repro/internal/synth"
	"repro/internal/trec"
)

// BenchmarkTable2 times the three diversification algorithms over a
// reduced |R_q| × k grid (the full grid is cmd/efficiency -full). The
// paper's Table 2 shape shows here directly: OptSelect sub-benchmarks are
// near-constant in k while xQuAD/IASelect grow linearly.
func BenchmarkTable2(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		p := synth.GenerateProblem(synth.ProblemSpec{Seed: 1, N: n, NumSpecs: 8, PerSpec: 20})
		u := core.ComputeUtilities(p)
		for _, k := range []int{10, 100, 1000} {
			for _, alg := range []core.Algorithm{core.AlgOptSelect, core.AlgXQuAD, core.AlgIASelect} {
				alg := alg
				pk := *p
				pk.K = k
				b.Run(fmt.Sprintf("%s/Rq=%d/k=%d", alg, n, k), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						switch alg {
						case core.AlgOptSelect:
							core.OptSelect(&pk, u)
						case core.AlgXQuAD:
							core.XQuAD(&pk, u)
						case core.AlgIASelect:
							core.IASelect(&pk, u)
						}
					}
				})
			}
		}
	}
}

// BenchmarkTable1ComplexityFit regenerates the empirical complexity
// exponents of Table 1 and reports them as custom metrics
// (opt_exp_k ~ 0: OptSelect flat in k; xquad_exp_k ~ 1: linear).
func BenchmarkTable1ComplexityFit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := exp.RunTable2(exp.Table2Spec{
			Seed: 1, Ns: []int{1000, 4000, 16000}, Ks: []int{20, 160, 1280},
			NumSpecs: 8, PerSpec: 10, Reps: 2,
		})
		fits, err := exp.FitComplexity(res)
		if err != nil {
			b.Fatal(err)
		}
		for _, f := range fits {
			switch f.Alg {
			case core.AlgOptSelect:
				b.ReportMetric(f.ExponentK, "opt_exp_k")
			case core.AlgXQuAD:
				b.ReportMetric(f.ExponentK, "xquad_exp_k")
			case core.AlgIASelect:
				b.ReportMetric(f.ExponentK, "iasel_exp_k")
			}
		}
		b.ReportMetric(res.Speedup(16000, 1280), "speedup_at_corner")
	}
}

// BenchmarkTable3Effectiveness runs a reduced effectiveness sweep (the
// full Table 3 is cmd/trecdiv) and reports the headline means: the
// DPH baseline and the three diversifiers at the paper's best threshold.
func BenchmarkTable3Effectiveness(b *testing.B) {
	spec := exp.DefaultTable3Spec()
	spec.Pipeline.Corpus = synth.CorpusSpec{
		Seed: 3, NumTopics: 10, MinSubtopics: 2, MaxSubtopics: 5,
		DocsPerSubtopic: 15, GenericDocsPerTopic: 10, NoiseDocs: 200, DocLength: 40,
		BackgroundVocab: 600, TopicVocab: 10, SubtopicVocab: 8,
	}
	spec.Pipeline.Log = synth.AOLLike(4, 4000)
	spec.Pipeline.NumCandidates = 300
	spec.Pipeline.K = 100
	spec.Thresholds = []float64{0, 0.20}
	spec.Cutoffs = []int{5, 20}

	for i := 0; i < b.N; i++ {
		res, err := exp.RunTable3(spec)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Baseline.MeanAlphaNDCG(20), "dph_andcg20")
		for _, alg := range []core.Algorithm{core.AlgOptSelect, core.AlgXQuAD, core.AlgIASelect} {
			if rep, ok := res.Row(alg, 0.20); ok {
				b.ReportMetric(rep.MeanAlphaNDCG(20), string(alg)+"_andcg20")
			}
		}
	}
}

// BenchmarkFigure1UtilityRatio runs a reduced Appendix C utility-ratio
// experiment (full curves: cmd/utilityfig) and reports the mean ratio —
// the paper's factor-5-to-10 improvement headline.
func BenchmarkFigure1UtilityRatio(b *testing.B) {
	spec := exp.Figure1Spec{
		Seed: 5,
		Corpus: synth.CorpusSpec{
			Seed: 5, NumTopics: 8, MinSubtopics: 2, MaxSubtopics: 6,
			DocsPerSubtopic: 20, GenericDocsPerTopic: 15, NoiseDocs: 100, DocLength: 40,
			BackgroundVocab: 500, TopicVocab: 10, SubtopicVocab: 8,
		},
		Sessions: 3000, Presets: []string{"aol"},
		NRq: 100, PerSpec: 10, K: 10, MaxSpecs: 10,
	}
	for i := 0; i < b.N; i++ {
		res, err := exp.RunFigure1(spec)
		if err != nil {
			b.Fatal(err)
		}
		sum, cnt := 0.0, 0
		for _, row := range res.Curves["aol"] {
			sum += row.AvgRatio * float64(row.Queries)
			cnt += row.Queries
		}
		if cnt > 0 {
			b.ReportMetric(sum/float64(cnt), "mean_utility_ratio")
		}
	}
}

// BenchmarkRecallCoverage runs a reduced Appendix C recall measurement
// (paper: 61% AOL / 65% MSN) and reports the covered fraction.
func BenchmarkRecallCoverage(b *testing.B) {
	spec := exp.RecallSpec{
		Seed: 9,
		Corpus: synth.CorpusSpec{
			Seed: 9, NumTopics: 10, MinSubtopics: 2, MaxSubtopics: 5,
			DocsPerSubtopic: 6, GenericDocsPerTopic: -1, NoiseDocs: 50, DocLength: 30,
			BackgroundVocab: 300, TopicVocab: 8, SubtopicVocab: 6,
		},
		Sessions: 4000, Presets: []string{"aol", "msn"}, TrainFrac: 0.7,
	}
	for i := 0; i < b.N; i++ {
		results, err := exp.RunRecall(spec)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			b.ReportMetric(r.Covered, r.Preset+"_covered")
		}
	}
}

// BenchmarkPipelineQuery measures the end-to-end per-query latency of the
// assembled system (detection + problem building + OptSelect), the number
// a production deployment would care about.
func BenchmarkPipelineQuery(b *testing.B) {
	pipe := buildBenchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pipe.Diversify("topic01", core.AlgOptSelect)
	}
}

// BenchmarkPipelineDetectOnly isolates the Algorithm 1 cost (the paper's
// claim: detection is a cheap lookup against log-mined structures).
func BenchmarkPipelineDetectOnly(b *testing.B) {
	pipe := buildBenchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pipe.DetectSpecializations("topic01")
	}
}

// BenchmarkAblationBaseRanker swaps the weighting model feeding the
// diversifier (DESIGN.md ablation 4) and reports OptSelect's α-NDCG@20
// under each, demonstrating the framework is ranker-agnostic.
func BenchmarkAblationBaseRanker(b *testing.B) {
	corpus := synth.CorpusSpec{
		Seed: 21, NumTopics: 8, MinSubtopics: 3, MaxSubtopics: 5,
		DocsPerSubtopic: 12, GenericDocsPerTopic: 10, NoiseDocs: 150,
		DocLength: 40, BackgroundVocab: 500, TopicVocab: 10, SubtopicVocab: 8,
	}
	for _, m := range []ranking.Model{ranking.DPH{}, ranking.BM25{}, ranking.TFIDF{}, ranking.LMDirichlet{}} {
		m := m
		b.Run(m.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pipe, err := repro.Build(repro.Config{
					Corpus:        corpus,
					Log:           synth.AOLLike(22, 3000),
					Engine:        engine.Config{Model: m},
					NumCandidates: 300,
					K:             100,
					Threshold:     0.2,
				})
				if err != nil {
					b.Fatal(err)
				}
				run := trec.NewRun()
				for _, topic := range pipe.Testbed.Topics {
					sel, _ := pipe.Diversify(topic.Query, core.AlgOptSelect)
					ids := make([]string, len(sel))
					for i, s := range sel {
						ids[i] = s.ID
					}
					run.AddRanking(topic.ID, ids, m.Name())
				}
				rep := eval.EvaluateRun(m.Name(), run, pipe.Testbed.Qrels, eval.DefaultAlpha, []int{20})
				b.ReportMetric(rep.MeanAlphaNDCG(20), "andcg20")
			}
		})
	}
}

// BenchmarkAblationLambda sweeps the relevance/diversity mixing parameter
// λ (DESIGN.md ablation 2) and reports xQuAD's α-NDCG@20 per setting —
// the paper fixes λ = 0.15 citing Santos et al.; the sweep shows the
// sensitivity of that choice on this testbed.
func BenchmarkAblationLambda(b *testing.B) {
	for _, lambda := range []float64{0.05, 0.15, 0.5, 0.9} {
		lambda := lambda
		b.Run(fmt.Sprintf("lambda=%.2f", lambda), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pipe, err := repro.Build(repro.Config{
					Corpus: synth.CorpusSpec{
						Seed: 23, NumTopics: 8, MinSubtopics: 3, MaxSubtopics: 5,
						DocsPerSubtopic: 12, GenericDocsPerTopic: 10, NoiseDocs: 150,
						DocLength: 40, BackgroundVocab: 500, TopicVocab: 10, SubtopicVocab: 8,
					},
					Log:           synth.AOLLike(24, 3000),
					NumCandidates: 300,
					K:             100,
					Lambda:        lambda,
				})
				if err != nil {
					b.Fatal(err)
				}
				run := trec.NewRun()
				for _, topic := range pipe.Testbed.Topics {
					sel, _ := pipe.Diversify(topic.Query, core.AlgXQuAD)
					ids := make([]string, len(sel))
					for i, s := range sel {
						ids[i] = s.ID
					}
					run.AddRanking(topic.ID, ids, "xquad")
				}
				rep := eval.EvaluateRun("xquad", run, pipe.Testbed.Qrels, eval.DefaultAlpha, []int{20})
				b.ReportMetric(rep.MeanAlphaNDCG(20), "andcg20")
			}
		})
	}
}
