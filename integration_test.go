package repro_test

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/qfg"
	"repro/internal/querylog"
	"repro/internal/suggest"
	"repro/internal/synth"
	"repro/internal/trec"
)

// TestFullSystemThroughSerializedArtifacts drives the complete paper
// pipeline through every on-disk format the repository defines, the way a
// production deployment would be split across processes:
//
//	offline:  corpus → engine → SaveTo      (cmd/buildindex)
//	offline:  log → TSV → sessions → A(q)   (repro loggen | repro mine)
//	online:   Load(engine) + Algorithm 1 + OptSelect → run
//	offline:  run → α-NDCG/IA-P             (repro trecdiv's metrics)
//
// The engine and the log cross a serialization boundary, so format drift
// in either codec breaks this test; topics, qrels and the run stay in
// memory, as they do everywhere else.
func TestFullSystemThroughSerializedArtifacts(t *testing.T) {
	tb := synth.GenerateTestbed(synth.CorpusSpec{
		Seed: 31, NumTopics: 5, MinSubtopics: 2, MaxSubtopics: 4,
		DocsPerSubtopic: 10, GenericDocsPerTopic: 5, NoiseDocs: 80,
		DocLength: 40, BackgroundVocab: 400, TopicVocab: 10, SubtopicVocab: 8,
	})

	// --- offline indexing, through the engine persistence format.
	built, err := engine.Build(tb.Docs, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var engBuf bytes.Buffer
	if err := built.SaveTo(&engBuf); err != nil {
		t.Fatal(err)
	}
	eng, err := engine.Load(&engBuf, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}

	// --- offline log mining, through the TSV format.
	rawLog := synth.GenerateLog(tb, synth.AOLLike(32, 2500))
	var logBuf bytes.Buffer
	if err := querylog.Write(&logBuf, rawLog); err != nil {
		t.Fatal(err)
	}
	log, err := querylog.Read(&logBuf)
	if err != nil {
		t.Fatal(err)
	}
	sessions := qfg.ExtractSessions(log, qfg.Options{})
	rec := suggest.Train(sessions, log.Frequencies(), suggest.TrainOptions{})

	// --- online serving: detect, diversify, emit a TREC run.
	run := trec.NewRun()
	diversifiedTopics := 0
	for _, topic := range tb.Topics {
		specs := suggest.TopSpecializations(
			suggest.AmbiguousQueryDetect(topic.Query, rec, suggest.DefaultDetectOptions()), 8)
		results := eng.Search(topic.Query, 200)
		if len(results) == 0 {
			t.Fatalf("topic %d: no results", topic.ID)
		}
		problem := &core.Problem{
			Query: topic.Query, K: 50, Lambda: 0.15, Threshold: 0.2, Lex: eng.Lexicon(),
		}
		maxScore := results[0].Score
		for _, r := range results {
			if r.Score > maxScore {
				maxScore = r.Score
			}
		}
		for _, r := range results {
			problem.Candidates = append(problem.Candidates, core.Doc{
				ID: r.DocID, Rank: r.Rank, Rel: r.Score / maxScore,
				IVec: eng.IVectorOfText(r.Snippet),
			})
		}
		for _, s := range specs {
			var rs []core.SpecResult
			for _, r := range eng.Search(s.Query, 10) {
				rs = append(rs, core.SpecResult{ID: r.DocID, Rank: r.Rank, IVec: eng.IVectorOfText(r.Snippet)})
			}
			problem.Specs = append(problem.Specs, core.Specialization{Query: s.Query, Prob: s.Prob, Results: rs})
		}
		if len(problem.Specs) > 0 {
			diversifiedTopics++
		}
		sel := core.Diversify(core.AlgOptSelect, problem)
		ids := make([]string, len(sel))
		for i, s := range sel {
			ids[i] = s.ID
		}
		run.AddRanking(topic.ID, ids, "integration")
	}
	if diversifiedTopics == 0 {
		t.Fatal("Algorithm 1 fired on no topics")
	}

	// --- evaluation.
	rep := eval.EvaluateRun("integration", run, tb.Qrels, eval.DefaultAlpha, []int{5, 20})
	if rep.MeanAlphaNDCG(20) <= 0.1 {
		t.Errorf("end-to-end α-NDCG@20 = %f, suspiciously low", rep.MeanAlphaNDCG(20))
	}
	if rep.MeanIAP(5) <= 0 {
		t.Errorf("end-to-end IA-P@5 = %f", rep.MeanIAP(5))
	}
}
