// Evaluation example: score two hand-built runs against diversity qrels
// with the TREC 2009 Diversity Task metrics (α-NDCG, IA-P) plus the
// subtopic-recall and ERR-IA extensions, and test significance with the
// Wilcoxon signed-rank test — the full measurement stack of the paper's
// §5 applied to your own data. The same stack scores the paper's Table 3
// on the synthetic testbed in `go run ./cmd/repro trecdiv`.
//
//	go run ./examples/evaluation
package main

import (
	"fmt"
	"os"

	"repro/internal/eval"
	"repro/internal/trec"
)

func main() {
	qrels := buildQrels()

	// Two systems: one relevance-only (keeps hammering sub-topic 1), one
	// diversified (interleaves sub-topics).
	relevanceOnly := trec.NewRun()
	diversified := trec.NewRun()
	for topic := 1; topic <= 4; topic++ {
		relevanceOnly.AddRanking(topic, []string{
			doc(topic, 1, 0), doc(topic, 1, 1), doc(topic, 1, 2), doc(topic, 2, 0), doc(topic, 3, 0),
		}, "relevance")
		diversified.AddRanking(topic, []string{
			doc(topic, 1, 0), doc(topic, 2, 0), doc(topic, 3, 0), doc(topic, 1, 1), doc(topic, 2, 1),
		}, "diverse")
	}

	cutoffs := []int{1, 3, 5}
	repRel := eval.EvaluateRun("relevance-only", relevanceOnly, qrels, eval.DefaultAlpha, cutoffs)
	repDiv := eval.EvaluateRun("diversified", diversified, qrels, eval.DefaultAlpha, cutoffs)

	fmt.Printf("%-16s %s | %s\n", "", "alpha-NDCG @1 @3 @5", "IA-P @1 @3 @5")
	repRel.WriteTable(os.Stdout)
	repDiv.WriteTable(os.Stdout)

	// Per-topic detail for one topic.
	fmt.Println("\nper-topic detail (topic 1):")
	for _, rep := range []*eval.Report{repRel, repDiv} {
		fmt.Printf("  %-16s alpha-NDCG@5 = %.3f, IA-P@5 = %.3f\n",
			rep.Name, rep.AlphaNDCG[5][1], rep.IAP[5][1])
	}

	// Extensions: subtopic recall and ERR-IA on topic 1.
	fmt.Println("\nextensions (topic 1):")
	for _, run := range []struct {
		name    string
		ranking []string
	}{
		{"relevance-only", relevanceOnly.Ranking(1)},
		{"diversified", diversified.Ranking(1)},
	} {
		sr := eval.SubtopicRecall(run.ranking, qrels, 1, 3)
		err3 := eval.ERRIA(run.ranking, qrels, 1, nil, []int{3})
		fmt.Printf("  %-16s S-recall@3 = %.2f, ERR-IA@3 = %.3f\n", run.name, sr, err3[3])
	}

	// Significance over the 4 topics.
	w, err := eval.CompareSignificance(repDiv, repRel, "alpha-ndcg", 5)
	if err != nil {
		fmt.Println("\nWilcoxon:", err)
		return
	}
	fmt.Printf("\nWilcoxon diversified vs relevance-only on alpha-NDCG@5: W=%.1f p=%.3f\n", w.W, w.P)
	fmt.Println("(4 topics is far too few for significance — the paper uses 50)")
}

// doc names a judged document for (topic, subtopic, index).
func doc(topic, sub, i int) string {
	return fmt.Sprintf("d-t%d-s%d-%d", topic, sub, i)
}

// buildQrels: 4 topics, 3 sub-topics each, 3 relevant docs per sub-topic.
func buildQrels() *trec.Qrels {
	q := trec.NewQrels()
	for topic := 1; topic <= 4; topic++ {
		for sub := 1; sub <= 3; sub++ {
			for i := 0; i < 3; i++ {
				q.Add(topic, sub, doc(topic, sub, i), 1)
			}
		}
	}
	return q
}
