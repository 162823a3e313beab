package exp

import (
	"strings"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/synth"
)

// smallTable2 keeps test runtime low while preserving the grid structure.
func smallTable2() Table2Spec {
	return Table2Spec{
		Seed:     1,
		Ns:       []int{500, 2000, 8000},
		Ks:       []int{10, 50, 200},
		NumSpecs: 8,
		PerSpec:  10,
		Reps:     2,
	}
}

func TestRunTable2Shape(t *testing.T) {
	res := RunTable2(smallTable2())
	for _, alg := range table2Algorithms {
		if len(res.Cells[alg]) != 9 {
			t.Fatalf("%s cells = %d, want 9", alg, len(res.Cells[alg]))
		}
		for _, c := range res.Cells[alg] {
			if c.Millis < 0 {
				t.Errorf("%s negative time at n=%d k=%d", alg, c.N, c.K)
			}
		}
	}
	if _, ok := res.Cell(core.AlgOptSelect, 500, 10); !ok {
		t.Error("Cell lookup failed")
	}
	if _, ok := res.Cell(core.AlgOptSelect, 999, 10); ok {
		t.Error("Cell lookup for absent config succeeded")
	}
}

func TestTable2ShapeMatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	res := RunTable2(Table2Spec{
		Seed: 1, Ns: []int{2000, 16000}, Ks: []int{10, 640}, NumSpecs: 8, PerSpec: 10, Reps: 3,
	})
	// (i) The O(nk) algorithms slow with n at fixed k. (OptSelect's
	// absolute times are sub-millisecond at these sizes and too noisy for
	// a strict growth assertion; its scaling is covered by TestFitComplexity,
	// on operation counts, and by the k-flatness check below.)
	for _, alg := range []core.Algorithm{core.AlgXQuAD, core.AlgIASelect} {
		small, _ := res.Cell(alg, 2000, 640)
		big, _ := res.Cell(alg, 16000, 640)
		if big.Millis <= small.Millis {
			t.Errorf("%s: time did not grow with n (%f vs %f)", alg, small.Millis, big.Millis)
		}
	}
	// (ii) The paper's headline: xQuAD and IASelect grow with k much
	// faster than OptSelect; at the large corner OptSelect wins clearly.
	speedup := res.Speedup(16000, 640)
	if speedup < 5 {
		t.Errorf("xQuAD/OptSelect speedup at large corner = %.1f, want >= 5", speedup)
	}
	// (iii) OptSelect's k-growth must be far below linear: grow k by 64x,
	// time must grow far less than 64x (log factor + constant work).
	o10, _ := res.Cell(core.AlgOptSelect, 16000, 10)
	o640, _ := res.Cell(core.AlgOptSelect, 16000, 640)
	if o10.Millis > 0 && o640.Millis/o10.Millis > 16 {
		t.Errorf("OptSelect k-scaling looks linear: %.2f -> %.2f ms", o10.Millis, o640.Millis)
	}
}

// TestFitComplexity pins Table 1 on operation counts — heap pushes for
// OptSelect, marginal-utility evaluations for the greedy algorithms — so
// the fitted exponents are a property of the algorithms and the seeded
// problems, not of what else the box is running.
func TestFitComplexity(t *testing.T) {
	res := RunTable2(Table2Spec{
		Seed: 1, Ns: []int{1000, 4000, 16000}, Ks: []int{20, 160, 1280},
		NumSpecs: 8, PerSpec: 10, Reps: 1,
	})
	fits, err := FitComplexity(res)
	if err != nil {
		t.Fatal(err)
	}
	if len(fits) != 3 {
		t.Fatalf("fits = %d", len(fits))
	}
	for _, f := range fits {
		switch f.Alg {
		case core.AlgOptSelect:
			// One push onto M per candidate plus one per useful aspect:
			// linear in n; k only sizes the heaps and the O(k) fill.
			if f.ExponentN < 0.9 || f.ExponentN > 1.1 {
				t.Errorf("OptSelect n-exponent %.2f, want ≈1", f.ExponentN)
			}
			if f.ExponentK > 0.1 {
				t.Errorf("OptSelect k-exponent %.2f, want ≈0", f.ExponentK)
			}
		default:
			// Σ_{t<k}(n−t) evaluations: n·k less a k² term that is small
			// while k ≪ n.
			if f.ExponentN < 0.95 || f.ExponentN > 1.1 {
				t.Errorf("%s: n-exponent %.2f, want ≈1", f.Alg, f.ExponentN)
			}
			if f.ExponentK < 0.9 || f.ExponentK > 1.05 {
				t.Errorf("%s: k-exponent %.2f, want ≈1", f.Alg, f.ExponentK)
			}
		}
	}
	// Running it again counts the same operations.
	again := RunTable2(Table2Spec{Seed: 1, Ns: []int{1000}, Ks: []int{20}, NumSpecs: 8, PerSpec: 10, Reps: 1})
	for _, alg := range table2Algorithms {
		a, _ := res.Cell(alg, 1000, 20)
		b, _ := again.Cell(alg, 1000, 20)
		if a.Ops == 0 || a.Ops != b.Ops {
			t.Errorf("%s: %d operations, then %d; the count must repeat exactly", alg, a.Ops, b.Ops)
		}
	}
	var sb strings.Builder
	FormatComplexity(&sb, fits)
	if !strings.Contains(sb.String(), "OptSelect") {
		t.Error("FormatComplexity missing algorithm label")
	}
}

func TestTable2Format(t *testing.T) {
	res := RunTable2(smallTable2())
	var sb strings.Builder
	if err := res.Format(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"OptSelect", "xQuAD", "IASelect", "speedup"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 2 output missing %q", want)
		}
	}
}

// smallTable3 runs the effectiveness sweep on a tiny testbed.
func smallTable3() Table3Spec {
	spec := DefaultTable3Spec()
	spec.Pipeline.Corpus = synth.CorpusSpec{
		Seed:                3,
		NumTopics:           16,
		MinSubtopics:        3,
		MaxSubtopics:        6,
		DocsPerSubtopic:     12,
		GenericDocsPerTopic: 10,
		NoiseDocs:           150,
		DocLength:           40,
		SearchedFrac:        0.8,
		BackgroundVocab:     500,
		TopicVocab:          10,
		SubtopicVocab:       8,
	}
	spec.Pipeline.Log = synth.AOLLike(4, 3000)
	spec.Pipeline.NumCandidates = 300
	spec.Pipeline.K = 100
	spec.Thresholds = []float64{0, 0.20, 0.75}
	spec.Cutoffs = []int{5, 10, 20}
	return spec
}

func TestRunTable3ShapeMatchesPaper(t *testing.T) {
	res, err := RunTable3(smallTable3())
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalTopics != 16 {
		t.Fatalf("topics = %d", res.TotalTopics)
	}
	if len(res.Rows) != 3*3 {
		t.Fatalf("rows = %d, want 9", len(res.Rows))
	}
	base := res.Baseline.MeanAlphaNDCG(20)
	if base <= 0 {
		t.Fatalf("baseline α-NDCG@20 = %f", base)
	}

	base5 := res.Baseline.MeanAlphaNDCG(5)

	// Shape (i): at its best threshold every diversifier improves (or at
	// worst matches) the baseline at the early cutoff the paper
	// emphasizes for the web setting.
	for _, alg := range table3Algorithms {
		_, best := res.BestRow(alg, 5)
		if best.MeanAlphaNDCG(5) < base5*0.98 {
			t.Errorf("%s best α-NDCG@5 = %f below baseline %f",
				alg, best.MeanAlphaNDCG(5), base5)
		}
	}

	// Shape (ii): OptSelect and xQuAD are comparable at @20 ("OptSelect
	// and xQuAD behave similarly"), and OptSelect stays at or above the
	// baseline at its best threshold.
	_, bestOpt := res.BestRow(core.AlgOptSelect, 20)
	_, bestXq := res.BestRow(core.AlgXQuAD, 20)
	if d := bestOpt.MeanAlphaNDCG(20) - bestXq.MeanAlphaNDCG(20); d < -0.05 || d > 0.05 {
		t.Errorf("OptSelect best @20 %f vs xQuAD best %f: not comparable",
			bestOpt.MeanAlphaNDCG(20), bestXq.MeanAlphaNDCG(20))
	}
	if bestOpt.MeanAlphaNDCG(20) < base*0.97 {
		t.Errorf("OptSelect best @20 %f below baseline %f", bestOpt.MeanAlphaNDCG(20), base)
	}

	// Shape (iii): where diversification is actually active (low c),
	// IASelect "performs always worse" than xQuAD at the deeper cutoff —
	// pure coverage saturates once the searched intents are covered and
	// its relevance-blind picks cost it. (At c = 0.75 every method is the
	// baseline, so "best over all c" would compare degenerate rows.)
	iaActive, _ := res.Row(core.AlgIASelect, 0)
	xqActive, _ := res.Row(core.AlgXQuAD, 0)
	if iaActive.MeanAlphaNDCG(20) >= xqActive.MeanAlphaNDCG(20) {
		t.Errorf("IASelect c=0 @20 %f not below xQuAD c=0 %f",
			iaActive.MeanAlphaNDCG(20), xqActive.MeanAlphaNDCG(20))
	}

	// Shape (iv): OptSelect reaches at least the baseline's IA-P at the
	// earliest cutoff (the paper credits it with "the best IA-P values").
	_, bestOptIAP := res.BestRow(core.AlgOptSelect, 5)
	if bestOptIAP.MeanIAP(5) < res.Baseline.MeanIAP(5)-1e-9 {
		t.Errorf("OptSelect best IA-P@5 %f below baseline %f",
			bestOptIAP.MeanIAP(5), res.Baseline.MeanIAP(5))
	}

	// Shape (iii): at c=0.75 effectiveness collapses toward the baseline
	// (the paper: "for c >= 0.75 all the algorithms perform basically as
	// the DPH baseline").
	for _, alg := range table3Algorithms {
		rep, _ := res.Row(alg, 0.75)
		diff := rep.MeanAlphaNDCG(20) - base
		if diff < -0.05 || diff > 0.10 {
			t.Errorf("%s c=0.75 α-NDCG@20 = %f, too far from baseline %f",
				alg, rep.MeanAlphaNDCG(20), base)
		}
	}

	// Significance machinery runs.
	if _, err := res.Significance(core.AlgOptSelect, 0, core.AlgXQuAD, 0, "alpha-ndcg", 20); err != nil {
		t.Errorf("Significance: %v", err)
	}

	var sb strings.Builder
	if err := res.Format(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "DPH baseline") {
		t.Error("Table 3 output missing baseline row")
	}
}

func TestRunFigure1SmallShape(t *testing.T) {
	spec := Figure1Spec{
		Seed: 5,
		Corpus: synth.CorpusSpec{
			Seed:                5,
			NumTopics:           10,
			MinSubtopics:        2,
			MaxSubtopics:        6,
			DocsPerSubtopic:     25,
			GenericDocsPerTopic: 25,
			NoiseDocs:           100,
			DocLength:           40,
			BackgroundVocab:     500,
			TopicVocab:          10,
			SubtopicVocab:       8,
		},
		Sessions: 4000,
		Presets:  []string{"aol"},
		NRq:      100,
		PerSpec:  10,
		K:        10,
		MaxSpecs: 10,
	}
	res, err := RunFigure1(spec)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Curves["aol"]
	if len(rows) == 0 {
		t.Fatal("no Figure 1 points produced")
	}
	totalQ := 0
	for _, r := range rows {
		if r.NumSpecs < 2 {
			t.Errorf("bucket with %d specs", r.NumSpecs)
		}
		// The paper's headline: diversification improves utility by a
		// factor clearly above 1 (5-10 in the paper's setup).
		if r.AvgRatio <= 1 {
			t.Errorf("utility ratio at |Sq|=%d is %.2f, want > 1", r.NumSpecs, r.AvgRatio)
		}
		totalQ += r.Queries
	}
	if totalQ < 3 {
		t.Errorf("only %d queries contributed", totalQ)
	}
	var sb strings.Builder
	if err := res.Format(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "aol-ratio") {
		t.Error("Figure 1 output missing curve header")
	}
}

func TestRunRecallSmall(t *testing.T) {
	spec := RecallSpec{
		Seed: 9,
		Corpus: synth.CorpusSpec{
			Seed:                9,
			NumTopics:           10,
			MinSubtopics:        2,
			MaxSubtopics:        5,
			DocsPerSubtopic:     6,
			GenericDocsPerTopic: -1,
			NoiseDocs:           50,
			DocLength:           30,
			BackgroundVocab:     300,
			TopicVocab:          8,
			SubtopicVocab:       6,
		},
		Sessions:  6000,
		Presets:   []string{"aol", "msn"},
		TrainFrac: 0.7,
	}
	results, err := RunRecall(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		if r.Events < 50 {
			t.Errorf("%s: only %d events", r.Preset, r.Events)
		}
		// Shape: a solid majority of specialization events must be covered
		// (paper: 61-65%); and covered <= detected <= 1.
		if r.Covered < 0.4 || r.Covered > 1 {
			t.Errorf("%s: covered = %.2f outside plausible band", r.Preset, r.Covered)
		}
		if r.Detected < r.Covered {
			t.Errorf("%s: detected %.2f < covered %.2f", r.Preset, r.Detected, r.Covered)
		}
	}
	var sb strings.Builder
	FormatRecall(&sb, results)
	if !strings.Contains(sb.String(), "covered") {
		t.Error("recall output missing header")
	}
}

// Integration guard: the default Table 3 pipeline config builds (tiny
// version) through the public facade.
func TestPipelineConfigIntegration(t *testing.T) {
	cfg := repro.Config{
		Corpus: synth.CorpusSpec{
			Seed: 11, NumTopics: 3, MinSubtopics: 2, MaxSubtopics: 3,
			DocsPerSubtopic: 5, GenericDocsPerTopic: 3, NoiseDocs: 30, DocLength: 30,
			BackgroundVocab: 200, TopicVocab: 6, SubtopicVocab: 5,
		},
		Log:           synth.MSNLike(12, 800),
		NumCandidates: 50,
		PerSpec:       5,
		K:             10,
	}
	pipe, err := repro.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sel, _ := pipe.Diversify("topic01", core.AlgOptSelect)
	if len(sel) == 0 {
		t.Error("end-to-end diversification empty")
	}
}
