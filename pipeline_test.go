package repro

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/ranking"
	"repro/internal/synth"
)

// tinyConfig builds a fast pipeline for tests: 6 topics, small corpus,
// enough log sessions for reliable detection.
func tinyConfig(seed int64) Config {
	return Config{
		Corpus: synth.CorpusSpec{
			Seed:                seed,
			NumTopics:           6,
			MinSubtopics:        2,
			MaxSubtopics:        4,
			DocsPerSubtopic:     10,
			GenericDocsPerTopic: 5,
			NoiseDocs:           100,
			DocLength:           40,
			BackgroundVocab:     400,
			TopicVocab:          10,
			SubtopicVocab:       8,
		},
		Log:           synth.AOLLike(seed+1, 2500),
		NumCandidates: 100,
		PerSpec:       10,
		K:             10,
	}
}

func buildTiny(t testing.TB) *Pipeline {
	t.Helper()
	p, err := Build(tinyConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBuildPipeline(t *testing.T) {
	p := buildTiny(t)
	if p.Engine.NumDocs() == 0 {
		t.Error("empty engine")
	}
	if p.MinedSessions == 0 {
		t.Error("no sessions extracted")
	}
	if p.LogRecords == 0 {
		t.Error("empty log")
	}
}

func TestDetectSpecializationsOnPopularTopic(t *testing.T) {
	p := buildTiny(t)
	specs := p.DetectSpecializations("topic01")
	if len(specs) < 2 {
		t.Fatalf("topic01 specializations = %+v, want >= 2", specs)
	}
	total := 0.0
	for _, s := range specs {
		total += s.Prob
		if s.Query == "topic01" {
			t.Error("query itself returned as specialization")
		}
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("probabilities sum to %f", total)
	}
}

func TestDetectUnambiguous(t *testing.T) {
	p := buildTiny(t)
	if specs := p.DetectSpecializations("noise query 0001"); len(specs) != 0 {
		t.Errorf("noise query detected ambiguous: %+v", specs)
	}
}

func TestBuildProblemShape(t *testing.T) {
	p := buildTiny(t)
	specs := p.DetectSpecializations("topic01")
	if len(specs) == 0 {
		t.Skip("detection failed on this seed (covered by other tests)")
	}
	prob := p.BuildProblem("topic01", specs)
	if len(prob.Candidates) == 0 {
		t.Fatal("no candidates")
	}
	if len(prob.Specs) != len(specs) {
		t.Errorf("problem specs = %d, want %d", len(prob.Specs), len(specs))
	}
	// Relevance normalized: max = 1.
	maxRel := 0.0
	for _, d := range prob.Candidates {
		if d.Rel > maxRel {
			maxRel = d.Rel
		}
		if d.Rel < 0 || d.Rel > 1 {
			t.Errorf("Rel out of range: %f", d.Rel)
		}
	}
	if maxRel != 1 {
		t.Errorf("max Rel = %f, want 1", maxRel)
	}
	for _, s := range prob.Specs {
		if len(s.Results) == 0 {
			t.Errorf("specialization %q has empty R_q'", s.Query)
		}
	}
}

// TestCandidateRelNegativeScores is the regression test for the P(d|q)
// normalization bug: LMDirichlet retrieval scores are routinely negative
// (the per-document adjustment is qLen·log(μ/(μ+l)) < 0), and the old
// max-against-0 normalization handed every candidate Rel = 0 — or a
// negative Rel when scores straddled zero — silently reducing the
// language-model ablation to pure utility ordering. Candidates must get
// Rel ∈ [0,1] with retrieval rank order preserved under every model.
func TestCandidateRelNegativeScores(t *testing.T) {
	// First, pin that the scenario is real: a Dirichlet-smoothed total is
	// negative whenever the (always-negative) document adjustment
	// outweighs the term contributions — common terms, long documents.
	lm := ranking.LMDirichlet{}
	c := index.CollectionStats{NumDocs: 100, TotalTokens: 10000, AvgDocLen: 100}
	total := lm.TermScore(1, 100, index.TermStats{DF: 90, CF: 5000}, c) +
		lm.DocAdjust(100, 1, c)
	if total >= 0 {
		t.Fatalf("expected a negative LMDirichlet total, got %v", total)
	}

	p := buildTiny(t)
	mkResults := func(scores ...float64) []engine.Result {
		out := make([]engine.Result, len(scores))
		for i, s := range scores {
			out[i] = engine.Result{DocID: fmt.Sprintf("d%d", i), Rank: i + 1, Score: s, Snippet: "topic words"}
		}
		return out
	}
	check := func(name string, cands []core.Doc) {
		t.Helper()
		nonzero := 0
		for i, d := range cands {
			if d.Rel < 0 || d.Rel > 1 {
				t.Fatalf("%s: candidate %d Rel = %v, want [0,1]", name, i, d.Rel)
			}
			if d.Rel > 0 {
				nonzero++
			}
			if i > 0 && cands[i-1].Rel < d.Rel {
				t.Fatalf("%s: rank order broken at %d: Rel %v < %v", name, i, cands[i-1].Rel, d.Rel)
			}
		}
		if nonzero == 0 {
			t.Fatalf("%s: every candidate still has Rel = 0", name)
		}
		if cands[0].Rel != 1 {
			t.Errorf("%s: top candidate Rel = %v, want 1", name, cands[0].Rel)
		}
	}
	// All-negative scores (the LMDirichlet shape) and scores straddling
	// zero (where the old code produced negative Rel).
	check("all-negative", p.candidatesFromResults(mkResults(-1.25, -2.5, -3.75, -9)))
	check("straddling", p.candidatesFromResults(mkResults(0.5, 0.1, -0.2, -1.4)))
	// Degenerate: every score equal and negative — equally relevant.
	for i, d := range p.candidatesFromResults(mkResults(-2, -2, -2)) {
		if d.Rel != 1 {
			t.Errorf("all-equal-negative: candidate %d Rel = %v, want 1", i, d.Rel)
		}
	}
}

// TestCandidateRelNonnegativeModelsUnchanged pins the other half of the
// fix: for models with nonnegative scores (DPH here, BM25/TFIDF by the
// same code path) the shift is zero and Rel must remain byte-identical
// to the original score/maxScore normalization.
func TestCandidateRelNonnegativeModelsUnchanged(t *testing.T) {
	p := buildTiny(t)
	results := p.Engine.Search("topic01", p.Config.NumCandidates)
	if len(results) == 0 {
		t.Fatal("no results")
	}
	maxScore := 0.0
	for _, r := range results {
		if r.Score > maxScore {
			maxScore = r.Score
		}
		if r.Score < 0 {
			t.Fatalf("DPH produced a negative score %v", r.Score)
		}
	}
	cands := p.candidatesFromResults(results)
	for i, r := range results {
		want := 0.0
		if maxScore > 0 {
			want = r.Score / maxScore
		}
		if cands[i].Rel != want {
			t.Fatalf("candidate %d Rel = %v, want the legacy %v bit for bit", i, cands[i].Rel, want)
		}
	}
}

func TestDiversifyEndToEnd(t *testing.T) {
	p := buildTiny(t)
	sel, specs := p.Diversify("topic01", core.AlgOptSelect)
	if len(specs) == 0 {
		t.Fatal("topic01 not detected as ambiguous")
	}
	if len(sel) != p.Config.K {
		t.Fatalf("selected %d docs, want %d", len(sel), p.Config.K)
	}
	// The diversified list must cover at least two different sub-topics:
	// doc IDs encode their sub-topic as doc-tXX-sYY-NNN.
	subs := map[string]bool{}
	for _, s := range sel {
		if len(s.ID) >= 11 && s.ID[:5] == "doc-t" {
			subs[s.ID[5:11]] = true
		}
	}
	if len(subs) < 2 {
		t.Errorf("diversified SERP covers %d sub-topics: %v", len(subs), core.IDs(sel))
	}
}

func TestDiversifyUnambiguousFallsBack(t *testing.T) {
	p := buildTiny(t)
	sel, specs := p.Diversify("noise query 0002", core.AlgOptSelect)
	if specs != nil {
		t.Errorf("specs = %+v for unambiguous query", specs)
	}
	// Baseline of whatever matched; may be empty or small but must not
	// panic and must respect K.
	if len(sel) > p.Config.K {
		t.Errorf("selected %d > K", len(sel))
	}
}

func TestDiversifyAllAlgorithmsAgreeOnSize(t *testing.T) {
	p := buildTiny(t)
	for _, alg := range []core.Algorithm{core.AlgOptSelect, core.AlgXQuAD, core.AlgIASelect, core.AlgMMR} {
		sel, _ := p.Diversify("topic02", alg)
		if len(sel) == 0 {
			t.Errorf("%s returned nothing", alg)
		}
		seen := map[string]bool{}
		for _, s := range sel {
			if seen[s.ID] {
				t.Errorf("%s duplicated %s", alg, s.ID)
			}
			seen[s.ID] = true
		}
	}
}

func TestPipelineDeterminism(t *testing.T) {
	p1 := buildTiny(t)
	p2 := buildTiny(t)
	s1, _ := p1.Diversify("topic01", core.AlgOptSelect)
	s2, _ := p2.Diversify("topic01", core.AlgOptSelect)
	ids1, ids2 := core.IDs(s1), core.IDs(s2)
	if len(ids1) != len(ids2) {
		t.Fatalf("lengths differ: %d vs %d", len(ids1), len(ids2))
	}
	for i := range ids1 {
		if ids1[i] != ids2[i] {
			t.Fatalf("non-deterministic at %d: %s vs %s", i, ids1[i], ids2[i])
		}
	}
}

// The §6 parallel architecture — BuildProblem's one batched fan-out over
// the shard workers — must be race-free under concurrent queries and
// answer each as it does alone (run with -race in CI to exercise this
// fully).
func TestDiversifyParallelConcurrentQueries(t *testing.T) {
	p := buildTinySharded(t, 4)
	queries := []string{"topic01", "topic02"}
	want := make([][]core.Selected, len(queries))
	for i, q := range queries {
		if want[i], _ = p.Diversify(q, core.AlgOptSelect); len(want[i]) == 0 {
			t.Fatalf("%q: empty SERP", q)
		}
	}
	done := make(chan bool)
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- true }()
			for i := 0; i < 5; i++ {
				sel, _ := p.Diversify(queries[g%2], core.AlgOptSelect)
				if !reflect.DeepEqual(sel, want[g%2]) {
					t.Errorf("goroutine %d: concurrent SERP differs from the sequential one", g)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
}

// TestFacadeSurface pins the package's query surface to a literal list:
// one reference route (DetectSpecializations, BuildProblem, Diversify) and
// one serving route (DiversifyServe), configured by Config's fields and
// nothing else. An entry point or knob added beside them fails here, where
// it has to be argued for, instead of accreting until the next audit.
func TestFacadeSurface(t *testing.T) {
	methods := func(v any) []string {
		typ := reflect.TypeOf(v)
		names := make([]string, typ.NumMethod()) // exported only, sorted by name
		for i := range names {
			names[i] = typ.Method(i).Name
		}
		return names
	}
	var fields []string
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Config{})) {
		if f.IsExported() {
			fields = append(fields, f.Name)
		}
	}
	for _, tc := range []struct {
		what      string
		got, want []string
	}{
		{"*Pipeline methods", methods(&Pipeline{}),
			[]string{"BuildProblem", "DetectSpecializations", "Diversify", "NewServeHandle"}},
		{"*ServeHandle methods", methods(&ServeHandle{}),
			[]string{"CacheStats", "DiversifyServe", "StoreStats"}},
		{"Config fields", fields,
			[]string{"Corpus", "Log", "Engine", "PrebuiltEngine", "Session", "Detect",
				"NumCandidates", "PerSpec", "K", "Lambda", "Threshold", "MaxSpecs"}},
	} {
		if !reflect.DeepEqual(tc.got, tc.want) {
			t.Errorf("%s = %v, want %v", tc.what, tc.got, tc.want)
		}
	}
}
