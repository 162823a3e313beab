package synth

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
)

func TestZipfBasics(t *testing.T) {
	z := NewZipf(10, 1.0)
	if z.N() != 10 {
		t.Fatalf("N = %d", z.N())
	}
	total := 0.0
	prev := math.Inf(1)
	for i := 0; i < 10; i++ {
		p := z.Prob(i)
		if p <= 0 || p > prev+1e-12 {
			t.Errorf("Prob(%d) = %f not decreasing", i, p)
		}
		prev = p
		total += p
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("probabilities sum to %f", total)
	}
	if z.Prob(-1) != 0 || z.Prob(10) != 0 {
		t.Error("out-of-range Prob non-zero")
	}
}

func TestZipfSampleMatchesDistribution(t *testing.T) {
	z := NewZipf(5, 1.0)
	rng := rand.New(rand.NewSource(3))
	counts := make([]int, 5)
	n := 50000
	for i := 0; i < n; i++ {
		counts[z.Sample(rng)]++
	}
	for i := 0; i < 5; i++ {
		got := float64(counts[i]) / float64(n)
		want := z.Prob(i)
		if math.Abs(got-want) > 0.02 {
			t.Errorf("empirical P(%d) = %f, want %f", i, got, want)
		}
	}
	// Rank 0 must dominate.
	if counts[0] <= counts[4] {
		t.Error("Zipf head not dominant")
	}
}

func TestZipfDegenerate(t *testing.T) {
	z := NewZipf(0, 1.0)
	if z.N() != 1 {
		t.Errorf("N = %d, want 1 (clamped)", z.N())
	}
	rng := rand.New(rand.NewSource(1))
	if z.Sample(rng) != 0 {
		t.Error("single-value sampler returned non-zero")
	}
}

func smallSpec() CorpusSpec {
	return CorpusSpec{
		Seed:                7,
		NumTopics:           5,
		MinSubtopics:        2,
		MaxSubtopics:        4,
		DocsPerSubtopic:     6,
		GenericDocsPerTopic: 3,
		NoiseDocs:           20,
		DocLength:           30,
		BackgroundVocab:     200,
		TopicVocab:          8,
		SubtopicVocab:       6,
	}
}

func TestGenerateTestbedShape(t *testing.T) {
	tb := GenerateTestbed(smallSpec())
	if len(tb.Topics) != 5 {
		t.Fatalf("topics = %d", len(tb.Topics))
	}
	totalSubs := 0
	for _, topic := range tb.Topics {
		n := len(topic.Subtopics)
		if n < 2 || n > 4 {
			t.Errorf("topic %d has %d subtopics", topic.ID, n)
		}
		totalSubs += n
		// Every subtopic must have a query; at least the two most popular
		// must be searched (positive popularity).
		for _, sub := range topic.Subtopics {
			q := tb.SubtopicQuery[topic.ID][sub.ID]
			if q == "" {
				t.Errorf("missing subtopic query %d.%d", topic.ID, sub.ID)
			}
		}
		searched := tb.SubtopicPopularity[topic.ID]
		if len(searched) < 2 {
			t.Errorf("topic %d has %d searched subtopics, want >= 2", topic.ID, len(searched))
		}
		if searched[1] <= 0 || searched[2] <= 0 {
			t.Errorf("topic %d: first two subtopics must be searched: %v", topic.ID, searched)
		}
		// Popularities sum to 1 per topic over the searched set.
		sum := 0.0
		for _, p := range searched {
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("topic %d popularity sums to %f", topic.ID, sum)
		}
	}
	wantDocs := totalSubs*6 + 5*3 + 20 // subtopic docs + generic docs + noise
	if len(tb.Docs) != wantDocs {
		t.Errorf("docs = %d, want %d", len(tb.Docs), wantDocs)
	}
	// Generic documents exist and are never judged relevant to a subtopic.
	genSeen := 0
	for _, d := range tb.Docs {
		if len(d.ID) > 8 && d.ID[8:11] == "gen" {
			genSeen++
			for _, topic := range tb.Topics {
				if tb.Qrels.RelevantToAny(topic.ID, d.ID) {
					t.Errorf("generic doc %s judged relevant", d.ID)
				}
			}
		}
	}
	if genSeen != 15 {
		t.Errorf("generic docs = %d, want 15", genSeen)
	}
	// Negative means none.
	none := smallSpec()
	none.GenericDocsPerTopic = -1
	tbNone := GenerateTestbed(none)
	for _, d := range tbNone.Docs {
		if len(d.ID) > 8 && d.ID[8:11] == "gen" {
			t.Fatal("negative GenericDocsPerTopic still produced generics")
		}
	}
	// Qrels: every topic has judged subtopics and pooled docs.
	for _, topic := range tb.Topics {
		if got := len(tb.Qrels.Subtopics(topic.ID)); got != len(topic.Subtopics) {
			t.Errorf("topic %d qrels subtopics = %d, want %d", topic.ID, got, len(topic.Subtopics))
		}
		if len(tb.Qrels.JudgedPool(topic.ID)) == 0 {
			t.Errorf("topic %d has empty judged pool", topic.ID)
		}
	}
}

func TestGenerateTestbedDeterministic(t *testing.T) {
	a := GenerateTestbed(smallSpec())
	b := GenerateTestbed(smallSpec())
	if !reflect.DeepEqual(a.Docs, b.Docs) {
		t.Error("same seed produced different corpora")
	}
	if !reflect.DeepEqual(a.Topics, b.Topics) {
		t.Error("same seed produced different topics")
	}
	spec2 := smallSpec()
	spec2.Seed = 8
	c := GenerateTestbed(spec2)
	if reflect.DeepEqual(a.Docs, c.Docs) {
		t.Error("different seeds produced identical corpora")
	}
}

func TestTopicQueryLookup(t *testing.T) {
	tb := GenerateTestbed(smallSpec())
	if q := tb.TopicQuery(1); q != "topic01" {
		t.Errorf("TopicQuery(1) = %q", q)
	}
	if q := tb.TopicQuery(999); q != "" {
		t.Errorf("TopicQuery(999) = %q", q)
	}
}

func TestGenerateLogShape(t *testing.T) {
	tb := GenerateTestbed(smallSpec())
	spec := AOLLike(11, 500)
	spec.Users = 60
	l := GenerateLog(tb, spec)
	st := l.ComputeStats()
	if st.Queries < 500 {
		t.Errorf("queries = %d, want >= sessions", st.Queries)
	}
	if st.Users == 0 || st.Users > 60 {
		t.Errorf("users = %d", st.Users)
	}
	if st.Span <= 0 || st.Span > 92*24*60*60*1e9 {
		t.Errorf("span = %v", st.Span)
	}
	if st.ClickedQueries == 0 {
		t.Error("no clicks generated")
	}
	// The ambiguous head queries must be frequent.
	f := l.Frequencies()
	if f.Of("topic01") == 0 {
		t.Error("most popular topic never queried")
	}
	// Refinements must appear: at least one subtopic query in the log.
	found := false
	for q := range f {
		if len(q) > 8 && q[:5] == "topic" && q != "topic01" && q != "topic02" &&
			q != "topic03" && q != "topic04" && q != "topic05" {
			found = true
			break
		}
	}
	if !found {
		t.Error("no specialization queries in the log")
	}
}

func TestGenerateLogDeterministicAndSorted(t *testing.T) {
	tb := GenerateTestbed(smallSpec())
	l1 := GenerateLog(tb, MSNLike(5, 300))
	l2 := GenerateLog(tb, MSNLike(5, 300))
	if !reflect.DeepEqual(l1.Records, l2.Records) {
		t.Error("same seed produced different logs")
	}
	// Chronological per user after SortChronological.
	streams := l1.UserStreams()
	for _, s := range streams {
		for i := 1; i < len(s); i++ {
			if s[i].Time.Before(s[i-1].Time) {
				t.Fatal("stream not sorted")
			}
		}
	}
}

func TestPresetsDiffer(t *testing.T) {
	aol := AOLLike(1, 100)
	msn := MSNLike(1, 100)
	if aol.Span <= msn.Span {
		t.Error("AOL span should exceed MSN span")
	}
	if msn.RefineProb <= aol.RefineProb {
		t.Error("MSN preset should refine more (drives its higher recall)")
	}
}

func TestGenerateProblemShape(t *testing.T) {
	spec := ProblemSpec{Seed: 3, N: 200, K: 20, NumSpecs: 4, PerSpec: 10}
	p := GenerateProblem(spec)
	if len(p.Candidates) != 200 || len(p.Specs) != 4 || p.K != 20 {
		t.Fatalf("shape = %d cands, %d specs, k=%d", len(p.Candidates), len(p.Specs), p.K)
	}
	total := 0.0
	for _, s := range p.Specs {
		if len(s.Results) != 10 {
			t.Errorf("spec %q has %d results", s.Query, len(s.Results))
		}
		total += s.Prob
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("spec probs sum to %f", total)
	}
	// Relevance decays with rank.
	if p.Candidates[0].Rel <= p.Candidates[199].Rel {
		t.Error("relevance not decaying")
	}
	// Utilities must be sparse but non-trivial.
	u := core.ComputeUtilities(p)
	useful := 0
	for i := range u.U {
		for j := range u.U[i] {
			if u.U[i][j] > 0 {
				useful++
			}
		}
	}
	if useful == 0 {
		t.Fatal("no positive utilities at all")
	}
	if useful > 200*4/2 {
		t.Errorf("utilities too dense: %d of %d", useful, 200*4)
	}
}

func TestGenerateProblemDeterministic(t *testing.T) {
	a := GenerateProblem(ProblemSpec{Seed: 9, N: 50})
	b := GenerateProblem(ProblemSpec{Seed: 9, N: 50})
	if !reflect.DeepEqual(a.Candidates, b.Candidates) {
		t.Error("same seed produced different problems")
	}
}

// TestGenerateProblemPinned pins the Table 2 generator's output: a hash
// of the utility matrix and the overall scores, bit for bit, and each
// selection algorithm's operation count, for seeds 1–3 at the default
// shape: Table 2 times these problems, so a change to how they are built
// must not move a bit of them.
func TestGenerateProblemPinned(t *testing.T) {
	for _, want := range []struct {
		seed                 int64
		hash                 uint64
		pushes, xquad, iasel int64
	}{
		{1, 0xd38992678622e1e1, 1340, 9955, 9955},
		{2, 0x64bf356ed35d9b1f, 1325, 9955, 9955},
		{3, 0xcaf6879226f9742, 1328, 9955, 9955},
	} {
		p := GenerateProblem(ProblemSpec{Seed: want.seed})
		u := core.ComputeUtilities(p)
		h := fnv.New64a()
		put := func(x float64) {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
		for _, row := range u.U {
			for _, x := range row {
				put(x)
			}
		}
		for _, x := range u.Overall {
			put(x)
		}
		var opt, xq, ia core.OpCount
		p.Ops = &opt
		core.OptSelect(p, u)
		p.Ops = &xq
		core.XQuAD(p, u)
		p.Ops = &ia
		core.IASelect(p, u)
		if got := h.Sum64(); got != want.hash {
			t.Errorf("seed %d: utility hash %#x, want %#x", want.seed, got, want.hash)
		}
		if opt.HeapPushes != want.pushes || xq.MarginalEvals != want.xquad || ia.MarginalEvals != want.iasel {
			t.Errorf("seed %d: OptSelect %d pushes, xQuAD %d and IASelect %d evaluations; want %d, %d, %d",
				want.seed, opt.HeapPushes, xq.MarginalEvals, ia.MarginalEvals, want.pushes, want.xquad, want.iasel)
		}
	}
}

func TestLogFeedsDetectionPipeline(t *testing.T) {
	// End-to-end sanity: the generated log must contain the co-occurrence
	// signal (head query followed by specialization in the same session).
	tb := GenerateTestbed(smallSpec())
	l := GenerateLog(tb, AOLLike(13, 800))
	head := "topic01"
	streams := l.UserStreams()
	pairs := 0
	for _, s := range streams {
		for i := 1; i < len(s); i++ {
			if s[i-1].Query == head && len(s[i].Query) > len(head) &&
				s[i].Query[:len(head)] == head {
				pairs++
			}
		}
	}
	if pairs < 5 {
		t.Errorf("only %d head→specialization pairs for %s", pairs, head)
	}
}

func TestGenerateLogRespectsSpanAndClicks(t *testing.T) {
	tb := GenerateTestbed(smallSpec())
	spec := MSNLike(3, 1500)
	l := GenerateLog(tb, spec)
	var first, last int64
	clicked := 0
	for i, r := range l.Records {
		ts := r.Time.UnixMilli()
		if i == 0 || ts < first {
			first = ts
		}
		if ts > last {
			last = ts
		}
		if len(r.Clicks) > 0 {
			clicked++
		}
		if len(r.Results) == 0 {
			t.Fatal("record without SERP results")
		}
	}
	if first < spec.Start.UnixMilli() {
		t.Errorf("record before log start")
	}
	// In-session refinements can run a few minutes past the last session
	// start, never more than ~10 minutes.
	if last > spec.Start.Add(spec.Span+10*60*1e9).UnixMilli() {
		t.Errorf("record far beyond span end")
	}
	rate := float64(clicked) / float64(l.Len())
	if rate < 0.2 || rate > 0.9 {
		t.Errorf("click rate = %.2f, outside plausible band", rate)
	}
}

func TestVaryLengthBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		l := varyLength(rng, 50)
		if l < 30 || l > 80 {
			t.Fatalf("varyLength(50) = %d outside [30,80]", l)
		}
	}
	if varyLength(rng, 1) != 1 {
		t.Error("mean 1 not preserved")
	}
	if varyLength(rng, 0) != 0 {
		t.Error("mean 0 not preserved")
	}
}
