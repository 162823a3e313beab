package suggest

import (
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/qfg"
	"repro/internal/querylog"
)

func at(min int) time.Time {
	return time.Date(2006, 3, 1, 10, 0, 0, 0, time.UTC).Add(time.Duration(min) * time.Minute)
}

func rec(user string, min int, q string, clicks ...string) querylog.Record {
	return querylog.Record{User: user, Time: at(min), Query: q, Clicks: clicks}
}

// trainingLog builds a log where "leopard" is ambiguous with three
// specializations of decreasing popularity: mac os x (3 users), tank (2),
// pictures (1); plus an unambiguous query.
func trainingLog() *querylog.Log {
	var recs []querylog.Record
	add := func(user string, min int, q string, clicks ...string) {
		recs = append(recs, rec(user, min, q, clicks...))
	}
	add("u1", 0, "leopard")
	add("u1", 1, "leopard mac os x", "u1.example/osx")
	add("u2", 0, "leopard")
	add("u2", 2, "leopard mac os x", "u2.example/osx")
	add("u3", 0, "leopard")
	add("u3", 1, "leopard mac os x")
	add("u4", 0, "leopard")
	add("u4", 1, "leopard tank", "u4.example/tank")
	add("u5", 0, "leopard")
	add("u5", 2, "leopard tank")
	add("u6", 0, "leopard")
	add("u6", 1, "leopard pictures")
	add("u7", 0, "weather boston", "u7.example/weather")
	return querylog.New(recs)
}

func trained(t *testing.T) (*Recommender, *querylog.Log) {
	t.Helper()
	l := trainingLog()
	sessions := qfg.ExtractSessions(l, qfg.DefaultOptions())
	r := Train(sessions, l.Frequencies(), TrainOptions{})
	return r, l
}

func TestRecommendDirectEvidence(t *testing.T) {
	r, _ := trained(t)
	sugg := r.Recommend("leopard", 10)
	if len(sugg) != 3 {
		t.Fatalf("suggestions = %+v, want 3", sugg)
	}
	if sugg[0].Query != "leopard mac os x" {
		t.Errorf("top suggestion = %q, want mac os x", sugg[0].Query)
	}
	if sugg[0].Score <= sugg[1].Score || sugg[1].Score <= sugg[2].Score {
		t.Errorf("scores not strictly ordered: %+v", sugg)
	}
	if sugg[0].Freq != 3 {
		t.Errorf("f(mac os x) = %d, want 3", sugg[0].Freq)
	}
}

// TestQueries: the queries with direct session evidence are the ones a
// session followed with another — "leopard" alone in this log (its
// refinements end their sessions, and "weather boston" is a session of
// one) — sorted.
func TestQueries(t *testing.T) {
	r, _ := trained(t)
	if got := r.Queries(); !reflect.DeepEqual(got, []string{"leopard"}) {
		t.Errorf("Queries() = %q, want [leopard]", got)
	}
	l := querylog.New(append(trainingLog().Records, rec("u8", 0, "weather"), rec("u8", 1, "weather boston")))
	r = Train(qfg.ExtractSessions(l, qfg.DefaultOptions()), l.Frequencies(), TrainOptions{})
	if got := r.Queries(); !reflect.DeepEqual(got, []string{"leopard", "weather"}) {
		t.Errorf("Queries() = %q, want [leopard weather]", got)
	}
}

func TestRecommendMaxTruncates(t *testing.T) {
	r, _ := trained(t)
	if got := r.Recommend("leopard", 2); len(got) != 2 {
		t.Errorf("len = %d, want 2", len(got))
	}
}

func TestRecommendUnknownQueryFallback(t *testing.T) {
	r, _ := trained(t)
	// "leopard os" never occurs in the log, but shares the term "leopard"
	// with satisfactory sessions whose final queries become candidates.
	sugg := r.Recommend("leopard os", 10)
	if len(sugg) == 0 {
		t.Fatal("term fallback returned nothing")
	}
	for _, s := range sugg {
		if s.Query == "leopard os" {
			t.Error("fallback suggested the query itself")
		}
	}
}

func TestRecommendNoEvidenceAtAll(t *testing.T) {
	r, _ := trained(t)
	if got := r.Recommend("quantum chromodynamics", 10); len(got) != 0 {
		t.Errorf("suggestions for alien query = %+v", got)
	}
}

func TestIsSpecialization(t *testing.T) {
	cases := []struct {
		q1, q2 string
		want   bool
	}{
		{"leopard", "leopard tank", true},
		{"leopard", "leopard mac os x", true},
		{"leopard tank", "leopard", false},    // generalization
		{"leopard", "leopard", false},         // identical
		{"leopard", "jaguar pictures", false}, // disjoint
		{"apple", "APPLE iPod!", true},        // normalization applies
		{"", "anything", false},
		{"a b", "a c b", true},
	}
	for _, c := range cases {
		if got := IsSpecialization(c.q1, c.q2); got != c.want {
			t.Errorf("IsSpecialization(%q,%q) = %v, want %v", c.q1, c.q2, got, c.want)
		}
	}
}

func TestAmbiguousQueryDetect(t *testing.T) {
	r, _ := trained(t)
	specs := AmbiguousQueryDetect("leopard", r, DefaultDetectOptions())
	if len(specs) != 3 {
		t.Fatalf("specs = %+v, want 3", specs)
	}
	// Probabilities: 3/6, 2/6, 1/6 by Definition 1.
	want := []struct {
		q string
		p float64
	}{
		{"leopard mac os x", 0.5},
		{"leopard tank", 2.0 / 6},
		{"leopard pictures", 1.0 / 6},
	}
	total := 0.0
	for i, w := range want {
		if specs[i].Query != w.q {
			t.Errorf("specs[%d] = %q, want %q", i, specs[i].Query, w.q)
		}
		if math.Abs(specs[i].Prob-w.p) > 1e-12 {
			t.Errorf("P(%q) = %f, want %f", w.q, specs[i].Prob, w.p)
		}
		total += specs[i].Prob
	}
	if math.Abs(total-1) > 1e-12 {
		t.Errorf("probabilities sum to %f", total)
	}
}

func TestDetectUnambiguousReturnsNil(t *testing.T) {
	r, _ := trained(t)
	if specs := AmbiguousQueryDetect("weather boston", r, DefaultDetectOptions()); specs != nil {
		t.Errorf("unambiguous query detected as ambiguous: %+v", specs)
	}
}

func TestDetectPopularityFilter(t *testing.T) {
	r, _ := trained(t)
	// f(leopard) = 6; with s = 3 the threshold is 2, dropping "pictures"
	// (f=1).
	opts := DefaultDetectOptions()
	opts.S = 3
	specs := AmbiguousQueryDetect("leopard", r, opts)
	if len(specs) != 2 {
		t.Fatalf("specs = %+v, want 2 after popularity filter", specs)
	}
	for _, s := range specs {
		if s.Query == "leopard pictures" {
			t.Error("low-popularity specialization survived the filter")
		}
	}
	// Probabilities renormalized over survivors: 3/5, 2/5.
	if math.Abs(specs[0].Prob-0.6) > 1e-12 || math.Abs(specs[1].Prob-0.4) > 1e-12 {
		t.Errorf("renormalized probs = %f, %f", specs[0].Prob, specs[1].Prob)
	}
}

func TestDetectRequiresTwoSpecializations(t *testing.T) {
	// A query with exactly one refinement must not be flagged (|S_q| >= 2).
	l := querylog.New([]querylog.Record{
		rec("u1", 0, "golang"),
		rec("u1", 1, "golang generics tutorial", "x.example/a"),
	})
	sessions := qfg.ExtractSessions(l, qfg.DefaultOptions())
	r := Train(sessions, l.Frequencies(), TrainOptions{})
	if specs := AmbiguousQueryDetect("golang", r, DefaultDetectOptions()); specs != nil {
		t.Errorf("single-specialization query flagged ambiguous: %+v", specs)
	}
}

func TestTopSpecializations(t *testing.T) {
	specs := []Specialization{
		{Query: "a", Freq: 5, Prob: 0.5},
		{Query: "b", Freq: 3, Prob: 0.3},
		{Query: "c", Freq: 2, Prob: 0.2},
	}
	top := TopSpecializations(specs, 2)
	if len(top) != 2 {
		t.Fatalf("len = %d, want 2", len(top))
	}
	if math.Abs(top[0].Prob-5.0/8) > 1e-12 || math.Abs(top[1].Prob-3.0/8) > 1e-12 {
		t.Errorf("renormalized probs = %f, %f", top[0].Prob, top[1].Prob)
	}
	// k >= len or k <= 0: unchanged.
	if got := TopSpecializations(specs, 10); len(got) != 3 {
		t.Error("k > len truncated")
	}
	if got := TopSpecializations(specs, 0); len(got) != 3 {
		t.Error("k = 0 truncated")
	}
}

func TestSatisfactorySessionsWeighMore(t *testing.T) {
	// Two users refine "jaguar" to different queries; only one session ends
	// with a click. With equal frequencies the clicked refinement must rank
	// first.
	l := querylog.New([]querylog.Record{
		rec("u1", 0, "jaguar"),
		rec("u1", 1, "jaguar car", "x.example/car"),
		rec("u2", 0, "jaguar"),
		rec("u2", 1, "jaguar animal"),
	})
	sessions := qfg.ExtractSessions(l, qfg.DefaultOptions())
	r := Train(sessions, l.Frequencies(), TrainOptions{})
	sugg := r.Recommend("jaguar", 10)
	if len(sugg) != 2 {
		t.Fatalf("suggestions = %+v", sugg)
	}
	if sugg[0].Query != "jaguar car" {
		t.Errorf("clicked refinement should rank first, got %q", sugg[0].Query)
	}
}

func TestClicksTracking(t *testing.T) {
	r, _ := trained(t)
	// "leopard mac os x" received clicks from u1 and u2.
	if got := r.Clicks("leopard mac os x"); got != 2 {
		t.Errorf("Clicks(mac os x) = %d, want 2", got)
	}
	if got := r.Clicks("leopard pictures"); got != 0 {
		t.Errorf("Clicks(pictures) = %d, want 0", got)
	}
	if got := r.Clicks("never seen"); got != 0 {
		t.Errorf("Clicks(unseen) = %d", got)
	}
}

func TestDetectClickWeighted(t *testing.T) {
	r, _ := trained(t)
	plain := AmbiguousQueryDetect("leopard", r, DefaultDetectOptions())
	opts := DefaultDetectOptions()
	opts.ClickWeight = 2
	clicked := AmbiguousQueryDetect("leopard", r, opts)
	if len(plain) != len(clicked) {
		t.Fatalf("click weighting changed the set: %d vs %d", len(plain), len(clicked))
	}
	// mac os x: f=3, clicks=2 -> weight 7; tank: f=2, clicks=1 -> 4;
	// pictures: f=1, clicks=0 -> 1. Its probability must rise vs plain.
	var plainP, clickP float64
	for _, s := range plain {
		if s.Query == "leopard mac os x" {
			plainP = s.Prob
		}
	}
	total := 0.0
	for _, s := range clicked {
		total += s.Prob
		if s.Query == "leopard mac os x" {
			clickP = s.Prob
		}
	}
	if clickP <= plainP {
		t.Errorf("click weighting did not boost clicked spec: %f <= %f", clickP, plainP)
	}
	if math.Abs(total-1) > 1e-12 {
		t.Errorf("click-weighted probs sum to %f", total)
	}
	if math.Abs(clickP-7.0/12) > 1e-12 {
		t.Errorf("P(mac os x) = %f, want 7/12", clickP)
	}
}
