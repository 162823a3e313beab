package trec

import (
	"reflect"
	"testing"
)

func sampleTopics() Topics {
	return Topics{
		{
			ID:          1,
			Query:       "obama family tree",
			Description: "Users want genealogy information about Barack Obama.",
			Subtopics: []Subtopic{
				{ID: 1, Type: "nav", Description: "Find the TIME magazine photo essay Barack Obama's Family Tree"},
				{ID: 2, Type: "inf", Description: "Where did Barack Obama's parents and grandparents come from?"},
				{ID: 3, Type: "inf", Description: "Find biographical information on Barack Obama's mother"},
			},
		},
		{
			ID:        2,
			Query:     "leopard",
			Subtopics: []Subtopic{{ID: 1, Type: "inf", Description: "mac os x"}, {ID: 2, Type: "inf", Description: "tank"}},
		},
	}
}

func TestTopicsByID(t *testing.T) {
	topics := sampleTopics()
	got, ok := topics.ByID(2)
	if !ok || got.Query != "leopard" {
		t.Errorf("ByID(2) = %+v, %v", got, ok)
	}
	if _, ok := topics.ByID(99); ok {
		t.Error("ByID(99) found a topic")
	}
}

func sampleQrels() *Qrels {
	q := NewQrels()
	q.Add(1, 1, "docA", 1)
	q.Add(1, 1, "docB", 0)
	q.Add(1, 2, "docB", 1)
	q.Add(1, 2, "docC", 1)
	q.Add(2, 1, "docX", 2)
	return q
}

func TestQrelsAccessors(t *testing.T) {
	q := sampleQrels()
	if !q.Relevant(1, 1, "docA") {
		t.Error("docA not relevant to 1.1")
	}
	if q.Relevant(1, 1, "docB") {
		t.Error("docB judged 0 but relevant")
	}
	if q.Rel(2, 1, "docX") != 2 {
		t.Errorf("graded rel = %d", q.Rel(2, 1, "docX"))
	}
	if q.Rel(9, 9, "none") != 0 {
		t.Error("unjudged rel != 0")
	}
	if !q.RelevantToAny(1, "docC") || q.RelevantToAny(1, "docZ") {
		t.Error("RelevantToAny wrong")
	}
	if got := q.Subtopics(1); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Errorf("Subtopics = %v", got)
	}
	if got := q.Topics(); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Errorf("Topics = %v", got)
	}
	if got := q.JudgedPool(1); !reflect.DeepEqual(got, []string{"docA", "docB", "docC"}) {
		t.Errorf("JudgedPool = %v", got)
	}
}

func TestRunAddRanking(t *testing.T) {
	r := NewRun()
	r.AddRanking(1, []string{"d3", "d1", "d2"}, "sys")
	r.AddRanking(2, []string{"dX"}, "sys")
	if !reflect.DeepEqual(r.Ranking(1), []string{"d3", "d1", "d2"}) {
		t.Errorf("Ranking(1) = %v", r.Ranking(1))
	}
	if !reflect.DeepEqual(r.Topics(), []int{1, 2}) {
		t.Errorf("Topics = %v", r.Topics())
	}
	e := r.Entries(1)[0]
	if e.Rank != 1 || e.Tag != "sys" || e.Score != 3 {
		t.Errorf("entry = %+v", e)
	}
}

func TestEmptyRunAndQrels(t *testing.T) {
	r := NewRun()
	if len(r.Topics()) != 0 || len(r.Ranking(5)) != 0 {
		t.Error("empty run misbehaves")
	}
	q := NewQrels()
	if len(q.Topics()) != 0 || len(q.JudgedPool(1)) != 0 {
		t.Error("empty qrels misbehaves")
	}
}
