// Package trec models the TREC 2009 Web track Diversity Task testbed the
// paper evaluates on (§5, Appendix B): topics with 3–8 manually identified
// sub-topics, relevance judgements at sub-topic level (diversity qrels),
// and runs: ranked result lists per topic. Everything is held in memory;
// the synthetic testbed builds it, and internal/eval scores runs against
// it.
package trec

import "sort"

// Subtopic is one aspect of an ambiguous/faceted topic, e.g. for TREC
// topic 1 ("obama family tree"): "Where did Barack Obama's parents and
// grandparents come from?".
type Subtopic struct {
	ID          int    // 1-based within the topic
	Type        string // "inf" (informational) or "nav" (navigational)
	Description string
}

// Topic is one diversity-task topic.
type Topic struct {
	ID          int
	Query       string // the ambiguous/faceted query submitted to the engine
	Description string
	Subtopics   []Subtopic
}

// Topics is an ordered topic collection.
type Topics []Topic

// ByID returns the topic with the given ID.
func (ts Topics) ByID(id int) (Topic, bool) {
	for _, t := range ts {
		if t.ID == id {
			return t, true
		}
	}
	return Topic{}, false
}

// Qrels holds diversity-task relevance judgements: binary (or graded)
// relevance per (topic, subtopic, document).
type Qrels struct {
	// judgments[topic][subtopic][doc] = relevance (> 0 means relevant)
	judgments map[int]map[int]map[string]int
}

// NewQrels returns an empty judgement set.
func NewQrels() *Qrels {
	return &Qrels{judgments: make(map[int]map[int]map[string]int)}
}

// Add records a judgement. Later calls overwrite earlier ones for the same
// triple.
func (q *Qrels) Add(topic, subtopic int, docID string, rel int) {
	t := q.judgments[topic]
	if t == nil {
		t = make(map[int]map[string]int)
		q.judgments[topic] = t
	}
	s := t[subtopic]
	if s == nil {
		s = make(map[string]int)
		t[subtopic] = s
	}
	s[docID] = rel
}

// Rel returns the judgement for (topic, subtopic, docID); unjudged
// documents return 0.
func (q *Qrels) Rel(topic, subtopic int, docID string) int {
	return q.judgments[topic][subtopic][docID]
}

// Relevant reports whether the document is relevant (> 0) to the subtopic.
func (q *Qrels) Relevant(topic, subtopic int, docID string) bool {
	return q.Rel(topic, subtopic, docID) > 0
}

// RelevantToAny reports whether the document is relevant to at least one
// subtopic of the topic.
func (q *Qrels) RelevantToAny(topic int, docID string) bool {
	for _, sub := range q.judgments[topic] {
		if sub[docID] > 0 {
			return true
		}
	}
	return false
}

// Subtopics returns the sorted subtopic IDs judged for the topic.
func (q *Qrels) Subtopics(topic int) []int {
	subs := q.judgments[topic]
	out := make([]int, 0, len(subs))
	for s := range subs {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// Topics returns the sorted topic IDs present in the judgement set.
func (q *Qrels) Topics() []int {
	out := make([]int, 0, len(q.judgments))
	for t := range q.judgments {
		out = append(out, t)
	}
	sort.Ints(out)
	return out
}

// JudgedPool returns the sorted IDs of all documents judged (relevant to
// any subtopic) for the topic — the pool the ideal-gain computation of
// α-NDCG greedily selects from.
func (q *Qrels) JudgedPool(topic int) []string {
	set := make(map[string]bool)
	for _, sub := range q.judgments[topic] {
		for doc, rel := range sub {
			if rel > 0 {
				set[doc] = true
			}
		}
	}
	out := make([]string, 0, len(set))
	for doc := range set {
		out = append(out, doc)
	}
	sort.Strings(out)
	return out
}
