package trec

import "sort"

// RunEntry is one line of a TREC run: a retrieved document for a topic.
type RunEntry struct {
	Topic int
	DocID string
	Rank  int // 1-based
	Score float64
	Tag   string // system identifier
}

// Run maps topics to their ranked result lists.
type Run struct {
	byTopic map[int][]RunEntry
}

// NewRun returns an empty run.
func NewRun() *Run { return &Run{byTopic: make(map[int][]RunEntry)} }

// Add appends an entry to its topic's list; entries must be added in
// rank order.
func (r *Run) Add(e RunEntry) {
	r.byTopic[e.Topic] = append(r.byTopic[e.Topic], e)
}

// AddRanking appends a whole ranked list of document IDs for a topic,
// assigning ranks 1..n and descending synthetic scores when none are
// provided.
func (r *Run) AddRanking(topic int, docIDs []string, tag string) {
	for i, d := range docIDs {
		r.Add(RunEntry{
			Topic: topic,
			DocID: d,
			Rank:  i + 1,
			Score: float64(len(docIDs) - i),
			Tag:   tag,
		})
	}
}

// Topics returns the sorted topic IDs present in the run.
func (r *Run) Topics() []int {
	out := make([]int, 0, len(r.byTopic))
	for t := range r.byTopic {
		out = append(out, t)
	}
	sort.Ints(out)
	return out
}

// Ranking returns the ranked document IDs for a topic.
func (r *Run) Ranking(topic int) []string {
	entries := r.byTopic[topic]
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = e.DocID
	}
	return out
}

// Entries returns the raw entries for a topic (rank order).
func (r *Run) Entries(topic int) []RunEntry { return r.byTopic[topic] }
