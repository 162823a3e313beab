package engine_test

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/synth"
)

// TestForwardMatchesBodyAnalysisOnTestbed runs the forward-path
// differential (engine.CheckForward: every document × every query,
// snippet text and surrogate vector bit-identical to body analysis) over
// a synthetic testbed and its topic and sub-topic queries, in every
// storage shape. It lives here because synth imports engine.
func TestForwardMatchesBodyAnalysisOnTestbed(t *testing.T) {
	tb := synth.GenerateTestbed(synth.CorpusSpec{
		Seed: 7, NumTopics: 5, MinSubtopics: 2, MaxSubtopics: 3,
		DocsPerSubtopic: 8, GenericDocsPerTopic: 4, NoiseDocs: 60,
		DocLength: 45, BackgroundVocab: 300, TopicVocab: 10, SubtopicVocab: 8,
	})
	var queries []string
	for _, topic := range tb.Topics {
		queries = append(queries, topic.Query)
		for _, sq := range tb.SubtopicQuery[topic.ID] {
			queries = append(queries, sq)
		}
	}
	queries = append(queries, synth.NoiseQuery(0), "never seen before")
	for name, e := range engine.ForwardVariants(t, tb.Docs, engine.Config{Shards: 2}) {
		engine.CheckForward(t, name, e, queries)
	}
}
