package synth

import (
	"fmt"
	"math/rand"

	"repro/internal/engine"
	"repro/internal/trec"
)

// CorpusSpec parameterizes the synthetic ClueWeb-B/TREC-testbed generator.
// The defaults (DefaultCorpusSpec) mirror the TREC 2009 Web track
// Diversity Task shape at laptop scale: 50 topics with 3–8 sub-topics and
// sub-topic-level judgements.
type CorpusSpec struct {
	Seed            int64
	NumTopics       int // number of ambiguous/faceted topics
	MinSubtopics    int // inclusive
	MaxSubtopics    int // inclusive
	DocsPerSubtopic int // relevant documents generated per sub-topic
	// GenericDocsPerTopic are documents about the topic (they contain the
	// head term, so the ambiguous query retrieves them) that serve *no*
	// specific sub-topic — the generic pages that crowd real ambiguous
	// SERPs. They are judged non-relevant at sub-topic level.
	GenericDocsPerTopic int
	NoiseDocs           int // background documents relevant to nothing
	DocLength           int // mean document length in tokens
	// SearchedFrac is the probability that a sub-topic is ever searched
	// by users (appears in query logs with non-zero popularity). TREC
	// sub-topics are assessor-identified; real logs only reveal the
	// readings users actually refine to, and that gap is what separates
	// relevance-aware diversifiers from pure-coverage ones. The two most
	// popular sub-topics of each topic are always searched (a topic needs
	// ≥ 2 specializations to be ambiguous). 0 means the default 0.8;
	// pass a value ≥ 1 to make every sub-topic searched.
	SearchedFrac    float64
	BackgroundVocab int // size of the shared background vocabulary
	TopicVocab      int // topic-specific terms per topic
	SubtopicVocab   int // sub-topic-specific terms per sub-topic
}

// DefaultCorpusSpec returns the configuration used by the effectiveness
// experiments (Table 3 shape at reduced scale).
func DefaultCorpusSpec() CorpusSpec {
	return CorpusSpec{
		Seed:                1,
		NumTopics:           50,
		MinSubtopics:        3,
		MaxSubtopics:        8,
		DocsPerSubtopic:     40,
		GenericDocsPerTopic: 40,
		NoiseDocs:           2000,
		DocLength:           60,
		BackgroundVocab:     3000,
		TopicVocab:          25,
		SubtopicVocab:       15,
	}
}

func (c CorpusSpec) withDefaults() CorpusSpec {
	d := DefaultCorpusSpec()
	if c.NumTopics == 0 {
		c.NumTopics = d.NumTopics
	}
	if c.MinSubtopics == 0 {
		c.MinSubtopics = d.MinSubtopics
	}
	if c.MaxSubtopics == 0 {
		c.MaxSubtopics = d.MaxSubtopics
	}
	if c.DocsPerSubtopic == 0 {
		c.DocsPerSubtopic = d.DocsPerSubtopic
	}
	// 0 means "default"; pass a negative value for "no generic documents".
	if c.GenericDocsPerTopic == 0 {
		c.GenericDocsPerTopic = d.GenericDocsPerTopic
	}
	if c.GenericDocsPerTopic < 0 {
		c.GenericDocsPerTopic = 0
	}
	if c.DocLength == 0 {
		c.DocLength = d.DocLength
	}
	if c.BackgroundVocab == 0 {
		c.BackgroundVocab = d.BackgroundVocab
	}
	if c.TopicVocab == 0 {
		c.TopicVocab = d.TopicVocab
	}
	if c.SubtopicVocab == 0 {
		c.SubtopicVocab = d.SubtopicVocab
	}
	if c.SearchedFrac == 0 {
		c.SearchedFrac = 0.8
	}
	if c.SearchedFrac > 1 {
		c.SearchedFrac = 1
	}
	return c
}

// Testbed bundles everything the effectiveness experiments need: the
// corpus, the diversity topics with their sub-topics, the sub-topic-level
// qrels, and the query strings (topic query = the ambiguous query;
// sub-topic queries = its specializations).
type Testbed struct {
	Spec   CorpusSpec
	Docs   []engine.Document
	Topics trec.Topics
	Qrels  *trec.Qrels
	// SubtopicQuery[topicID][subtopicID] is the specialization query that
	// targets one sub-topic (head term + sub-topic terms). Subtopic IDs
	// are 1-based as in TREC qrels.
	SubtopicQuery map[int]map[int]string
	// SubtopicPopularity[topicID][subtopicID] is the ground-truth user
	// interest P(q'|q) the log generator follows (Zipf over sub-topics).
	SubtopicPopularity map[int]map[int]float64
}

// TopicQuery returns the ambiguous query string of a topic.
func (tb *Testbed) TopicQuery(topicID int) string {
	t, _ := tb.Topics.ByID(topicID)
	return t.Query
}

// GenerateTestbed builds the full synthetic testbed deterministically from
// the spec. Document language model per (topic t, sub-topic s):
// the topic head term (which also IS the ambiguous query) appears in every
// document of the topic, sub-topic terms dominate, topic terms are shared
// across the topic's sub-topics, and background terms (Zipf-distributed)
// fill the remainder — so an ambiguous query retrieves a sub-topic-mixed
// result list, while a specialization query retrieves its own sub-topic's
// documents, exactly the structure the paper's method exploits.
func GenerateTestbed(spec CorpusSpec) *Testbed {
	spec = spec.withDefaults()
	rng := rand.New(rand.NewSource(spec.Seed))
	background := NewZipf(spec.BackgroundVocab, 1.0)

	tb := &Testbed{
		Spec:               spec,
		Qrels:              trec.NewQrels(),
		SubtopicQuery:      make(map[int]map[int]string),
		SubtopicPopularity: make(map[int]map[int]float64),
	}

	// Background words are drawn about a million times a testbed; each is
	// formatted once.
	bgWords := make([]string, len(background.cdf))
	for i := range bgWords {
		bgWords[i] = fmt.Sprintf("bg%04d", i)
	}
	bgWord := func(i int) string { return bgWords[i] }

	for t := 1; t <= spec.NumTopics; t++ {
		head := fmt.Sprintf("topic%02d", t)
		nSubs := spec.MinSubtopics
		if spec.MaxSubtopics > spec.MinSubtopics {
			nSubs += rng.Intn(spec.MaxSubtopics - spec.MinSubtopics + 1)
		}
		topic := trec.Topic{
			ID:          t,
			Query:       head,
			Description: fmt.Sprintf("Synthetic ambiguous topic %d with %d intents.", t, nSubs),
		}
		topicTerms := make([]string, spec.TopicVocab)
		for i := range topicTerms {
			topicTerms[i] = fmt.Sprintf("t%02dw%02d", t, i)
		}

		tb.SubtopicQuery[t] = make(map[int]string, nSubs)
		tb.SubtopicPopularity[t] = make(map[int]float64, nSubs)
		// Searched sub-topics: the first two always, the rest with
		// probability SearchedFrac. Popularity is Zipf over the searched
		// set only; unsearched sub-topics never appear in logs.
		var searched []int
		for s := 1; s <= nSubs; s++ {
			if s <= 2 || rng.Float64() < spec.SearchedFrac {
				searched = append(searched, s)
			}
		}
		popularity := NewZipf(len(searched), 1.0)
		for rank, s := range searched {
			tb.SubtopicPopularity[t][s] = popularity.Prob(rank)
		}

		for s := 1; s <= nSubs; s++ {
			subTerms := make([]string, spec.SubtopicVocab)
			for i := range subTerms {
				subTerms[i] = fmt.Sprintf("t%02ds%02dw%02d", t, s, i)
			}
			topic.Subtopics = append(topic.Subtopics, trec.Subtopic{
				ID:          s,
				Type:        "inf",
				Description: fmt.Sprintf("Intent %d of topic %d.", s, t),
			})
			// Specialization query: head + two sub-topic terms, so the
			// lexical IsSpecialization predicate holds.
			tb.SubtopicQuery[t][s] = fmt.Sprintf("%s %s %s", head, subTerms[0], subTerms[1])

			// Mainstream intents own the head of the ambiguous SERP on the
			// real web: pages serving the popular reading use the query
			// term heavily, pages serving niche readings barely mention
			// it. Scaling the head-term rate by the intent's popularity
			// reproduces that skew — without it the synthetic DPH baseline
			// would be accidentally diverse and diversification would have
			// nothing to add (the paper's motivating observation, §2).
			headScale := 0.5 + 1.1*tb.SubtopicPopularity[t][s]
			for d := 0; d < spec.DocsPerSubtopic; d++ {
				id := fmt.Sprintf("doc-t%02d-s%02d-%03d", t, s, d)
				body := composeDoc(rng, varyLength(rng, spec.DocLength), head, headScale, topicTerms, subTerms, background, bgWord)
				tb.Docs = append(tb.Docs, engine.Document{
					ID:    id,
					Title: fmt.Sprintf("%s %s", head, subTerms[0]),
					Body:  body,
				})
				tb.Qrels.Add(t, s, id, 1)
				// A small fraction of documents genuinely serve two
				// intents, as on the real web.
				if d%7 == 3 && s > 1 {
					other := 1 + rng.Intn(nSubs)
					if other != s {
						tb.Qrels.Add(t, other, id, 1)
					}
				}
			}
		}
		// Generic topic pages: head + topic + background vocabulary only,
		// no sub-topic terms, no sub-topic judgement.
		for g := 0; g < spec.GenericDocsPerTopic; g++ {
			id := fmt.Sprintf("doc-t%02d-gen-%03d", t, g)
			u := rng.Float64()
			headRate := 0.04 + 0.14*u*u
			genLen := varyLength(rng, spec.DocLength)
			words := make([]string, 0, genLen)
			for len(words) < genLen {
				r := rng.Float64()
				switch {
				case r < headRate:
					words = append(words, head)
				case r < headRate+0.20:
					words = append(words, topicTerms[rng.Intn(len(topicTerms))])
				default:
					words = append(words, bgWord(background.Sample(rng)))
				}
			}
			tb.Docs = append(tb.Docs, engine.Document{
				ID:    id,
				Title: head + " overview",
				Body:  join(words),
			})
		}
		tb.Topics = append(tb.Topics, topic)
	}

	for i := 0; i < spec.NoiseDocs; i++ {
		id := fmt.Sprintf("doc-noise-%05d", i)
		words := make([]string, varyLength(rng, spec.DocLength))
		for j := range words {
			words[j] = bgWord(background.Sample(rng))
		}
		tb.Docs = append(tb.Docs, engine.Document{
			ID:    id,
			Title: "noise",
			Body:  join(words),
		})
	}
	return tb
}

// composeDoc draws one sub-topic document: a per-document head-term rate
// (heavy-tailed between 3% and 15%, so retrieval scores for the ambiguous
// query spread realistically instead of clustering), ~60% sub-topic terms,
// ~12% topic terms, remainder background. The small topic-term share keeps
// cross-sub-topic snippet similarity low, as on real web text where pages
// about different readings of a query share little beyond the query term.
func composeDoc(rng *rand.Rand, length int, head string, headScale float64, topicTerms, subTerms []string, background *Zipf, bgWord func(int) string) string {
	u := rng.Float64()
	headRate := (0.03 + 0.12*u*u) * headScale
	if headRate > 0.20 {
		headRate = 0.20
	}
	words := make([]string, 0, length)
	for len(words) < length {
		r := rng.Float64()
		switch {
		case r < headRate:
			words = append(words, head)
		case r < headRate+0.60:
			words = append(words, subTerms[rng.Intn(len(subTerms))])
		case r < headRate+0.72:
			words = append(words, topicTerms[rng.Intn(len(topicTerms))])
		default:
			words = append(words, bgWord(background.Sample(rng)))
		}
	}
	return join(words)
}

// varyLength draws a document length around the mean: uniform in
// [0.6·mean, 1.6·mean]. Constant-length documents would collapse the
// single-term DPH score distribution into a few tf plateaus, where ranking
// ties hide the relevance signal the diversifiers mix with.
func varyLength(rng *rand.Rand, mean int) int {
	if mean <= 1 {
		return mean
	}
	l := int(float64(mean) * (0.6 + rng.Float64()))
	if l < 1 {
		l = 1
	}
	return l
}

func join(words []string) string {
	n := 0
	for _, w := range words {
		n += len(w) + 1
	}
	b := make([]byte, 0, n)
	for i, w := range words {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, w...)
	}
	return string(b)
}
