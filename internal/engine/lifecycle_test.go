package engine_test

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ranking"
	"repro/internal/synth"
	"repro/internal/textsim"
)

// TestSaveLoadLifecycleRoundTrip: a mid-lifecycle engine — a base
// segment, a flushed segment, tombstones and a buffered memtable — saved
// and loaded serves exactly what it served before: the same epoch and
// lifecycle counters, the same Search and Candidates output (surrogate
// vectors included), the same diversified SERP under every algorithm,
// and a forward index that agrees with body analysis. Every loaded sealed
// segment serves the forward index its image carried; only the memtable
// is analyzed at load. It lives here because the pipeline imports engine.
func TestSaveLoadLifecycleRoundTrip(t *testing.T) {
	cfg := repro.Config{
		Corpus: synth.CorpusSpec{
			Seed: 3, NumTopics: 5, MinSubtopics: 2, MaxSubtopics: 3,
			DocsPerSubtopic: 8, GenericDocsPerTopic: 4, NoiseDocs: 60,
			DocLength: 40, BackgroundVocab: 300, TopicVocab: 10, SubtopicVocab: 8,
		},
		Log:           synth.AOLLike(4, 2500),
		Engine:        engine.Config{Shards: 2, MemtableCap: -1},
		NumCandidates: 100,
		PerSpec:       10,
		K:             10,
	}
	pipe, err := repro.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, docs := pipe.Engine, synth.GenerateTestbed(pipe.Config.Corpus).Docs
	must := func(_ uint64, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	// A flushed segment of superseding and new documents, a tombstone
	// sealed with it, then a tombstone and buffered documents after it.
	for _, d := range docs[:6] {
		d.Body += " " + docs[len(docs)-1].Body
		must(e.Ingest(d))
	}
	must(e.Ingest(engine.Document{ID: "fresh-1", Title: pipe.Testbed.Topics[0].Query, Body: docs[8].Body}))
	e.Delete(docs[10].ID)
	must(e.Flush())
	e.Delete(docs[11].ID)
	e.Delete(docs[0].ID) // a document whose live copy is in the flushed segment
	must(e.Ingest(engine.Document{ID: "fresh-2", Body: docs[12].Body + " " + docs[13].Body}))
	must(e.Ingest(engine.Document{ID: docs[20].ID, Title: "again", Body: docs[20].Body}))
	if live := e.Live(); live.Segments != 2 || live.MemDocs != 2 || live.Tombstones != 3 || live.Shadowed == 0 {
		t.Fatalf("fixture is not mid-lifecycle: %+v", live)
	}

	var buf bytes.Buffer
	if err := e.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := engine.Load(bytes.NewReader(buf.Bytes()), cfg.Engine)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	engine.CheckSealedFromImages(t, loaded)

	if loaded.Epoch() != e.Epoch() {
		t.Fatalf("epoch %d, want %d", loaded.Epoch(), e.Epoch())
	}
	got, want := loaded.Live(), e.Live()
	got.Flushes, got.Compactions = want.Flushes, want.Compactions // process-lifetime counters
	if got != want {
		t.Fatalf("lifecycle after load %+v, want %+v", got, want)
	}

	var queries []string
	for _, topic := range pipe.Testbed.Topics {
		queries = append(queries, topic.Query)
		for _, sq := range pipe.Testbed.SubtopicQuery[topic.ID] {
			queries = append(queries, sq)
		}
	}
	queries = append(queries, synth.NoiseQuery(0), "never seen before")
	ks := make([]int, len(queries)) // 0: every match
	for i := range ks {
		ks[i] = 10 * (i % 3)
	}
	wantRes, err := e.SearchBatch(context.Background(), queries, ks)
	if err != nil {
		t.Fatal(err)
	}
	gotRes, err := loaded.SearchBatch(context.Background(), queries, ks)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotRes, wantRes) {
		t.Fatal("SearchBatch differs after load")
	}
	candidates := func(e *engine.Engine) ([][]ranking.Hit, [][]textsim.IVector) {
		t.Helper()
		c, err := e.Candidates(context.Background(), queries, ks)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		var slab textsim.Slab
		vecs := make([][]textsim.IVector, len(c.Lists))
		for q, list := range c.Lists {
			for j := range list {
				vecs[q] = append(vecs[q], c.Vector(q, j, &slab))
			}
		}
		return c.Lists, vecs
	}
	gotLists, gotVecs := candidates(loaded)
	wantLists, wantVecs := candidates(e)
	if !reflect.DeepEqual(gotLists, wantLists) || !reflect.DeepEqual(gotVecs, wantVecs) {
		t.Fatal("Candidates (or their surrogate vectors) differ after load")
	}

	reloaded := *pipe
	reloaded.Engine = loaded
	for _, topic := range pipe.Testbed.Topics {
		for _, alg := range core.Algorithms {
			wantSel, _ := pipe.Diversify(topic.Query, alg)
			gotSel, _ := reloaded.Diversify(topic.Query, alg)
			if !reflect.DeepEqual(gotSel, wantSel) {
				t.Fatalf("Diversify(%q, %s) differs after load:\n got %v\nwant %v", topic.Query, alg, core.IDs(gotSel), core.IDs(wantSel))
			}
		}
	}
	engine.CheckForward(t, "loaded", loaded, queries)
}
