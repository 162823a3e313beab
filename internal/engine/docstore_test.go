package engine

import (
	"bytes"
	"context"
	"fmt"
	"testing"
)

// TestDocIDMapBuiltOnFirstUse: a source's docID → number map is built on
// its first Ordinal, not with the source. A quiesced engine — built,
// loaded, mapped or compacted — serves SearchBatch, Candidates with
// vectors and SearchShard without building it; the first Ingest, which
// must know whether a sealed copy exists, does. Once built, the map
// inverts idx.DocID on every kind of source.
func TestDocIDMapBuiltOnFirstUse(t *testing.T) {
	docs := smallCorpus()
	cfg := Config{Shards: 2, SnippetWindow: 6}
	built, err := Build(docs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(saveBytes(t, built)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	mcfg := cfg
	mcfg.Mmap = true
	mapped, err := OpenIndexFile(writeMappedEngine(t, built), mcfg)
	if err != nil {
		t.Fatal(err)
	}
	compacted, err := Build(docs[:2], cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs[2:] {
		if _, err := compacted.Ingest(d); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := compacted.Compact(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mapped.Close() })

	queries := []string{"leopard", "apple pie", "tank army"}
	ks := []int{0, 3, 2}
	ctx := context.Background()
	for name, e := range map[string]*Engine{"built": built, "loaded": loaded, "mapped": mapped, "compacted": compacted} {
		store := e.cur.Load().segs[0].docs
		if _, err := e.SearchBatch(ctx, queries, ks); err != nil {
			t.Fatal(err)
		}
		cands, err := e.Candidates(ctx, queries, ks)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(candidateVectors(cands)[0]); n != len(docs)-1 {
			t.Fatalf("%s: %d candidates for %q", name, n, queries[0])
		}
		cands.Close()
		for si := 0; si < e.Segments().NumShards(); si++ {
			shardWalk(t, e, si, queries[0], 0)
		}
		if store.byID != nil {
			t.Fatalf("%s: serving a quiesced engine built the docID map", name)
		}
		if _, err := e.Ingest(Document{ID: "fresh-" + name, Body: "leopard"}); err != nil {
			t.Fatal(err)
		}
		if store.byID == nil {
			t.Fatalf("%s: Ingest did not build the docID map", name)
		}
	}

	// A built base, a flushed segment and a memtable in one engine, and
	// the same state loaded back: every source's map inverts its index.
	live, err := Build(docs[:2], cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range docs[2:] {
		if _, err := live.Ingest(d); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if _, err := live.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	reloaded, err := Load(bytes.NewReader(saveBytes(t, live)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, e := range map[string]*Engine{"built+flushed+memtable": live, "loaded": reloaded, "mapped": mapped, "compacted": compacted} {
		st := e.snapshot()
		srcs := e.sources(st, st.mem.View())
		if len(srcs) < 2 {
			t.Fatalf("%s: %d sources", name, len(srcs))
		}
		for si, sg := range srcs {
			idx := sg.seg.Index()
			for d := int32(0); d < int32(idx.NumDocs()); d++ {
				if got, ok := sg.docs.Ordinal(idx.DocID(d)); !ok || got != d {
					t.Fatalf("%s: source %d: Ordinal(%q) = %d, %v; want %d", name, si, idx.DocID(d), got, ok, d)
				}
			}
			if _, ok := sg.docs.Ordinal(fmt.Sprint("absent-", si)); ok {
				t.Fatalf("%s: source %d: an absent ID has a number", name, si)
			}
		}
		st.unpin()
	}
}
