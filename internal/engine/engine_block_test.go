package engine

import (
	"bytes"
	"testing"

	"repro/internal/index"
)

// buildAtBlockSize is Build with the base segment's postings in blocks of
// bs (index.Builder.SetBlockSize) — the engine itself exposes no layout
// knob, so this is how its tests put block boundaries elsewhere.
func buildAtBlockSize(t *testing.T, docs []Document, cfg Config, bs int) *Engine {
	t.Helper()
	cfg = cfg.withDefaults()
	sb := newSegmentBuilder(cfg.Analyzer, len(docs))
	sb.b.SetBlockSize(bs)
	for _, d := range docs {
		if err := sb.add(d.ID, docText{title: d.Title, body: d.Body}); err != nil {
			t.Fatal(err)
		}
	}
	seg, raw := sb.build(cfg.Shards)
	return newEngine(cfg, seg, raw)
}

// TestBlockLayoutConfig pins the one posting layout: a build is block-
// compressed at index.DefaultBlockSize with block-max tables installed,
// and search output does not depend on the block size.
func TestBlockLayoutConfig(t *testing.T) {
	def := buildEngine(t)
	if def.Index().BlockSize() != index.DefaultBlockSize {
		t.Fatalf("default layout: BlockSize=%d", def.Index().BlockSize())
	}
	if keys := def.Index().BlockMaxKeys(); len(keys) == 0 {
		t.Error("default build installed no block-max tables")
	}
	tuned := buildAtBlockSize(t, smallCorpus(), Config{}, 4)
	if tuned.Index().BlockSize() != 4 {
		t.Fatalf("block size 4 built %d", tuned.Index().BlockSize())
	}
	sameResults(t, def.Search("leopard apple", 10), tuned.Search("leopard apple", 10), "block size 4")
}

// TestSaveLoadPreservesLayout round-trips the block size and the shard
// partition through engine persistence, and exercises the load-time
// shard override.
func TestSaveLoadPreservesLayout(t *testing.T) {
	src := buildAtBlockSize(t, smallCorpus(), Config{Shards: 2}, 4)
	var buf bytes.Buffer
	if err := src.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	stream := buf.Bytes()

	// Zero-value config keeps the image's block size and partition.
	kept, err := Load(bytes.NewReader(stream), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if kept.Index().BlockSize() != 4 || kept.Segments().NumShards() != 2 {
		t.Fatalf("kept layout: block size %d, %d shards", kept.Index().BlockSize(), kept.Segments().NumShards())
	}
	if keys := kept.Index().BlockMaxKeys(); len(keys) == 0 {
		t.Error("loaded image carries no block-max tables")
	}
	// An explicit shard count re-partitions the same postings.
	resharded, err := Load(bytes.NewReader(stream), Config{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if resharded.Index().BlockSize() != 4 || resharded.Segments().NumShards() != 3 {
		t.Fatalf("resharded: block size %d, %d shards", resharded.Index().BlockSize(), resharded.Segments().NumShards())
	}
	want := src.Search("leopard apple", 10)
	sameResults(t, want, kept.Search("leopard apple", 10), "kept")
	sameResults(t, want, resharded.Search("leopard apple", 10), "resharded")
}

// TestEmptyEngineRoundTrip pins the degenerate save/load cycle: an index
// with zero blocks writes zero-entry block-max tables and the reader must
// accept them.
func TestEmptyEngineRoundTrip(t *testing.T) {
	src, err := Build(nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := src.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()), Config{})
	if err != nil {
		t.Fatalf("empty engine round trip: %v", err)
	}
	if n := loaded.NumDocs(); n != 0 {
		t.Fatalf("loaded %d docs from an empty engine", n)
	}
	if got := loaded.Search("anything", 10); len(got) != 0 {
		t.Fatalf("empty engine returned %d results", len(got))
	}
}

// TestOversizedBlockSizeRoundTrip pins the clamp: a block size beyond
// the image reader's range is clamped at build time (regression: it used
// to build and save an index whose own stream could not be read back).
func TestOversizedBlockSizeRoundTrip(t *testing.T) {
	src := buildAtBlockSize(t, smallCorpus(), Config{}, index.MaxBlockSize+1)
	if got := src.Index().BlockSize(); got != index.MaxBlockSize {
		t.Fatalf("oversized block size built %d, want clamp to %d", got, index.MaxBlockSize)
	}
	var buf bytes.Buffer
	if err := src.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()), Config{})
	if err != nil {
		t.Fatalf("clamped stream failed to load: %v", err)
	}
	if got := loaded.Index().BlockSize(); got != index.MaxBlockSize {
		t.Fatalf("loaded block size %d, want %d", got, index.MaxBlockSize)
	}
}
