package engine

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/index"
	"repro/internal/ranking"
	"repro/internal/text"
)

// shardCorpus is a larger synthetic corpus so shard sweeps get
// non-trivial document ranges.
func shardCorpus(n int) []Document {
	rng := rand.New(rand.NewSource(41))
	vocab := []string{"apple", "leopard", "tank", "mac", "pie", "army", "cat",
		"africa", "recipe", "armor", "desktop", "savanna", "crust", "cannon"}
	docs := make([]Document, n)
	for i := range docs {
		w := make([]string, rng.Intn(30)+5)
		for j := range w {
			w[j] = vocab[rng.Intn(len(vocab))]
		}
		docs[i] = Document{ID: fmt.Sprintf("doc%03d", i), Body: strings.Join(w, " ")}
	}
	return docs
}

// TestSearchShardSweepBitIdentical: the same corpus built at shard counts
// 1/2/4/7 must answer every query with deeply equal results (ranks,
// float64 score bits, snippets).
func TestSearchShardSweepBitIdentical(t *testing.T) {
	docs := shardCorpus(60)
	base, err := Build(docs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{"apple pie recipe", "leopard tank", "savanna cat africa", "apple apple mac", "nosuchterm"}
	for _, shards := range []int{1, 2, 4, 7} {
		e, err := Build(docs, Config{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if e.Segments().NumShards() != shards {
			t.Fatalf("shards=%d: NumShards = %d", shards, e.Segments().NumShards())
		}
		for _, q := range queries {
			want := base.Search(q, 20)
			got := e.Search(q, 20)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("shards=%d q=%q:\n got %+v\nwant %+v", shards, q, got, want)
			}
		}
	}
}

// TestSearchBatchMatchesSearch: one scatter-gather round must equal
// per-query Search, including per-query k limits and empty queries.
func TestSearchBatchMatchesSearch(t *testing.T) {
	e, err := Build(shardCorpus(60), Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{"apple pie", "leopard tank army", "", "mac desktop", "cat africa savanna"}
	ks := []int{15, 5, 5, 0, 3}
	batch, err := e.SearchBatch(context.Background(), queries, ks)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		want := e.Search(q, ks[i])
		if !reflect.DeepEqual(batch[i], want) {
			t.Fatalf("query %d (%q):\n got %+v\nwant %+v", i, q, batch[i], want)
		}
	}
}

func TestSearchCtxCanceled(t *testing.T) {
	e, err := Build(shardCorpus(40), Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := e.SearchStamped(ctx, "apple pie", 10); err == nil {
		t.Fatal("canceled context: want error")
	}
}

// TestSaveLoadKeepsShardManifest: the base image's shard partition must
// survive the engine round trip, Config.Shards must override it, and
// search results must be bit-identical either way.
func TestSaveLoadKeepsShardManifest(t *testing.T) {
	e, err := Build(shardCorpus(50), Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	stream := buf.Bytes()

	loaded, err := Load(bytes.NewReader(stream), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Segments().NumShards() != 4 {
		t.Fatalf("manifest shards = %d, want 4", loaded.Segments().NumShards())
	}
	reshard, err := Load(bytes.NewReader(stream), Config{Shards: 7})
	if err != nil {
		t.Fatal(err)
	}
	if reshard.Segments().NumShards() != 7 {
		t.Fatalf("override shards = %d, want 7", reshard.Segments().NumShards())
	}
	for _, q := range []string{"apple pie", "leopard tank", "savanna"} {
		want := e.Search(q, 10)
		if got := loaded.Search(q, 10); !reflect.DeepEqual(got, want) {
			t.Errorf("loaded engine differs on %q", q)
		}
		if got := reshard.Search(q, 10); !reflect.DeepEqual(got, want) {
			t.Errorf("resharded engine differs on %q", q)
		}
	}
}

// TestPruningBitIdenticalAndPersisted covers the engine-level MaxScore
// contract: engines prune at every shard count and answer exactly as
// exhaustive scoring (ranking.Retrieve) does, the max-score tables survive
// a save/load round trip, and an index image written without tables gets
// them computed at load.
func TestPruningBitIdenticalAndPersisted(t *testing.T) {
	docs := shardCorpus(80)
	analyzer := text.NewAnalyzer()
	queries := []string{"apple pie recipe", "leopard tank", "apple apple mac", "nosuchterm"}
	for _, shards := range []int{1, 2, 4, 7} {
		pruning, err := Build(docs, Config{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if !ranking.Pruneable(pruning.Index(), pruning.Model()) {
			t.Fatalf("shards=%d: the default DPH engine cannot prune", shards)
		}
		for _, q := range queries {
			got := pruning.Search(q, 20)
			want := ranking.Retrieve(pruning.Index(), pruning.Model(), analyzer.Tokens(q), 20)
			if len(got) != len(want) {
				t.Fatalf("shards=%d q=%q: %d results, exhaustive %d", shards, q, len(got), len(want))
			}
			for i, h := range want {
				if got[i].DocID != pruning.Index().DocID(h.Doc) || got[i].Score != h.Score {
					t.Fatalf("shards=%d q=%q rank %d: got %s %v, exhaustive %s %v",
						shards, q, i+1, got[i].DocID, got[i].Score, pruning.Index().DocID(h.Doc), h.Score)
				}
			}
		}
	}

	// Save/load keeps the tables (no rebuild needed) and the answers.
	built, err := Build(docs, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := built.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !ranking.Pruneable(loaded.Index(), loaded.Model()) {
		t.Fatal("loaded engine lost pruning")
	}
	if !reflect.DeepEqual(loaded.Index().MaxScoreKeys(), built.Index().MaxScoreKeys()) {
		t.Fatalf("table keys did not round-trip: %v vs %v",
			loaded.Index().MaxScoreKeys(), built.Index().MaxScoreKeys())
	}
	for _, q := range queries {
		if !reflect.DeepEqual(loaded.Search(q, 20), built.Search(q, 20)) {
			t.Fatalf("loaded engine diverged on %q", q)
		}
	}

	// An image without tables (an index built outside the engine) gets
	// them computed when it is opened.
	b := index.NewBuilder()
	for _, d := range docs {
		toks, lens := analyze(analyzer, docText{title: d.Title, body: d.Body}, nil, nil)
		if err := b.AddFields(d.ID, toks, lens); err != nil {
			t.Fatal(err)
		}
	}
	bare := b.BuildSegmented(2)
	if ranking.Pruneable(bare.Index(), ranking.DPH{}) {
		t.Fatal("a bare builder's index already carries tables")
	}
	path := filepath.Join(t.TempDir(), "bare.ridx7")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bare.WriteMapped(f, func(d int32) string { return docText{body: docs[d].Body}.payload() }); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	rebuilt, err := OpenIndexFile(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer rebuilt.Close()
	if !ranking.Pruneable(rebuilt.Index(), rebuilt.Model()) {
		t.Fatal("opening did not compute the missing max-score tables")
	}
	for _, q := range queries {
		if !reflect.DeepEqual(rebuilt.Search(q, 20), built.Search(q, 20)) {
			t.Fatalf("rebuilt-table engine diverged on %q", q)
		}
	}
}
