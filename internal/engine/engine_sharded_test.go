package engine

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
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
// contract: pruned and exhaustive engines answer identically at every
// shard count, the max-score tables survive a save/load round trip, and
// a stream written without tables gets them rebuilt at load time.
func TestPruningBitIdenticalAndPersisted(t *testing.T) {
	docs := shardCorpus(80)
	exhaustive, err := Build(docs, Config{DisablePruning: true})
	if err != nil {
		t.Fatal(err)
	}
	if exhaustive.PruningEnabled() {
		t.Fatal("DisablePruning engine reports pruning enabled")
	}
	if keys := exhaustive.Index().MaxScoreKeys(); len(keys) != 0 {
		t.Fatalf("DisablePruning build computed tables %v", keys)
	}
	queries := []string{"apple pie recipe", "leopard tank", "apple apple mac", "nosuchterm"}
	for _, shards := range []int{1, 2, 4, 7} {
		pruning, err := Build(docs, Config{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if !pruning.PruningEnabled() {
			t.Fatalf("shards=%d: pruning not enabled for the default DPH engine", shards)
		}
		for _, q := range queries {
			want := exhaustive.Search(q, 20)
			got := pruning.Search(q, 20)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("shards=%d q=%q:\n got %+v\nwant %+v", shards, q, got, want)
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
	if !loaded.PruningEnabled() {
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

	// A tableless epoch file (written by a DisablePruning build) rebuilds
	// its tables on load.
	var bare bytes.Buffer
	if err := exhaustive.SaveTo(&bare); err != nil {
		t.Fatal(err)
	}
	rebuilt, err := Load(&bare, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !rebuilt.PruningEnabled() {
		t.Fatal("load did not rebuild the missing max-score tables")
	}
	for _, q := range queries {
		if !reflect.DeepEqual(rebuilt.Search(q, 20), exhaustive.Search(q, 20)) {
			t.Fatalf("rebuilt-table engine diverged on %q", q)
		}
	}
}
