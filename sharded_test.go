package repro

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/core"
)

// buildTinySharded builds the tiny pipeline with the engine partitioned
// into the given number of index segments — same corpus, same seeds.
func buildTinySharded(t testing.TB, shards int) *Pipeline {
	t.Helper()
	cfg := tinyConfig(42)
	cfg.Engine.Shards = shards
	p, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestDiversifyShardSweepBitIdentical is the end-to-end acceptance
// differential: at every shard count the full pipeline — retrieval,
// utilities, selection — must reproduce the single-index SERP exactly,
// document for document and score bit for score bit.
func TestDiversifyShardSweepBitIdentical(t *testing.T) {
	base := buildTiny(t)
	queries := []string{"topic01", "topic02", "noise query 0002"}
	algs := []core.Algorithm{core.AlgOptSelect, core.AlgXQuAD, core.AlgIASelect}
	for _, shards := range []int{1, 2, 4, 7} {
		p := buildTinySharded(t, shards)
		if got := p.Engine.Segments().NumShards(); got != shards {
			t.Fatalf("pipeline engine has %d shards, want %d", got, shards)
		}
		for _, q := range queries {
			for _, alg := range algs {
				want, wantSpecs := base.Diversify(q, alg)
				got, gotSpecs := p.Diversify(q, alg)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("shards=%d %s %q: SERP differs\n got %v\nwant %v",
						shards, alg, q, core.IDs(got), core.IDs(want))
				}
				if !reflect.DeepEqual(gotSpecs, wantSpecs) {
					t.Fatalf("shards=%d %s %q: specs differ", shards, alg, q)
				}
			}
		}
	}
}

// TestDiversifyCachedShardedMatches runs the serving path on a sharded
// pipeline: hit and miss answers must both equal the unsharded
// Diversify.
func TestDiversifyCachedShardedMatches(t *testing.T) {
	base := buildTiny(t)
	p := buildTinySharded(t, 4)
	PastStore(t, p)
	h := p.NewServeHandle(64, 4)
	for _, q := range []string{"topic01", "noise query 0002"} {
		want, _ := base.Diversify(q, core.AlgOptSelect)
		for pass := 0; pass < 2; pass++ { // miss then hit
			got, _, hit := serve(t, h, q, core.AlgOptSelect)
			if hit != (pass == 1) {
				t.Fatalf("%q pass %d: hit=%v", q, pass, hit)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%q pass %d: cached sharded SERP differs", q, pass)
			}
		}
	}
}

// TestDiversifyCachedCtxCanceled: a canceled request context must abort
// the per-request retrieval with an error on both the miss and the hit
// path, and must NOT poison the shared artifact cache for later
// requests.
func TestDiversifyCachedCtxCanceled(t *testing.T) {
	p := buildTinySharded(t, 4)
	h := p.NewServeHandle(64, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, _, _, _, err := h.DiversifyServe(ctx, "topic01", core.AlgOptSelect, 0); err == nil {
		t.Fatal("canceled miss: want error")
	}
	// The artifact build ran under Background despite the canceled
	// request: the next (healthy) request hits the cache and serves the
	// same SERP an uncanceled pipeline produces.
	want, _ := p.Diversify("topic01", core.AlgOptSelect)
	got, _, hit, _, err := h.DiversifyServe(context.Background(), "topic01", core.AlgOptSelect, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Error("artifacts not cached by the canceled request's build")
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("post-cancel SERP differs")
	}
	if _, _, _, _, err := h.DiversifyServe(ctx, "topic01", core.AlgOptSelect, 0); err == nil {
		t.Fatal("canceled hit: want error")
	}
}
