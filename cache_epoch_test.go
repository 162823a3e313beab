package repro

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
)

// TestCachedArtifactsInvalidatedByEpoch is the staleness contract of the
// serving cache: artifacts are keyed by (engine epoch, query), so a
// mutation — here a delete of a document that was being served — must
// make the next request miss and recompute against the new snapshot. A
// deleted document must never resurface through a cached R_q′ list or a
// cached candidate set.
func TestCachedArtifactsInvalidatedByEpoch(t *testing.T) {
	p := buildTiny(t)
	PastStore(t, p)
	h := p.NewServeHandle(64, 2)
	q := p.Testbed.TopicQuery(1)

	sel, specs, hit := serve(t, h, q, core.AlgOptSelect)
	if hit {
		t.Fatal("cold lookup reported a hit")
	}
	if len(specs) == 0 || len(sel) == 0 {
		t.Fatalf("topic query %q not ambiguous (specs=%d, sel=%d); test is vacuous", q, len(specs), len(sel))
	}
	if _, _, hit = serve(t, h, q, core.AlgOptSelect); !hit {
		t.Fatal("warm lookup missed")
	}

	// Delete the top selected document. The epoch bumps, so the cached
	// epoch-N artifacts must not be served for the epoch-N+1 request.
	victim := sel[0].ID
	epochBefore := p.Engine.Epoch()
	if _, ok := p.Engine.Delete(victim); !ok {
		t.Fatalf("delete of served doc %s missed", victim)
	}
	if p.Engine.Epoch() <= epochBefore {
		t.Fatal("delete did not advance the epoch")
	}

	sel2, _, hit := serve(t, h, q, core.AlgOptSelect)
	if hit {
		t.Fatal("lookup after delete served stale epoch-N artifacts")
	}
	for _, s := range sel2 {
		if s.ID == victim {
			t.Fatalf("deleted doc %s resurfaced in the diversified SERP", victim)
		}
	}

	// The new epoch's entry is itself cacheable: next repeat hits again.
	if _, _, hit = serve(t, h, q, core.AlgOptSelect); !hit {
		t.Fatal("post-delete repeat missed; new epoch entry was not cached")
	}

	// Any further mutation — an ingest — invalidates again.
	if _, err := p.Engine.Ingest(engine.Document{ID: "fresh-doc", Title: "fresh", Body: "freshly streamed content"}); err != nil {
		t.Fatal(err)
	}
	if _, _, hit = serve(t, h, q, core.AlgOptSelect); hit {
		t.Fatal("lookup after ingest served stale artifacts")
	}

	st := h.CacheStats()
	if st.Hits != 2 || st.Misses != 3 {
		t.Errorf("hits/misses = %d/%d, want 2/3", st.Hits, st.Misses)
	}
}

// TestStoreYieldsToMutations is the staleness contract of Build's
// artifact store: it answers only at the epoch it was built at. After a
// delete or an ingest no stored artifact is served — every request misses
// into the lazy path and is Pipeline.Diversify's answer over the new
// snapshot — and the deleted document never resurfaces in any SERP.
func TestStoreYieldsToMutations(t *testing.T) {
	p := buildTiny(t)
	h := p.NewServeHandle(64, 2)
	var stored []string
	for _, topic := range p.Testbed.Topics {
		if _, ok := p.store.get(p.Engine.Epoch(), topic.Query); ok {
			stored = append(stored, topic.Query)
		}
	}
	if len(stored) == 0 {
		t.Fatal("the store holds no topic query; the test is vacuous")
	}
	q := stored[0]
	sel, _, hit := serve(t, h, q, core.AlgOptSelect)
	if !hit || h.StoreStats().Hits != 1 || h.CacheStats().Misses != 0 {
		t.Fatalf("first request for stored %q: hit %v, store %+v, cache %+v; want a store hit", q, hit, h.StoreStats(), h.CacheStats())
	}

	victim := sel[0].ID
	if _, ok := p.Engine.Delete(victim); !ok {
		t.Fatalf("delete of served doc %s missed", victim)
	}
	for _, q := range stored {
		got, _, hit := serve(t, h, q, core.AlgOptSelect)
		if hit {
			t.Fatalf("%q after a delete: hit; the store answered past its epoch", q)
		}
		want, _ := p.Diversify(q, core.AlgOptSelect)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q after a delete: SERP differs from Diversify", q)
		}
		for _, s := range got {
			if s.ID == victim {
				t.Fatalf("deleted doc %s resurfaced in the SERP of %q", victim, q)
			}
		}
	}

	if _, err := p.Engine.Ingest(engine.Document{ID: "fresh-doc", Title: "fresh " + q, Body: "freshly streamed content"}); err != nil {
		t.Fatal(err)
	}
	got, _, hit := serve(t, h, q, core.AlgOptSelect)
	if want, _ := p.Diversify(q, core.AlgOptSelect); hit || !reflect.DeepEqual(got, want) {
		t.Fatalf("%q after an ingest: hit %v, SERP equal to Diversify's %v; want a miss with its SERP", q, hit, reflect.DeepEqual(got, want))
	}
	if st := h.StoreStats(); st.Hits != 1 || st.Epoch == p.Engine.Epoch() {
		t.Errorf("store %+v after the mutations, want its one hit and an epoch behind the engine's %d", st, p.Engine.Epoch())
	}
}
