package repro

import (
	"testing"

	"repro/internal/engine"
)

// What the external tests (package repro_test, which may import the
// router, itself an importer of this package) read of the artifact store
// and the lazy artifact builder.

// StoredArtifacts returns the epoch p's store was built at and its
// artifacts by normalized query.
func StoredArtifacts(p *Pipeline) (uint64, map[string]*queryArtifacts) {
	if p.store == nil {
		return 0, nil
	}
	return p.store.epoch, p.store.arts
}

// LazyArtifacts builds norm's artifacts as a miss on h does, through its
// pipeline's Searcher.
func LazyArtifacts(h *ServeHandle, norm string) (*queryArtifacts, bool, error) {
	return h.buildArtifacts(norm)
}

// BuildStore builds p's store again, apart from the one p holds.
func BuildStore(p *Pipeline) any { return p.buildStore() }

// PastStore moves p's engine past the epoch its store was built at
// without changing any answer — it ingests a document and deletes it
// again, which leaves the engine quiescent — so every request takes the
// lazy path, the LRU and singleflight, as a query the store lacks does.
func PastStore(t testing.TB, p *Pipeline) {
	t.Helper()
	const id = "past-the-store"
	if _, err := p.Engine.Ingest(engine.Document{ID: id, Title: "past", Body: "past the store"}); err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Engine.Delete(id); !ok {
		t.Fatalf("deleting %s missed", id)
	}
	if p.store != nil && p.store.epoch == p.Engine.Epoch() {
		t.Fatal("the engine is still at the store's epoch")
	}
}
