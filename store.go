package repro

import (
	"context"

	"repro/internal/suggest"
	"repro/internal/text"
	"repro/internal/textsim"
)

// artifactStore is the paper's §4.1 store: the artifacts of every mined
// ambiguous query — its specializations and their R_q′ lists, as an
// aspect index — built once, offline, by Build. It is stamped with the
// engine epoch its lists were retrieved at and serves only while the
// engine is there; a mutation leaves every query to the lazy path (the
// handle's LRU and singleflight). Nothing changes it after Build, so
// requests read it without a lock, and copies of a Pipeline share it.
type artifactStore struct {
	epoch uint64
	arts  map[string]*queryArtifacts
}

// get returns the stored artifacts of norm when the store was built at
// epoch.
func (s *artifactStore) get(epoch uint64, norm string) (*queryArtifacts, bool) {
	if s == nil || s.epoch != epoch {
		return nil, false
	}
	art, ok := s.arts[norm]
	return art, ok
}

// buildStore runs Algorithm 1 on every query the recommender has direct
// session evidence for and builds the artifacts of the ambiguous ones
// with the builder a miss uses. All their R_q′ lists come from one
// batched retrieval on the local engine: a routed pipeline's engine is
// the same world as its shards', so the store needs no shard to be up.
// A failed batch stores nothing.
func (p *Pipeline) buildStore() *artifactStore {
	var norms []string
	var verdicts [][]suggest.Specialization
	var queries []string
	var ks []int
	for _, q := range p.Recommender.Queries() {
		norm := text.NormalizeQuery(q)
		specs := p.DetectSpecializations(norm)
		if len(specs) == 0 {
			continue
		}
		norms, verdicts = append(norms, norm), append(verdicts, specs)
		for _, s := range specs {
			queries, ks = append(queries, s.Query), append(ks, p.Config.PerSpec)
		}
	}
	c, err := p.Engine.Candidates(context.Background(), queries, ks)
	if err != nil {
		return nil
	}
	defer c.Close()
	s := &artifactStore{epoch: c.Epoch, arts: make(map[string]*queryArtifacts, len(norms))}
	first := 0
	for i, norm := range norms {
		specs := verdicts[i]
		vector := func(q, j int, slab *textsim.Slab) (textsim.IVector, error) {
			return c.Vector(first+q, j, slab), nil
		}
		art, err := newArtifacts(specs, c.Lists[first:first+len(specs)], vector)
		if err != nil {
			return nil
		}
		s.arts[norm] = art
		first += len(specs)
	}
	return s
}
