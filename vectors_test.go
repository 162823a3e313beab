package repro_test

import (
	"context"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro"
	"repro/internal/router"
	"repro/internal/textsim"
)

// TestScratchVectorsMatchKept is the vector differential of the bounded
// selection's scratch: for every candidate of every topic, on
// servedWorld and deepWorld, through the local engine and through the
// router over two shard workers, the vector built into one slab reset
// before every candidate — as OptSelectBounded builds it — must equal the
// vector carved into a slab the caller keeps (read again after Close,
// once every other candidate's has been carved beside it) and
// IVectorOfText of the snippet the reference route returns.
func TestScratchVectorsMatchKept(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the serving benchmark's worlds")
	}
	ctx := context.Background()
	for _, world := range []struct {
		name string
		cfg  repro.Config
	}{{"served", servedWorld()}, {"deep", deepWorld()}} {
		cfg := world.cfg
		cfg.Engine.Shards = 2
		p, err := repro.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(router.NewWorker(p.Engine).Handler())
		remote, err := router.NewSearcher(router.Config{Shards: [][]router.ReplicaSpec{{{URL: ts.URL}}, {{URL: ts.URL}}}})
		if err != nil {
			t.Fatal(err)
		}
		remote.ProbeOnce(ctx)
		dict := p.Engine.Dictionary()
		for side, s := range map[string]repro.Searcher{"local": repro.LocalSearcher(p.Engine), "routed": remote} {
			checked := 0
			for _, topic := range p.Testbed.Topics {
				queries, ks := []string{topic.Query}, []int{cfg.NumCandidates}
				ref, err := s.SearchBatch(ctx, queries, ks)
				if err != nil {
					t.Fatal(err)
				}
				sc, err := s.Score(ctx, dict, queries, ks, true)
				if err != nil {
					t.Fatal(err)
				}
				hits := sc.Lists[0]
				if len(hits) != len(ref[0]) {
					t.Fatalf("%s/%s %q: %d candidates scored, %d retrieved", world.name, side, topic.Query, len(hits), len(ref[0]))
				}
				var kept, scratch textsim.Slab
				keptVecs := make([]textsim.IVector, len(hits))
				for j := range hits {
					if keptVecs[j], err = sc.Vector(0, j, &kept); err != nil {
						t.Fatal(err)
					}
					scratch.Reset()
					v, err := sc.Vector(0, j, &scratch)
					if err != nil {
						t.Fatal(err)
					}
					if want := p.Engine.IVectorOfText(ref[0][j].Snippet); hits[j].DocID != ref[0][j].DocID || !reflect.DeepEqual(v, want) || !reflect.DeepEqual(keptVecs[j], want) {
						t.Fatalf("%s/%s %q #%d (%s): scratch %+v, kept %+v, IVectorOfText(snippet of %s) %+v",
							world.name, side, topic.Query, j, hits[j].DocID, v, keptVecs[j], ref[0][j].DocID, want)
					}
				}
				sc.Close()
				for j, v := range keptVecs {
					if want := p.Engine.IVectorOfText(ref[0][j].Snippet); !reflect.DeepEqual(v, want) {
						t.Fatalf("%s/%s %q #%d: after Close, kept vector %+v, want %+v", world.name, side, topic.Query, j, v, want)
					}
				}
				checked += len(hits)
			}
			t.Logf("%s/%s: %d candidates of %d topics", world.name, side, checked, len(p.Testbed.Topics))
		}
		ts.Close()
	}
}
