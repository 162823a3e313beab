package router

import (
	"context"
	"testing"
)

// TestScoreAllocations holds the router's side of a scatter to what it
// keeps: Searcher.Score over two shards served on loopback, for a topic
// one shard answers and for one both shards answer, then Close. The
// count includes the worker and net/http on both ends, which allocate
// the same on every run; the request frame, the merge's working space
// and the winners come from the scatter's one allocation and pooled
// scratch. The worker's own half — the shard search, the walk and the
// encoded frame, without net/http — allocates nothing: its lists and the
// hit it walks with are the pooled retrieval's.
func TestScoreAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratch at random")
	}
	p := testPipeline(t)
	s := localWorkers(t, p, Config{})
	ctx := context.Background()
	dict := p.Engine.Dictionary()
	k := p.Config.NumCandidates
	for _, c := range []struct {
		query   string
		shards  int // shards whose list for the query is not empty
		ceiling float64
	}{
		// Measured 221 and 222 (228 and 230 before the worker's pooled
		// lists and hit; 290 and 292 before the request frame, the single
		// attempt context and the pooled merge); ceilings +10 %.
		{p.Testbed.TopicQuery(1), 1, 243},
		{p.Testbed.TopicQuery(5), 2, 244},
	} {
		answering := 0
		for si := 0; si < 2; si++ {
			sh, err := p.Engine.SearchShard(ctx, si, []string{c.query}, []int{k})
			if err != nil {
				t.Fatal(err)
			}
			if sh.Len(0) > 0 {
				answering++
			}
			sh.Close()
		}
		if answering != c.shards {
			t.Fatalf("%q is answered by %d shards, want %d", c.query, answering, c.shards)
		}
		queries, ks := []string{c.query}, []int{k}
		score := func() {
			sc, err := s.Score(ctx, dict, queries, ks, true)
			if err != nil {
				t.Fatal(err)
			}
			sc.Close()
		}
		score() // warm the connections and pools
		if n := testing.AllocsPerRun(200, score); n > c.ceiling {
			t.Errorf("Score %q (%d shards answer): %v allocations a call, ceiling %v", c.query, c.shards, n, c.ceiling)
		} else {
			t.Logf("Score %q (%d shards answer): %v allocations a call (ceiling %v)", c.query, c.shards, n, c.ceiling)
		}

		// The worker row: 3 or 4 a search before (a *ShardHits, the
		// walk's hit, the lists and their copy); 0 measured, and 1 of
		// slack for a pool a collection emptied mid-run.
		for si := 0; si < 2; si++ {
			for _, kind := range []Payload{PayloadNone, PayloadTerms} {
				req := ShardSearchRequest{Shard: si, Queries: queries, Ks: ks, Payload: kind}
				enc := new(frameEncoder)
				search := func() {
					if err := encodeShard(ctx, enc, p.Engine, &req); err != nil {
						t.Fatal(err)
					}
				}
				search()
				if n := testing.AllocsPerRun(200, search); n > 1 {
					t.Errorf("worker %q shard %d payload %v: %v allocations a search, ceiling 1", c.query, si, kind, n)
				} else {
					t.Logf("worker %q shard %d payload %v: %v allocations a search (ceiling 1)", c.query, si, kind, n)
				}
			}
		}
	}
}
