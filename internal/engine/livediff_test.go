package engine

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/ranking"
	"repro/internal/textsim"
)

// The generative mutation differential: random interleavings of ingest,
// update, delete, flush and compact against the live engine, mirrored in
// a trivial shadow model (surviving documents in last-write order). After
// quiescing (a final compaction), the live engine must be bit-identical
// to a batch Build over the shadow — retrieval (exhaustive, pruned and
// sharded), search results with scores and snippets, and the downstream
// diversification — across weighting models, shard counts and ks.
// Mid-run, membership is checked: a unique per-document token finds its
// document iff the shadow says it is alive.

// shadowCorpus is the reference model: documents in last-write order,
// updates move to the end — the order Build would be fed.
type shadowCorpus struct {
	order []string
	docs  map[string]Document
}

func newShadow() *shadowCorpus {
	return &shadowCorpus{docs: make(map[string]Document)}
}

func (s *shadowCorpus) upsert(d Document) {
	if _, ok := s.docs[d.ID]; ok {
		for i, id := range s.order {
			if id == d.ID {
				s.order = append(s.order[:i], s.order[i+1:]...)
				break
			}
		}
	}
	s.order = append(s.order, d.ID)
	s.docs[d.ID] = d
}

func (s *shadowCorpus) remove(id string) bool {
	if _, ok := s.docs[id]; !ok {
		return false
	}
	delete(s.docs, id)
	for i, oid := range s.order {
		if oid == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	return true
}

func (s *shadowCorpus) list() []Document {
	out := make([]Document, len(s.order))
	for i, id := range s.order {
		out[i] = s.docs[id]
	}
	return out
}

var liveVocab = []string{
	"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta",
	"iota", "kappa", "lambda", "mu", "nu", "xi", "omicron", "pi",
	"rho", "sigma", "tau", "upsilon",
}

// liveDoc builds a deterministic document: a handful of vocabulary words
// plus a token unique to the document ID, so membership is probeable.
func liveDoc(rng *rand.Rand, id string, rev int) Document {
	n := 5 + rng.Intn(8)
	body := fmt.Sprintf("uniq%s rev%d", id, rev)
	for i := 0; i < n; i++ {
		body += " " + liveVocab[rng.Intn(len(liveVocab))]
	}
	return Document{ID: id, Title: "doc " + id, Body: body}
}

// applyLiveOps drives one seeded interleaving against engine and shadow.
func applyLiveOps(t *testing.T, e *Engine, sh *shadowCorpus, rng *rand.Rand, nextID *int, ops int) {
	t.Helper()
	for op := 0; op < ops; op++ {
		switch roll := rng.Intn(100); {
		case roll < 35: // ingest a new document
			id := fmt.Sprintf("d%04d", *nextID)
			*nextID++
			d := liveDoc(rng, id, 0)
			if _, err := e.Ingest(d); err != nil {
				t.Fatalf("op %d: ingest %s: %v", op, id, err)
			}
			sh.upsert(d)
		case roll < 55: // update an existing document
			if len(sh.order) == 0 {
				continue
			}
			id := sh.order[rng.Intn(len(sh.order))]
			d := liveDoc(rng, id, 1+rng.Intn(9))
			if _, err := e.Ingest(d); err != nil {
				t.Fatalf("op %d: update %s: %v", op, id, err)
			}
			sh.upsert(d)
		case roll < 72: // delete (sometimes a miss on purpose)
			id := fmt.Sprintf("d%04d", rng.Intn(*nextID+2))
			_, deleted := e.Delete(id)
			if want := sh.remove(id); deleted != want {
				t.Fatalf("op %d: delete %s reported %v, shadow %v", op, id, deleted, want)
			}
		case roll < 88: // flush
			if _, err := e.Flush(); err != nil {
				t.Fatalf("op %d: flush: %v", op, err)
			}
		default: // compact
			if _, err := e.Compact(); err != nil {
				t.Fatalf("op %d: compact: %v", op, err)
			}
		}

		if got, want := e.NumDocs(), len(sh.order); got != want {
			t.Fatalf("op %d: NumDocs = %d, shadow has %d", op, got, want)
		}
		if op%10 == 9 {
			probeMembership(t, e, sh, rng, *nextID)
			// Mid-mutation, not only quiesced: every source's forward
			// index — base, flushed segments, memtable view — against
			// body analysis, and Candidates against Search.
			CheckForward(t, fmt.Sprintf("op %d", op), e, []string{
				liveVocab[0], liveVocab[7] + " " + liveVocab[12], "uniqd0003 uniqd0031", "rev1 doc",
			})
		}
	}
}

// probeMembership checks a present and an absent document through the
// live search path via their unique tokens.
func probeMembership(t *testing.T, e *Engine, sh *shadowCorpus, rng *rand.Rand, nextID int) {
	t.Helper()
	if len(sh.order) > 0 {
		id := sh.order[rng.Intn(len(sh.order))]
		res := e.Search("uniq"+id, 5)
		found := false
		for _, r := range res {
			if r.DocID == id {
				found = true
			}
		}
		if !found {
			t.Fatalf("live doc %s not found via its unique token (got %+v)", id, res)
		}
	}
	// Any ID outside the shadow must be unfindable — deleted or never born.
	for tries := 0; tries < 4; tries++ {
		id := fmt.Sprintf("d%04d", rng.Intn(nextID+4))
		if _, alive := sh.docs[id]; alive {
			continue
		}
		for _, r := range e.Search("uniq"+id, 5) {
			if r.DocID == id {
				t.Fatalf("dead doc %s resurfaced in search results", id)
			}
		}
	}
}

// diffProblem builds a diversification problem from an engine's own
// search output — candidates from the main query, two specialization
// lists — entirely through exported API, so the live and batch engines
// can be compared end to end through core.Diversify.
func diffProblem(e *Engine, query string, k int) *core.Problem {
	results := e.Search(query, 20)
	cands := make([]core.Doc, len(results))
	maxScore := 1.0
	if len(results) > 0 {
		maxScore = results[0].Score
	}
	for i, r := range results {
		cands[i] = core.Doc{
			ID:   r.DocID,
			Rank: r.Rank,
			Rel:  r.Score / maxScore,
			IVec: e.IVectorOfText(r.Snippet),
		}
	}
	specs := make([]core.Specialization, 0, 2)
	for si, sq := range []string{liveVocab[0] + " " + liveVocab[1], liveVocab[2]} {
		sres := e.Search(sq, 10)
		sr := make([]core.SpecResult, len(sres))
		for i, r := range sres {
			sr[i] = core.SpecResult{ID: r.DocID, Rank: r.Rank, IVec: e.IVectorOfText(r.Snippet)}
		}
		specs = append(specs, core.Specialization{Query: sq, Prob: 0.6 - 0.2*float64(si), Results: sr})
	}
	return &core.Problem{
		Query:      query,
		Candidates: cands,
		Specs:      specs,
		K:          k,
		Lambda:     0.15,
		Threshold:  0.30,
		Lex:        e.Lexicon(),
	}
}

func TestLiveMutationDifferentialSweep(t *testing.T) {
	models := []struct {
		name  string
		model ranking.Model
	}{
		{"DPH", ranking.DPH{}},
		{"BM25", ranking.BM25{}},
		{"TFIDF", ranking.TFIDF{}},
		{"LMDirichlet", ranking.LMDirichlet{}},
	}
	queries := []string{
		liveVocab[0], liveVocab[3], liveVocab[7] + " " + liveVocab[12],
		liveVocab[1] + " " + liveVocab[1] + " " + liveVocab[5], "unindexedword",
	}
	for _, m := range models {
		for _, shards := range []int{1, 4} {
			for _, k := range []int{10, 100} {
				t.Run(fmt.Sprintf("%s/shards=%d/k=%d", m.name, shards, k), func(t *testing.T) {
					cfg := Config{Model: m.model, Shards: shards}
					seed := int64(shards*1000 + k)
					rng := rand.New(rand.NewSource(seed))

					sh := newShadow()
					var initial []Document
					nextID := 0
					for i := 0; i < 30; i++ {
						id := fmt.Sprintf("d%04d", nextID)
						nextID++
						d := liveDoc(rng, id, 0)
						initial = append(initial, d)
						sh.upsert(d)
					}
					live, err := Build(initial, cfg)
					if err != nil {
						t.Fatal(err)
					}

					applyLiveOps(t, live, sh, rng, &nextID, 50)

					// Quiesce, then rebuild the reference from the shadow.
					if _, err := live.Compact(); err != nil {
						t.Fatal(err)
					}
					batch, err := Build(sh.list(), cfg)
					if err != nil {
						t.Fatal(err)
					}

					if live.NumDocs() != batch.NumDocs() {
						t.Fatalf("NumDocs: live %d, batch %d", live.NumDocs(), batch.NumDocs())
					}
					for _, q := range queries {
						qTokens := cfg.withDefaults().Analyzer.Tokens(q)

						gotR := ranking.Retrieve(live.Index(), m.model, qTokens, k)
						wantR := ranking.Retrieve(batch.Index(), m.model, qTokens, k)
						if !reflect.DeepEqual(gotR, wantR) {
							t.Fatalf("query %q: Retrieve differs\nlive:  %+v\nbatch: %+v", q, gotR, wantR)
						}

						// The pruned batch entry point, over the base index as
						// one shard and over the engine's own partition.
						pruned := func(seg *index.Segmented) []ranking.Hit {
							res, err := ranking.RetrieveBatchOpts(context.Background(), seg, m.model, [][]string{qTokens}, []int{k}, ranking.BatchOptions{Prune: true})
							if err != nil {
								t.Fatal(err)
							}
							return res[0]
						}
						if !reflect.DeepEqual(pruned(index.SegmentIndex(live.Index(), 1)), pruned(index.SegmentIndex(batch.Index(), 1))) {
							t.Fatalf("query %q: pruned one-shard retrieval differs", q)
						}
						if !reflect.DeepEqual(pruned(live.Segments()), pruned(batch.Segments())) {
							t.Fatalf("query %q: sharded retrieval differs", q)
						}

						gotRes := live.Search(q, k)
						wantRes := batch.Search(q, k)
						if !reflect.DeepEqual(gotRes, wantRes) {
							t.Fatalf("query %q: Search differs\nlive:  %+v\nbatch: %+v", q, gotRes, wantRes)
						}
					}

					// Downstream diversification: identical problems (the
					// quiesced dictionaries agree, so interned IDs agree) and
					// identical selections.
					for _, alg := range []core.Algorithm{core.AlgOptSelect, core.AlgXQuAD} {
						gotSel := core.Diversify(alg, diffProblem(live, liveVocab[0], 5))
						wantSel := core.Diversify(alg, diffProblem(batch, liveVocab[0], 5))
						// The problems carry different *Lexicon pointers; compare
						// the selections' value content.
						if !selectedEqual(gotSel, wantSel) {
							t.Fatalf("alg %s: diversified selection differs\nlive:  %+v\nbatch: %+v", alg, gotSel, wantSel)
						}
					}
				})
			}
		}
	}
}

// selectedEqual compares selections by value: IDs, ranks, relevances,
// scores, and interned vectors (IDs and weights).
func selectedEqual(a, b []core.Selected) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Rank != b[i].Rank ||
			a[i].Rel != b[i].Rel || a[i].Score != b[i].Score {
			return false
		}
		if !ivecEqual(a[i].IVec, b[i].IVec) {
			return false
		}
	}
	return true
}

func ivecEqual(a, b textsim.IVector) bool {
	return reflect.DeepEqual(a.IDs, b.IDs) && reflect.DeepEqual(a.Weights, b.Weights) && a.Norm() == b.Norm()
}

// TestLiveUpdateOrderMatchesBatch pins the delete+append ordering: after
// updating and re-ingesting across flush boundaries, internal doc order
// of the quiesced index equals the shadow's last-write order exactly.
func TestLiveUpdateOrderMatchesBatch(t *testing.T) {
	cfg := Config{}
	docs := []Document{
		{ID: "a", Body: "alpha beta"},
		{ID: "b", Body: "gamma delta"},
		{ID: "c", Body: "epsilon zeta"},
	}
	e, err := Build(docs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustIngest := func(d Document) {
		t.Helper()
		if _, err := e.Ingest(d); err != nil {
			t.Fatal(err)
		}
	}
	mustIngest(Document{ID: "a", Body: "alpha rewritten"}) // a moves last
	if _, err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, deleted := e.Delete("b"); !deleted {
		t.Fatal("delete b missed")
	}
	mustIngest(Document{ID: "d", Body: "eta theta"})
	mustIngest(Document{ID: "c", Body: "epsilon rewritten"}) // c moves last
	if _, err := e.Compact(); err != nil {
		t.Fatal(err)
	}

	idx := e.Index()
	var order []string
	for d := int32(0); d < int32(idx.NumDocs()); d++ {
		order = append(order, idx.DocID(d))
	}
	want := []string{"a", "d", "c"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("quiesced doc order %v, want %v", order, want)
	}
	if e.Snippet("b", "gamma") != "" {
		t.Fatal("deleted doc b still has a snippet")
	}
	if got := e.Snippet("c", "epsilon"); got != "epsilon rewritten" {
		t.Fatalf("snippet of updated c = %q", got)
	}
}
