package engine

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestLiveConcurrentSearchMutate runs searches concurrently with ingests,
// deletes, flushes, compactions and their epoch swaps. Run under -race it
// is the data-race detector for the snapshot design; beyond that it
// asserts two consistency properties per result batch:
//
//   - Monotonic epochs: each reader's observed epoch stamp never goes
//     backwards (cur is swapped atomically, never torn).
//   - Delete visibility: once Delete(id) returns at epoch d, no search
//     stamped >= d may return id. (A search stamped earlier may — it ran
//     against an older snapshot, which is the documented semantics.)
func TestLiveConcurrentSearchMutate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var initial []Document
	for i := 0; i < 40; i++ {
		initial = append(initial, liveDoc(rng, fmt.Sprintf("d%04d", i), 0))
	}
	e, err := Build(initial, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}

	// deletedAt maps id -> epoch at which Delete returned true. An entry
	// is stored only AFTER Delete returns (so the bound is sound) and
	// removed BEFORE a re-ingest of the same id (so resurrection does not
	// trip the assertion).
	var deletedAt sync.Map
	stop := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // mutator
		defer wg.Done()
		defer close(stop)
		mrng := rand.New(rand.NewSource(11))
		nextID := 40
		for op := 0; op < 400; op++ {
			switch roll := mrng.Intn(100); {
			case roll < 40:
				id := fmt.Sprintf("d%04d", nextID)
				nextID++
				deletedAt.Delete(id)
				if _, err := e.Ingest(liveDoc(mrng, id, 0)); err != nil {
					t.Errorf("ingest %s: %v", id, err)
					return
				}
			case roll < 60:
				id := fmt.Sprintf("d%04d", mrng.Intn(nextID))
				deletedAt.Delete(id)
				if _, err := e.Ingest(liveDoc(mrng, id, 1+mrng.Intn(5))); err != nil {
					t.Errorf("update %s: %v", id, err)
					return
				}
			case roll < 80:
				id := fmt.Sprintf("d%04d", mrng.Intn(nextID))
				if epoch, ok := e.Delete(id); ok {
					deletedAt.Store(id, epoch)
				}
			case roll < 92:
				if _, err := e.Flush(); err != nil {
					t.Errorf("flush: %v", err)
					return
				}
			default:
				if _, err := e.Compact(); err != nil {
					t.Errorf("compact: %v", err)
					return
				}
			}
		}
	}()

	queries := []string{
		liveVocab[0], liveVocab[5], liveVocab[2] + " " + liveVocab[9], liveVocab[17],
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) { // reader
			defer wg.Done()
			var lastEpoch uint64
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				res, epoch, err := e.SearchStamped(context.Background(), queries[(r+i)%len(queries)], 20)
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				if epoch < lastEpoch {
					t.Errorf("reader %d: epoch went backwards: %d after %d", r, epoch, lastEpoch)
					return
				}
				lastEpoch = epoch
				for _, h := range res {
					if d, ok := deletedAt.Load(h.DocID); ok && epoch >= d.(uint64) {
						t.Errorf("reader %d: doc %s deleted at epoch %d returned by search stamped %d",
							r, h.DocID, d.(uint64), epoch)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()

	// Quiesce and sanity-check the survivors are still searchable.
	if _, err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	if e.NumDocs() == 0 {
		t.Fatal("all documents vanished")
	}
	stats := e.Live()
	if stats.Segments != 1 || stats.MemDocs != 0 || stats.Tombstones != 0 {
		t.Fatalf("not quiesced after final compact: %+v", stats)
	}
	if stats.LiveDocs != e.NumDocs() {
		t.Fatalf("LiveStats.LiveDocs %d != NumDocs %d", stats.LiveDocs, e.NumDocs())
	}
}

// TestForwardConcurrentSearchMutate searches the forward path from
// several goroutines while another ingests documents with terms outside
// the base dictionary, flushes and compacts — so memtable views, their
// cached translation tables, flushed segments' tables and the lexicon's
// overflow region are all built, read and retired concurrently. Run with
// -race -count=10. Each reader also checks, inside one pinned snapshot,
// that every retrieved document's surrogate vector is the vector of the
// snippet the same snapshot cuts for it.
func TestForwardConcurrentSearchMutate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var initial []Document
	for i := 0; i < 40; i++ {
		initial = append(initial, liveDoc(rng, fmt.Sprintf("d%04d", i), 0))
	}
	e, err := Build(initial, Config{Shards: 2, SnippetWindow: 6, MemtableCap: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // mutator
		defer wg.Done()
		defer close(stop)
		mrng := rand.New(rand.NewSource(5))
		for op := 0; op < 240; op++ {
			id := fmt.Sprintf("d%04d", mrng.Intn(80))
			switch roll := mrng.Intn(100); {
			case roll < 60:
				d := liveDoc(mrng, id, op)
				d.Body += fmt.Sprintf(" fresh%dterm zz%d", op, op%7) // lexicon overflow
				if _, err := e.Ingest(d); err != nil {
					t.Errorf("ingest %s: %v", id, err)
					return
				}
			case roll < 75:
				e.Delete(id)
			case roll < 92:
				if _, err := e.Flush(); err != nil {
					t.Errorf("flush: %v", err)
					return
				}
			default:
				if _, err := e.Compact(); err != nil {
					t.Errorf("compact: %v", err)
					return
				}
			}
		}
	}()

	queries := []string{liveVocab[0], liveVocab[5] + " zz3", liveVocab[2] + " " + liveVocab[9], "zz1 zz5 doc"}
	ks := []int{20, 20, 0, 20}
	ctx := context.Background()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) { // reader
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// The public entry points.
				cands, err := e.Candidates(ctx, queries, ks)
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				candidateVectors(cands)
				cands.Close()
				e.Snippet(fmt.Sprintf("d%04d", (r*17+i)%80), queries[i%len(queries)])

				// One snapshot, both halves: vector = vector of the snippet.
				st := e.snapshot()
				rt, err := e.retrieve(ctx, st, queries, ks)
				if err != nil {
					st.unpin()
					t.Errorf("reader %d: %v", r, err)
					return
				}
				for qi := range queries {
					rt.windows(ctx, qi, func(_ int, w hitWindow) {
						want := st.idf.InternTokens(st.lex, e.cfg.Analyzer.Tokens(w.snippet()))
						if !ivecEqual(w.vector(st.idf, nil), want) {
							t.Errorf("reader %d: doc %s: surrogate differs from its snippet's vector", r, w.DocID)
						}
					})
				}
				st.unpin()
				if t.Failed() {
					return
				}
			}
		}(r)
	}
	wg.Wait()
}
