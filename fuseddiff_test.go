package repro

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/ranking"
	"repro/internal/synth"
)

// stagedReference computes the staged-plan SERP with a per-query k
// override — the ground truth every fused cell is byte-compared against.
func stagedReference(problem *core.Problem, alg core.Algorithm, k int) []core.Selected {
	problem.K = k
	if len(problem.Specs) == 0 {
		return core.Baseline(problem)
	}
	return core.Diversify(alg, problem)
}

// fusedPlan is the execution plan Engine.SearchFusedStamped runs for the
// reference problem's query: the pipeline's parameters and the problem's
// R_q′ lists as the aspects, the way benchmark/trace.go assembles it.
func fusedPlan(pipe *Pipeline, problem *core.Problem, alg core.Algorithm, k int) *exec.Plan {
	return &exec.Plan{
		Mode: exec.ModeFused, Query: problem.Query, Alg: alg, K: k,
		NumCandidates: pipe.Config.NumCandidates, Lambda: pipe.Config.Lambda, Threshold: pipe.Config.Threshold,
		Aspects: problem.Specs, Lex: pipe.Engine.Lexicon(),
	}
}

// TestFusedDifferentialSweep is the fused-operator acceptance gate: across
// weighting models × algorithms × k × shard counts × storage layouts,
// Engine.SearchFusedStamped (one Block-Max MaxScore scan carrying the
// per-specialization heaps, surrogates counted out of the forward index)
// must produce output bit-identical to the staged reference built from
// Pipeline.BuildProblem's snippet strings — same IDs, ranks, normalized
// relevances, interned surrogate vectors, and selection scores, via
// reflect.DeepEqual. The second half holds the serving route to
// Pipeline.Diversify over the same lattice, cold and warm, quiesced and
// mid-mutation. CI runs it as its own named step, like the mutation and
// mapped sweeps.
func TestFusedDifferentialSweep(t *testing.T) {
	models := []ranking.Model{ranking.DPH{}, ranking.BM25{}, ranking.TFIDF{}, ranking.LMDirichlet{}}
	algs := []core.Algorithm{core.AlgOptSelect, core.AlgXQuAD, core.AlgIASelect, core.AlgMMR}
	ksweep := []int{10, 100}

	for _, m := range models {
		for _, shards := range []int{1, 4} {
			heapCfg := tinyConfig(42)
			heapCfg.Engine = engine.Config{Model: m, Shards: shards}
			heapPipe, err := Build(heapCfg)
			if err != nil {
				t.Fatal(err)
			}

			// The mapped twin serves the very same logical index from a
			// RIDX7 file mapping (the serve -index -mmap shape).
			path := writeMappedPipeline(t, heapPipe)
			mapped, err := engine.OpenIndexFile(path, engine.Config{Model: m, Shards: shards, Mmap: true})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { mapped.Close() })
			mapCfg := heapCfg
			mapCfg.PrebuiltEngine = mapped
			mapPipe, err := Build(mapCfg)
			if err != nil {
				t.Fatal(err)
			}

			for _, tc := range []struct {
				storage string
				pipe    *Pipeline
			}{{"heap", heapPipe}, {"mapped", mapPipe}} {
				tc := tc
				name := fmt.Sprintf("%s/shards=%d/%s", m.Name(), shards, tc.storage)
				t.Run(name, func(t *testing.T) {
					sweepPipeline(t, tc.pipe, algs, ksweep)
				})
			}
		}
	}
}

// sweepPipeline byte-compares fused vs staged over every testbed topic
// query (ambiguous ones exercise the fused operator; unambiguous ones
// check it degenerates to the identical baseline).
func sweepPipeline(t *testing.T, pipe *Pipeline, algs []core.Algorithm, ksweep []int) {
	ctx := context.Background()
	ambiguous := 0
	for _, topic := range pipe.Testbed.Topics {
		q := topic.Query
		specs := pipe.DetectSpecializations(q)
		if len(specs) > 0 {
			ambiguous++
		}
		problem := pipe.BuildProblem(q, specs)
		for _, alg := range algs {
			for _, k := range ksweep {
				want := stagedReference(problem, alg, k)
				got, _, err := pipe.Engine.SearchFusedStamped(ctx, fusedPlan(pipe, problem, alg, k))
				if err != nil {
					t.Fatalf("%s q=%q alg=%s k=%d: %v", t.Name(), q, alg, k, err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("fused diverges from staged: q=%q alg=%s k=%d\nwant %+v\ngot  %+v",
						q, alg, k, want, got)
				}
			}
		}
	}
	if ambiguous == 0 {
		t.Fatal("no ambiguous topic queries — the sweep exercised nothing fused")
	}

	// The serving entry point against the uncached pipeline, on a cold
	// cache and a warm one: first over the quiesced index, then
	// mid-mutation — buffered and flushed documents with terms outside
	// the base dictionary, updates, tombstones — where surrogates come
	// from three sources' forward indexes through their translation
	// tables (and the fused operator declines: exec.ErrNotFusable). Both
	// passes run past the store's epoch, so a cold request builds its
	// artifacts.
	PastStore(t, pipe)
	serveMatchesDiversify(t, pipe, algs, "quiesced")
	mutateEngine(t, pipe)
	serveMatchesDiversify(t, pipe, algs, "mid-mutation")
	if _, _, err := pipe.Engine.SearchFusedStamped(ctx, fusedPlan(pipe, pipe.BuildProblem(pipe.Testbed.Topics[0].Query, nil), core.AlgOptSelect, 10)); !errors.Is(err, exec.ErrNotFusable) {
		t.Fatalf("fused scan over a mid-mutation snapshot: err = %v, want exec.ErrNotFusable", err)
	}
}

// serveMatchesDiversify byte-compares DiversifyServe — cold cache, then
// warm — with Pipeline.Diversify over every topic query and a noise query:
// documents, order, relevances, vectors and selection scores. OptSelect
// is served by the bounded selection, so equality alone would also pass
// with its bounds silently off: the handle's counters must show it
// scored fewer candidates than it saw, and the other algorithms all.
func serveMatchesDiversify(t *testing.T, pipe *Pipeline, algs []core.Algorithm, state string) {
	t.Helper()
	ctx := context.Background()
	queries := []string{"noise query 0002"}
	for _, topic := range pipe.Testbed.Topics {
		queries = append(queries, topic.Query)
	}
	for _, alg := range algs {
		h := pipe.NewServeHandle(64, 2)
		for _, q := range queries {
			want, wantSpecs := pipe.Diversify(q, alg)
			for round, wantHit := range []bool{false, true} {
				got, gotSpecs, hit, _, err := h.DiversifyServe(ctx, q, alg, 0)
				if err != nil {
					t.Fatalf("%s %s q=%q alg=%s round %d: %v", t.Name(), state, q, alg, round, err)
				}
				if hit != wantHit {
					t.Fatalf("%s %s q=%q alg=%s round %d: cache hit = %v", t.Name(), state, q, alg, round, hit)
				}
				if !reflect.DeepEqual(want, got) || !reflect.DeepEqual(wantSpecs, gotSpecs) {
					t.Fatalf("%s %s: DiversifyServe diverges from Diversify: q=%q alg=%s round %d\nwant %+v\ngot  %+v",
						t.Name(), state, q, alg, round, want, got)
				}
			}
		}
		seen, evaluated, vectors := h.Work.CandidatesSeen.Load(), h.Work.CandidatesEvaluated.Load(), h.Work.VectorsBuilt.Load()
		switch {
		case seen == 0:
			t.Fatalf("%s %s alg=%s: no diversified request was counted", t.Name(), state, alg)
		case alg == core.AlgOptSelect && (evaluated >= seen || vectors != evaluated):
			t.Fatalf("%s %s: OptSelect scored %d of %d candidates and built %d vectors — the bound never fired", t.Name(), state, evaluated, seen, vectors)
		case alg != core.AlgOptSelect && vectors != seen:
			t.Fatalf("%s %s alg=%s: %d vectors for %d candidates; only OptSelect may skip any", t.Name(), state, alg, vectors, seen)
		}
	}
}

// mutateEngine leaves the pipeline's engine in the middle of its
// lifecycle: a flushed segment, a non-empty memtable, superseded sealed
// copies and tombstones, all touching documents the topic queries
// retrieve.
func mutateEngine(t *testing.T, pipe *Pipeline) {
	t.Helper()
	docs, eng := synth.GenerateTestbed(pipe.Config.Corpus).Docs, pipe.Engine
	ingest := func(d engine.Document) {
		t.Helper()
		if _, err := eng.Ingest(d); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		src := docs[(i*13)%len(docs)]
		switch i % 4 {
		case 0: // a new document with a term no dictionary has seen
			ingest(engine.Document{ID: fmt.Sprintf("live-%02d", i), Title: src.Title, Body: fmt.Sprintf("zz%dfresh %s aa%dfresh", i, src.Body, i)})
		case 1: // an update of a sealed document
			ingest(engine.Document{ID: src.ID, Title: src.Title, Body: src.Body + fmt.Sprintf(" rewritten mm%dfresh", i)})
		case 2:
			eng.Delete(src.ID)
		case 3: // a new document that is a plain copy
			ingest(engine.Document{ID: fmt.Sprintf("live-%02d", i), Title: src.Title, Body: src.Body})
		}
		if i == 7 {
			if _, err := eng.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st := eng.Live(); st.Segments < 2 || st.MemDocs == 0 || st.Shadowed == 0 {
		t.Fatalf("engine not mid-mutation: %+v", st)
	}
}
