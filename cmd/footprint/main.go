// Command footprint reproduces the §4.1 feasibility analysis: it mines the
// ambiguous queries of a synthetic log, stores the R_q′ snippet surrogates
// for each specialization, and reports the measured memory footprint
// against the paper's back-of-the-envelope bound N·|S_q̂|·|R_q̂′|·L —
// beside what the retrieval tier itself holds: posting storage and the
// per-document forward index (total, per document, per token). It also
// sizes what a served artifact keeps for Definition 2, in total and per
// artifact: the R_q′ result vectors against the aspect index the serving
// cache stores in their place.
//
//	footprint                         # 30 topics, 8000 sessions
//	footprint -topics 50
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"repro"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/textsim"
)

// perList is |R_q'|, the surrogates stored per specialization (paper: 20).
const perList = 20

func main() {
	world := cli.World{Seed: 1, Topics: 30, Sessions: 8000}
	world.Register(flag.CommandLine)
	flag.Parse()

	pipe, err := repro.Build(repro.Config{Corpus: world.Corpus(), Log: world.Log()})
	if err != nil {
		fmt.Fprintln(os.Stderr, "footprint:", err)
		os.Exit(1)
	}

	store := engine.NewSurrogateStore()
	for _, topic := range pipe.Testbed.Topics {
		specs := pipe.DetectSpecializations(topic.Query)
		if len(specs) == 0 {
			continue
		}
		queries := make([]string, len(specs))
		for i, s := range specs {
			queries[i] = s.Query
		}
		store.PopulateFromEngine(pipe.Engine, topic.Query, queries, perList)
	}

	st := pipe.Engine.Index().Storage()
	fmt.Println("== retrieval-tier footprint: posting storage ==")
	fmt.Printf("posting layout:                     block-compressed (%d postings/block, %d blocks)\n", st.BlockSize, st.Blocks)
	fmt.Printf("postings:                           %d\n", st.Postings)
	fmt.Printf("posting bytes:                      %d (%.2f MiB, %.2f B/posting; a []Posting struct costs 8)\n",
		st.Bytes, float64(st.Bytes)/(1<<20), st.BytesPerPosting)
	fmt.Println()

	// The forward index is what the engine keeps per DOCUMENT so that no
	// body is analyzed at query time: the paper's stored surrogates in
	// their rawest form (every field's term numbers; the query-biased
	// window is cut from them per request). It sits next to the inverted
	// index it doubles and the §4.1 estimate below, which budgets only
	// the surrogates of the ambiguous queries' R_q′ lists.
	idx := pipe.Engine.Index()
	fwd, cs := idx.Forward().Bytes(), idx.Stats()
	fmt.Println("== retrieval-tier footprint: forward index ==")
	fmt.Printf("forward-index bytes:                %d (%.2f MiB, %.2fx the posting bytes)\n",
		fwd, float64(fwd)/(1<<20), float64(fwd)/float64(max(st.Bytes, 1)))
	fmt.Printf("per document / per token:           %.1f B / %.2f B (%d documents, %d analyzed tokens)\n",
		float64(fwd)/float64(max(cs.NumDocs, 1)), float64(fwd)/float64(max(cs.TotalTokens, 1)), cs.NumDocs, cs.TotalTokens)
	fmt.Println()

	// Mapped-vs-heap: size of the page-aligned RIDX7 image this engine
	// would serve in place, next to what the heap representation holds.
	// The mapped image bounds the resident set (pages fault in on
	// demand), and opening it decodes zero postings — the §4.1 estimate
	// sits beside both so the surrogate store can be budgeted against
	// either deployment.
	mappedBytes, err := pipe.Engine.WriteMappedTo(io.Discard)
	if err != nil {
		fmt.Fprintln(os.Stderr, "footprint: sizing mapped image:", err)
		os.Exit(1)
	}
	fmt.Println("== mapped-vs-heap index footprint ==")
	fmt.Printf("heap posting bytes:                 %d (%.2f MiB, decoded structures owned by the process)\n",
		st.Bytes, float64(st.Bytes)/(1<<20))
	fmt.Printf("mapped image bytes (RIDX7):         %d (%.2f MiB: postings + dictionary + doc store + score tables + forward index, page-aligned, served in place)\n",
		mappedBytes, float64(mappedBytes)/(1<<20))
	fmt.Println()

	a := measureArtifacts(pipe)
	fmt.Println("== served artifacts: what Definition 2 reads of R_q' ==")
	fmt.Printf("artifacts (ambiguous queries):      %d (%d results, %d postings)\n", a.artifacts, a.results, a.postings)
	fmt.Printf("R_q' surrogate vectors:             %d B (%.0f B per artifact, %.2f B/posting)\n",
		a.vectors, a.per(a.vectors), float64(a.vectors)/float64(max(a.postings, 1)))
	fmt.Printf("aspect index:                       %d B (%.0f B per artifact, %.2f B/posting)\n",
		a.aspects, a.per(a.aspects), float64(a.aspects)/float64(max(a.postings, 1)))
	fmt.Printf("index / vectors:                    %.3f\n", float64(a.aspects)/float64(max(a.vectors, 1)))
	fmt.Println()

	f := store.ComputeFootprint()
	fmt.Println("== §4.1 feasibility: surrogate-store footprint ==")
	fmt.Printf("ambiguous queries mined (N):        %d (of %d topics)\n", f.AmbiguousQueries, len(pipe.Testbed.Topics))
	fmt.Printf("max specializations (|S_q̂|):        %d\n", f.MaxSpecs)
	fmt.Printf("max surrogates per list (|R_q̂'|):   %d\n", f.MaxListLen)
	fmt.Printf("mean surrogate bytes (L):           %d\n", f.AvgSurrogateBytes)
	fmt.Printf("measured snippet bytes:             %d (%.2f MiB)\n", f.ActualBytes, float64(f.ActualBytes)/(1<<20))
	fmt.Printf("paper bound N*|S_q̂|*|R_q̂'|*L:       %d (%.2f MiB)\n", f.BoundBytes, float64(f.BoundBytes)/(1<<20))
	if f.BoundBytes >= f.ActualBytes {
		fmt.Println("bound holds: measured usage <= paper's estimate")
	} else {
		fmt.Println("WARNING: measured usage exceeds the paper's bound")
	}
}

// artifactBytes compares the two forms a served artifact can keep its
// R_q' lists' vectors in: one vector per result, or the one aspect index
// the serving cache builds instead. Both are live-heap deltas after a
// collection, so allocator size classes count as the cache pays them.
type artifactBytes struct {
	artifacts, results, postings int
	vectors, aspects             uint64
}

func (a artifactBytes) per(total uint64) float64 {
	return float64(total) / float64(max(a.artifacts, 1))
}

// measureArtifacts builds every ambiguous topic query's R_q' lists (the
// reference route's vectors, bit-identical to the served ones), then
// measures the heap an aspect index of each adds and the heap dropping
// the vectors frees.
func measureArtifacts(pipe *repro.Pipeline) artifactBytes {
	var a artifactBytes
	var lists [][]core.Specialization
	for _, topic := range pipe.Testbed.Topics {
		if specs := pipe.DetectSpecializations(topic.Query); len(specs) > 0 {
			lists = append(lists, pipe.BuildProblem(topic.Query, specs).Specs)
		}
	}
	a.artifacts = len(lists)
	for _, specs := range lists {
		for _, s := range specs {
			for _, r := range s.Results {
				a.results++
				if r.IVec.Norm() != 0 {
					a.postings += r.IVec.Len()
				}
			}
		}
	}
	indexes := make([]*core.AspectIndex, len(lists))
	before := liveHeap()
	for i, specs := range lists {
		indexes[i] = core.NewAspectIndex(specs)
	}
	withBoth := liveHeap()
	for _, specs := range lists {
		for j := range specs {
			for r := range specs[j].Results {
				specs[j].Results[r].IVec = textsim.IVector{}
			}
		}
	}
	a.aspects, a.vectors = withBoth-before, withBoth-liveHeap()
	runtime.KeepAlive(indexes)
	runtime.KeepAlive(lists)
	return a
}

// liveHeap is the heap in use once garbage, and what sync.Pools hold over
// one collection, is gone.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
