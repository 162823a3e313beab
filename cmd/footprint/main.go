// Command footprint reproduces the §4.1 feasibility analysis: it mines the
// ambiguous queries of a synthetic log, stores the R_q′ snippet surrogates
// for each specialization, and reports the measured memory footprint
// against the paper's back-of-the-envelope bound N·|S_q̂|·|R_q̂′|·L —
// beside what the retrieval tier itself holds: posting storage and the
// per-document forward index (total, per document, per token).
//
//	footprint                         # 30 topics, 8000 sessions
//	footprint -topics 50
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro"
	"repro/internal/cli"
	"repro/internal/engine"
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
