// Command repro regenerates the paper's experiments, one subcommand each:
//
//	repro utilityfig [-recall]        # Figure 1; -recall adds Appendix C (paper: 61% AOL, 65% MSN)
//	repro efficiency [-full] [-fit]   # Table 2 wall-clock grid; -fit adds the Table 1 exponent fits
//	repro trecdiv                     # Table 3: α-NDCG and IA-P with the §5 Wilcoxon check
//	repro loggen | repro mine         # a synthetic query log, and the §3.1 mining over it
//	repro diversify QUERY...          # the end-user SERP: mined specializations beside the plain ranking
//	repro footprint                   # §4.1: the stored surrogates against N·|S_q̂|·|R_q̂′|·L, beside the index's bytes
//
// Every subcommand prints to stdout and takes -h. The output is
// deterministic for given flags, apart from Table 2's wall-clock times
// and footprint's live-heap byte counts;
// the outputs pinned in testdata/ are checked byte for byte by the
// package's tests. The world flags (-seed, -topics, -sessions) are
// declared by one helper, with each subcommand's own defaults.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"

	"repro"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/qfg"
	"repro/internal/querylog"
	"repro/internal/suggest"
	"repro/internal/synth"
	"repro/internal/textsim"
)

// env is what a subcommand reads and writes.
type env struct {
	stdin          io.Reader
	stdout, stderr io.Writer
}

type command struct {
	name, summary string
	run           func(args []string, e env) error
}

var commands = []command{
	{"utilityfig", "Figure 1 (utility ratio per |S_q|); -recall adds Appendix C", utilityfig},
	{"efficiency", "Table 2 (selection time over |R_q| × k); -fit adds Table 1", efficiency},
	{"trecdiv", "Table 3 (α-NDCG and IA-P on the diversity testbed)", trecdiv},
	{"loggen", "write a synthetic query log as TSV", loggen},
	{"mine", "§3.1 mining: ambiguous queries and their specializations in a TSV log", mine},
	{"diversify", "answer queries with the diversified SERP beside the plain ranking", diversify},
	{"footprint", "§4.1 memory footprint of the stored surrogates, beside the index's", footprint},
}

// errUsage marks a usage error the flag package has already reported.
var errUsage = errors.New("usage")

func main() {
	os.Exit(run(os.Args[1:], env{os.Stdin, os.Stdout, os.Stderr}))
}

// run executes the subcommand args names and returns the exit status:
// 0, 1 on failure, 2 on a usage error.
func run(args []string, e env) int {
	if len(args) > 0 {
		for _, c := range commands {
			if c.name != args[0] {
				continue
			}
			switch err := c.run(args[1:], e); {
			case err == nil, errors.Is(err, flag.ErrHelp):
				return 0
			case errors.Is(err, errUsage):
				return 2
			default:
				fmt.Fprintf(e.stderr, "repro %s: %v\n", c.name, err)
				return 1
			}
		}
	}
	fmt.Fprintln(e.stderr, "usage: repro <subcommand> [flags] [args]")
	for _, c := range commands {
		fmt.Fprintf(e.stderr, "  %-11s %s\n", c.name, c.summary)
	}
	return 2
}

// flags returns a subcommand's flag set, reporting to e.stderr.
func (e env) flags(name string) *flag.FlagSet {
	fs := flag.NewFlagSet("repro "+name, flag.ContinueOnError)
	fs.SetOutput(e.stderr)
	return fs
}

func parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}
	return nil
}

func utilityfig(args []string, e env) error {
	fs := e.flags("utilityfig")
	recall := fs.Bool("recall", false, "also run the Appendix C recall measurement")
	w := cli.World{Seed: 1, Sessions: 12000}
	w.Register(fs)
	if err := parse(fs, args); err != nil {
		return err
	}

	spec := exp.DefaultFigure1Spec()
	spec.Seed, spec.Sessions = w.Seed, w.Sessions
	fmt.Fprintln(e.stdout, "== Figure 1: average utility ratio per number of specializations ==")
	res, err := exp.RunFigure1(spec)
	if err != nil {
		return err
	}
	if err := res.Format(e.stdout); err != nil {
		return err
	}
	if !*recall {
		return nil
	}
	fmt.Fprintln(e.stdout, "\n== Appendix C: specialization-coverage recall ==")
	rspec := exp.DefaultRecallSpec()
	rspec.Seed, rspec.Sessions = w.Seed, w.Sessions
	results, err := exp.RunRecall(rspec)
	if err != nil {
		return err
	}
	exp.FormatRecall(e.stdout, results)
	return nil
}

// efficiency times the selection algorithms over the |R_q| × k grid with
// exp.Table2Spec's defaults (|S_q| = 8, best of 3 runs per cell). The
// Table 1 fits read operation counts (heap pushes, marginal-utility
// evaluations), so they do not depend on the box.
func efficiency(args []string, e env) error {
	fs := e.flags("efficiency")
	full := fs.Bool("full", false, "run the paper's grid: |R_q| ∈ {1k,10k,100k} × k ∈ {10..1000} (slower)")
	fit := fs.Bool("fit", false, "fit complexity exponents on operation counts (Table 1)")
	w := cli.World{Seed: 1}
	w.Register(fs)
	if err := parse(fs, args); err != nil {
		return err
	}

	spec := exp.Table2Spec{Seed: w.Seed, Ns: []int{1000, 10000, 40000}, Ks: []int{10, 50, 100, 500, 1000}}
	if *full {
		spec.Ns = []int{1000, 10000, 100000}
	}
	fmt.Fprintln(e.stdout, "== Table 2: diversification time (msec) ==")
	res := exp.RunTable2(spec)
	if err := res.Format(e.stdout); err != nil {
		return err
	}
	if !*fit {
		return nil
	}
	fmt.Fprintln(e.stdout, "\n== Table 1: empirical complexity fits ==")
	fits, err := exp.FitComplexity(res)
	if err != nil {
		return err
	}
	exp.FormatComplexity(e.stdout, fits)
	return nil
}

// trecdiv runs Table 3 on synth.DefaultCorpusSpec's testbed shape; its
// defaults are the paper's full grid (slow), e.g. -topics 10 -rq 2000
// -k 100 for a laptop-scale run.
func trecdiv(args []string, e env) error {
	fs := e.flags("trecdiv")
	w := cli.World{Seed: 1, Topics: 50, Sessions: 20000}
	w.Register(fs)
	k := fs.Int("k", 1000, "diversified result size (paper: 1000)")
	candidates := fs.Int("rq", 25000, "|R_q| to retrieve (paper: 25000)")
	if err := parse(fs, args); err != nil {
		return err
	}

	spec := exp.DefaultTable3Spec()
	corpus := w.Corpus()
	shape := synth.DefaultCorpusSpec()
	corpus.DocsPerSubtopic, corpus.NoiseDocs = shape.DocsPerSubtopic, shape.NoiseDocs
	spec.Pipeline.Corpus = corpus
	spec.Pipeline.Log = w.Log()
	spec.Pipeline.K = *k
	spec.Pipeline.NumCandidates = *candidates
	fmt.Fprintln(e.stdout, "== Table 3: effectiveness on the diversity testbed ==")
	fmt.Fprintf(e.stdout, "(topics=%d, docs/subtopic=%d, noise=%d, sessions=%d, k=%d, lambda=%.2f)\n\n",
		w.Topics, corpus.DocsPerSubtopic, corpus.NoiseDocs, w.Sessions, *k, spec.Pipeline.Lambda)
	res, err := exp.RunTable3(spec)
	if err != nil {
		return err
	}
	if err := res.Format(e.stdout); err != nil {
		return err
	}

	// The paper's §5 comparison: OptSelect (best c) vs xQuAD (best c),
	// Wilcoxon signed-rank on per-topic α-NDCG@20.
	cOpt, _ := res.BestRow(core.AlgOptSelect, 20)
	cXq, _ := res.BestRow(core.AlgXQuAD, 20)
	wx, err := res.Significance(core.AlgOptSelect, cOpt, core.AlgXQuAD, cXq, "alpha-ndcg", 20)
	if err != nil {
		return fmt.Errorf("significance: %w", err)
	}
	verdict := "NOT significant (as in the paper)"
	if wx.P < 0.05 {
		verdict = "significant"
	}
	fmt.Fprintf(e.stdout, "\nWilcoxon OptSelect(c=%.2f) vs xQuAD(c=%.2f) on alpha-NDCG@20: W=%.1f p=%.3f -> %s\n",
		cOpt, cXq, wx.W, wx.P, verdict)
	return nil
}

// loggen writes an AOL-like or MSN-like log over the synthetic testbed as
// TSV, the format mine and the querylog package read.
func loggen(args []string, e env) error {
	fs := e.flags("loggen")
	preset := fs.String("preset", "aol", "log preset: aol or msn")
	w := cli.World{Seed: 1, Topics: 20, Sessions: 5000}
	w.Register(fs)
	out := fs.String("o", "-", "output file (default stdout)")
	stats := fs.Bool("stats", false, "print log statistics to stderr")
	if err := parse(fs, args); err != nil {
		return err
	}

	logSpec, ok := map[string]func(int64, int) synth.LogSpec{"aol": synth.AOLLike, "msn": synth.MSNLike}[*preset]
	if !ok {
		fmt.Fprintf(e.stderr, "repro loggen: unknown preset %q (want aol or msn)\n", *preset)
		return errUsage
	}
	log := synth.GenerateLog(synth.GenerateTestbed(w.Corpus()), logSpec(w.Seed+1, w.Sessions))

	dst := e.stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		dst = f
	}
	if err := querylog.Write(dst, log); err != nil {
		return err
	}
	if *stats {
		st := log.ComputeStats()
		fmt.Fprintf(e.stderr, "queries=%d distinct=%d users=%d span=%s clicked=%d\n",
			st.Queries, st.DistinctQuery, st.Users, st.Span, st.ClickedQueries)
	}
	return nil
}

// mineMinFreq is the popularity f(q) below which mine does not report a
// query.
const mineMinFreq = 3

// mine runs query-flow-graph session splitting, recommender training and
// Algorithm 1 over a TSV log, and prints each ambiguous query with its
// specializations and their Definition 1 probabilities — the knowledge
// base the diversifier consumes.
func mine(args []string, e env) error {
	fs := e.flags("mine")
	in := fs.String("i", "-", "input TSV log (default stdin)")
	s := fs.Float64("s", 10, "Algorithm 1 popularity divisor s")
	max := fs.Int("max", 50, "max ambiguous queries to print")
	if err := parse(fs, args); err != nil {
		return err
	}

	src := e.stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		src = f
	}
	log, err := querylog.Read(src)
	if err != nil {
		return err
	}
	sessions := qfg.ExtractSessions(log, qfg.Options{})
	sessionStats := qfg.ComputeSessionStats(sessions)
	fmt.Fprintf(e.stdout, "# log: %d records; %d logical sessions (mean length %.2f, %d satisfactory)\n",
		log.Len(), sessionStats.Sessions, sessionStats.MeanLength, sessionStats.Satisfactory)

	freq := log.Frequencies()
	rec := suggest.Train(sessions, freq, suggest.TrainOptions{})
	opts := suggest.DefaultDetectOptions()
	opts.S = *s

	// Scan distinct queries by descending popularity.
	type qf struct {
		q string
		f int
	}
	var queries []qf
	for q, f := range freq {
		if f >= mineMinFreq {
			queries = append(queries, qf{q, f})
		}
	}
	sort.Slice(queries, func(i, j int) bool {
		if queries[i].f != queries[j].f {
			return queries[i].f > queries[j].f
		}
		return queries[i].q < queries[j].q
	})
	printed := 0
	for _, q := range queries {
		if printed >= *max {
			break
		}
		specs := suggest.AmbiguousQueryDetect(q.q, rec, opts)
		if len(specs) == 0 {
			continue
		}
		printed++
		fmt.Fprintf(e.stdout, "\n%q  f=%d  |Sq|=%d\n", q.q, q.f, len(specs))
		for _, sp := range specs {
			fmt.Fprintf(e.stdout, "    %-50q P=%.3f f=%d\n", sp.Query, sp.Prob, sp.Freq)
		}
	}
	if printed == 0 {
		fmt.Fprintln(e.stdout, "# no ambiguous queries detected (try a longer log or a larger -s)")
	}
	return nil
}

// diversify builds the full pipeline and answers each query argument, or
// one query per stdin line when there are none.
func diversify(args []string, e env) error {
	fs := e.flags("diversify")
	algName := fs.String("alg", string(core.AlgOptSelect), fmt.Sprintf("algorithm %v", core.Algorithms))
	k := fs.Int("k", 10, "diversified SERP size")
	w := cli.World{Seed: 7, Topics: 10, Sessions: 6000}
	w.Register(fs)
	threshold := fs.Float64("c", 0.3, "utility threshold c")
	lambda := fs.Float64("lambda", 0.15, "relevance/diversity mix λ")
	if err := parse(fs, args); err != nil {
		return err
	}
	alg := core.Algorithm(*algName)
	if !alg.Valid() {
		fmt.Fprintf(e.stderr, "repro diversify: unknown algorithm %q (valid: %v)\n", *algName, core.Algorithms)
		return errUsage
	}

	fmt.Fprintf(e.stderr, "building pipeline (%d topics, %d sessions)...\n", w.Topics, w.Sessions)
	pipe, err := repro.Build(repro.Config{
		Corpus:    w.Corpus(),
		Log:       w.Log(),
		K:         *k,
		Lambda:    *lambda,
		Threshold: *threshold,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(e.stderr, "ready: %d documents indexed, %d log records mined\n\n",
		pipe.Engine.NumDocs(), pipe.LogRecords)

	if fs.NArg() > 0 {
		for _, q := range fs.Args() {
			answer(e.stdout, pipe, alg, q)
		}
		return nil
	}
	sc := bufio.NewScanner(e.stdin)
	for sc.Scan() {
		if q := sc.Text(); q != "" {
			answer(e.stdout, pipe, alg, q)
		}
	}
	return sc.Err()
}

func answer(out io.Writer, pipe *repro.Pipeline, alg core.Algorithm, query string) {
	specs := pipe.DetectSpecializations(query)
	problem := pipe.BuildProblem(query, specs)
	baseline := core.Baseline(problem)

	fmt.Fprintf(out, "query: %q\n", query)
	if len(specs) == 0 {
		fmt.Fprintln(out, "  unambiguous — serving the plain ranking")
		for _, s := range baseline {
			fmt.Fprintf(out, "  %2d. %s\n", s.Rank, s.ID)
		}
		fmt.Fprintln(out)
		return
	}
	fmt.Fprintf(out, "  ambiguous — %d specializations mined:\n", len(specs))
	for _, s := range specs {
		fmt.Fprintf(out, "    P=%.3f %q\n", s.Prob, s.Query)
	}
	diversified := core.Diversify(alg, problem)
	fmt.Fprintf(out, "  %-4s %-24s | %s (%s)\n", "rank", "plain", "diversified", alg)
	for i := range diversified {
		plain := "-"
		if i < len(baseline) {
			plain = baseline[i].ID
		}
		fmt.Fprintf(out, "  %-4d %-24s | %s\n", i+1, plain, diversified[i].ID)
	}
	fmt.Fprintln(out)
}

// footprint reproduces the §4.1 feasibility analysis over the store Build
// holds — the R_q′ lists of every mined ambiguous query — and reports
// their snippet bytes against the paper's back-of-the-envelope bound
// N·|S_q̂|·|R_q̂′|·L, beside what the retrieval tier itself holds: posting
// storage and the per-document forward index (total, per document, per
// token), and the mapped RIDX7 image. It also sizes what a stored
// artifact keeps for Definition 2, in total and per artifact: the R_q′
// result vectors against the aspect index that replaces them.
func footprint(args []string, e env) error {
	fs := e.flags("footprint")
	w := cli.World{Seed: 1, Topics: 30, Sessions: 8000}
	w.Register(fs)
	if err := parse(fs, args); err != nil {
		return err
	}

	pipe, err := repro.Build(repro.Config{Corpus: w.Corpus(), Log: w.Log()})
	if err != nil {
		return err
	}
	out := e.stdout
	st := pipe.Engine.Index().Storage()
	fmt.Fprintln(out, "== retrieval-tier footprint: posting storage ==")
	fmt.Fprintf(out, "posting layout:                     block-compressed (%d postings/block, %d blocks)\n", st.BlockSize, st.Blocks)
	fmt.Fprintf(out, "postings:                           %d\n", st.Postings)
	fmt.Fprintf(out, "posting bytes:                      %d (%.2f MiB, %.2f B/posting; a []Posting struct costs 8)\n",
		st.Bytes, float64(st.Bytes)/(1<<20), st.BytesPerPosting)
	fmt.Fprintln(out)

	// The forward index is what the engine keeps per DOCUMENT so that no
	// body is analyzed at query time: the paper's stored surrogates in
	// their rawest form (every field's term numbers; the query-biased
	// window is cut from them per request). It sits next to the inverted
	// index it doubles and the §4.1 estimate below, which budgets only
	// the surrogates of the ambiguous queries' R_q′ lists.
	idx := pipe.Engine.Index()
	fwd, cs := idx.Forward().Bytes(), idx.Stats()
	fmt.Fprintln(out, "== retrieval-tier footprint: forward index ==")
	fmt.Fprintf(out, "forward-index bytes:                %d (%.2f MiB, %.2fx the posting bytes)\n",
		fwd, float64(fwd)/(1<<20), float64(fwd)/float64(max(st.Bytes, 1)))
	fmt.Fprintf(out, "per document / per token:           %.1f B / %.2f B (%d documents, %d analyzed tokens)\n",
		float64(fwd)/float64(max(cs.NumDocs, 1)), float64(fwd)/float64(max(cs.TotalTokens, 1)), cs.NumDocs, cs.TotalTokens)
	fmt.Fprintln(out)

	// Mapped-vs-heap: size of the page-aligned RIDX7 image this engine
	// would serve in place, next to what the heap representation holds.
	// The mapped image bounds the resident set (pages fault in on
	// demand), and opening it decodes zero postings — the §4.1 estimate
	// sits beside both so the surrogate store can be budgeted against
	// either deployment.
	mappedBytes, err := pipe.Engine.WriteMappedTo(io.Discard)
	if err != nil {
		return fmt.Errorf("sizing mapped image: %w", err)
	}
	fmt.Fprintln(out, "== mapped-vs-heap index footprint ==")
	fmt.Fprintf(out, "heap posting bytes:                 %d (%.2f MiB, decoded structures owned by the process)\n",
		st.Bytes, float64(st.Bytes)/(1<<20))
	fmt.Fprintf(out, "mapped image bytes (RIDX7):         %d (%.2f MiB: postings + dictionary + doc store + score tables + forward index, page-aligned, served in place)\n",
		mappedBytes, float64(mappedBytes)/(1<<20))
	fmt.Fprintln(out)

	f := pipe.StoreFootprint()
	a := measureArtifacts(pipe, f.Queries)
	fmt.Fprintln(out, "== served artifacts: what Definition 2 reads of R_q' ==")
	fmt.Fprintf(out, "artifacts (ambiguous queries):      %d (%d results, %d postings)\n", a.artifacts, a.results, a.postings)
	fmt.Fprintf(out, "R_q' surrogate vectors:             %d B (%.0f B per artifact, %.2f B/posting)\n",
		a.vectors, a.per(a.vectors), float64(a.vectors)/float64(max(a.postings, 1)))
	fmt.Fprintf(out, "aspect index:                       %d B (%.0f B per artifact, %.2f B/posting)\n",
		a.aspects, a.per(a.aspects), float64(a.aspects)/float64(max(a.postings, 1)))
	fmt.Fprintf(out, "index / vectors:                    %.3f\n", float64(a.aspects)/float64(max(a.vectors, 1)))
	fmt.Fprintln(out)

	fmt.Fprintln(out, "== §4.1 feasibility: surrogate-store footprint ==")
	fmt.Fprintf(out, "ambiguous queries mined (N):        %d (of %d topics)\n", len(f.Queries), len(pipe.Testbed.Topics))
	fmt.Fprintf(out, "max specializations (|S_q̂|):        %d\n", f.MaxSpecs)
	fmt.Fprintf(out, "max surrogates per list (|R_q̂'|):   %d\n", f.MaxListLen)
	fmt.Fprintf(out, "mean surrogate bytes (L):           %d\n", f.MeanSnippet)
	fmt.Fprintf(out, "measured snippet bytes:             %d (%.2f MiB)\n", f.SnippetBytes, float64(f.SnippetBytes)/(1<<20))
	fmt.Fprintf(out, "paper bound N*|S_q̂|*|R_q̂'|*L:       %d (%.2f MiB)\n", f.BoundBytes, float64(f.BoundBytes)/(1<<20))
	if f.BoundBytes >= f.SnippetBytes {
		fmt.Fprintln(out, "bound holds: measured usage <= paper's estimate")
	} else {
		fmt.Fprintln(out, "WARNING: measured usage exceeds the paper's bound")
	}
	return nil
}

// artifactBytes compares the two forms a served artifact can keep its
// R_q' lists' vectors in: one vector per result, or the one aspect index
// the store and the serving cache build instead. Both are live-heap
// deltas after a collection, so allocator size classes count as the
// cache pays them.
type artifactBytes struct {
	artifacts, results, postings int
	vectors, aspects             uint64
}

func (a artifactBytes) per(total uint64) float64 {
	return float64(total) / float64(max(a.artifacts, 1))
}

// measureArtifacts builds the R_q' lists of every stored query (the
// reference route's vectors, bit-identical to the served ones), then
// measures the heap an aspect index of each adds and the heap dropping
// the vectors frees.
func measureArtifacts(pipe *repro.Pipeline, queries []string) artifactBytes {
	var a artifactBytes
	lists := make([][]core.Specialization, len(queries))
	for i, q := range queries {
		lists[i] = pipe.BuildProblem(q, pipe.DetectSpecializations(q)).Specs
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
