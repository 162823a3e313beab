package engine

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/textsim"
)

// The reference: how snippets and surrogate vectors were made before the
// forward index — by analyzing the raw body, field by field, on every
// request. refSnippet and refSurrogate are those implementations kept
// verbatim (minus the mapped-string cloning, which changed no value);
// CheckForward asserts that the forward path reproduces them bit for bit.

// refSnippet is the body-analysis snippetFor.
func refSnippet(e *Engine, body string, qTokens []string) string {
	raw := strings.Fields(body)
	if len(raw) == 0 {
		return ""
	}
	w := e.cfg.SnippetWindow
	if len(raw) <= w {
		return strings.Join(raw, " ")
	}
	qset := make(map[string]bool, len(qTokens))
	for _, t := range qTokens {
		qset[t] = true
	}
	// match[i] = 1 when raw token i analyzes to a query term.
	match := make([]int, len(raw))
	for i, tok := range raw {
		ts := e.cfg.Analyzer.Tokens(tok)
		for _, t := range ts {
			if qset[t] {
				match[i] = 1
				break
			}
		}
	}
	// Sliding window of width w maximizing matches.
	cur := 0
	for i := 0; i < w; i++ {
		cur += match[i]
	}
	best, bestAt := cur, 0
	for i := w; i < len(raw); i++ {
		cur += match[i] - match[i-w]
		if cur > best {
			best = cur
			bestAt = i - w + 1
		}
	}
	return strings.Join(raw[bestAt:bestAt+w], " ")
}

// refSurrogate is the body-analysis surrogateIVec.
func refSurrogate(e *Engine, st *state, body string, qTokens []string) textsim.IVector {
	intern := func(toks []string) textsim.IVector {
		return st.idf.InternTokens(st.lex, toks)
	}
	raw := strings.Fields(body)
	if len(raw) == 0 {
		return intern(nil)
	}
	w := e.cfg.SnippetWindow

	fieldToks := make([][]string, len(raw))
	for i, tok := range raw {
		fieldToks[i] = e.cfg.Analyzer.Tokens(tok)
	}

	lo, hi := 0, len(raw)
	if len(raw) > w {
		qset := make(map[string]bool, len(qTokens))
		for _, t := range qTokens {
			qset[t] = true
		}
		match := make([]int, len(raw))
		for i, ts := range fieldToks {
			for _, t := range ts {
				if qset[t] {
					match[i] = 1
					break
				}
			}
		}
		cur := 0
		for i := 0; i < w; i++ {
			cur += match[i]
		}
		best, bestAt := cur, 0
		for i := w; i < len(raw); i++ {
			cur += match[i] - match[i-w]
			if cur > best {
				best = cur
				bestAt = i - w + 1
			}
		}
		lo, hi = bestAt, bestAt+w
	}

	n := 0
	for _, ts := range fieldToks[lo:hi] {
		n += len(ts)
	}
	toks := make([]string, 0, n)
	for _, ts := range fieldToks[lo:hi] {
		toks = append(toks, ts...)
	}
	return intern(toks)
}

// CheckForward compares the forward path with the reference for every
// document of every source of e's current snapshot — sealed segments and
// memtable view, live or shadowed alike — against every query, and then
// the public entry points built on it (Search, Snippet, Candidates) for
// the documents each query retrieves. Exported (from a _test file) for
// the testbed sweep, which lives in package engine_test because synth
// imports this package.
func CheckForward(t testing.TB, label string, e *Engine, queries []string) {
	t.Helper()
	st := e.snapshot()
	defer st.unpin()
	sc := new(fwdScratch)
	for _, q := range queries {
		qTokens := e.cfg.Analyzer.Tokens(q)
		for si, sg := range e.sources(st, st.mem.View()) {
			idx := sg.seg.Index()
			if idx.Forward() == nil {
				t.Fatalf("%s: source %d has no forward index", label, si)
			}
			set := termSet(idx, qTokens)
			for d := int32(0); d < int32(idx.NumDocs()); d++ {
				body := sg.docs.Text(d).payload()
				lo, hi, terms := sg.window(d, set, e.cfg.SnippetWindow, sc)
				if got, want := sg.docs.Text(d).cut(lo, hi), refSnippet(e, body, qTokens); got != want {
					t.Fatalf("%s: source %d doc %q query %q: snippet %q, reference %q", label, si, idx.DocID(d), q, got, want)
				}
				want := refSurrogate(e, st, body, qTokens)
				if got := st.idf.InternSorted(terms, sg.xlat, nil); !ivecEqual(got, want) {
					t.Fatalf("%s: source %d doc %q query %q: surrogate\n got  %v %v |%v|\n want %v %v |%v|", label, si, idx.DocID(d), q,
						got.IDs, got.Weights, got.Norm(), want.IDs, want.Weights, want.Norm())
				}
			}
		}
	}

	// The public surface, over the same snapshot's live documents.
	ks := make([]int, len(queries)) // 0: every match
	results, err := e.SearchBatch(context.Background(), queries, ks)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := e.Candidates(context.Background(), queries, ks)
	if err != nil {
		t.Fatal(err)
	}
	defer cands.Close()
	vecs := candidateVectors(cands)
	for i, q := range queries {
		if len(results[i]) != len(cands.Lists[i]) {
			t.Fatalf("%s: query %q: %d results, %d candidates", label, q, len(results[i]), len(cands.Lists[i]))
		}
		for j, r := range results[i] {
			c := cands.Lists[i][j]
			if c.DocID != r.DocID || c.Rank != r.Rank || c.Score != r.Score {
				t.Fatalf("%s: query %q rank %d: candidate %+v, result %+v", label, q, j+1, c, r)
			}
			if want := e.IVectorOfText(r.Snippet); !ivecEqual(vecs[i][j], want) {
				t.Fatalf("%s: query %q doc %q: candidate vector differs from IVectorOfText(snippet)", label, q, r.DocID)
			}
			if got := e.Snippet(r.DocID, q); got != r.Snippet {
				t.Fatalf("%s: query %q doc %q: Snippet %q, Search snippet %q", label, q, r.DocID, got, r.Snippet)
			}
		}
	}
}

// candidateVectors asks Vector for every candidate's surrogate vector,
// list by list, in rank order, carved into one slab it keeps.
func candidateVectors(c *Candidates) [][]textsim.IVector {
	var slab textsim.Slab
	vecs := make([][]textsim.IVector, len(c.Lists))
	for q, list := range c.Lists {
		vecs[q] = make([]textsim.IVector, len(list))
		for j := range list {
			vecs[q][j] = c.Vector(q, j, &slab)
		}
	}
	return vecs
}

// ForwardVariants returns engines holding docs in every storage shape a
// sealed document can have: heap-built, Loaded from an epoch file,
// mapped from an image, and compacted out of a live index.
func ForwardVariants(t testing.TB, docs []Document, cfg Config) map[string]*Engine {
	t.Helper()
	built, err := Build(docs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]*Engine{"built": built}

	var buf bytes.Buffer
	if err := built.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	if out["loaded"], err = Load(&buf, cfg); err != nil {
		t.Fatal(err)
	}

	mcfg := cfg
	mcfg.Mmap = true
	if out["mapped"], err = OpenIndexFile(writeMappedEngine(t, built), mcfg); err != nil {
		t.Fatal(err)
	}
	if !out["mapped"].Index().Mapped() || out["mapped"].Index().Forward() == nil {
		t.Fatal("mapped engine is not serving the image's forward sections")
	}

	// Half the corpus built, the rest ingested, flushed and compacted.
	live, err := Build(docs[:len(docs)/2], cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs[len(docs)/2:] {
		if _, err := live.Ingest(d); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := live.Compact(); err != nil {
		t.Fatal(err)
	}
	out["compacted"] = live

	t.Cleanup(func() {
		for _, e := range out {
			e.Close()
		}
	})
	return out
}

// awkwardDocs are hand-written bodies around every edge of field
// splitting, analysis and window selection, for a 5-field window.
func awkwardDocs() []Document {
	return []Document{
		{ID: "spaces", Body: "alpha  \t\n beta\n\n\ngamma \r\n delta\vepsilon\fzeta   eta"},
		{ID: "punct", Body: "alpha -- ... beta !!! ?? gamma ;;; delta , epsilon"},
		{ID: "stop", Body: "the of and alpha the the of beta and the gamma of"},
		{ID: "multi", Body: "a state-of-the-art e-mail client isn't mother-in-law's rock'n'roll alpha"},
		{ID: "zero", Body: "-- the ... of !!! and ??? a"},
		{ID: "unicode", Body: "naïve café über straße ÉCOLE 東京 данные alpha Ǆungla ﬁnal"},
		{ID: "nbsp", Body: "alpha\u00a0beta gamma delta\u3000epsilon zeta\u200beta\u0085theta iota\u2028kappa"},
		{ID: "badutf8", Body: "alpha \xff\xfe beta\xc3 gamma \xf0\x9f delta epsilon zeta"},
		{ID: "short", Body: "alpha beta gamma delta"},
		{ID: "exact", Body: "alpha beta gamma delta epsilon"},
		{ID: "longer", Body: "alpha beta gamma delta epsilon zeta"},
		{ID: "empty"},
		{ID: "blank", Title: " \t ", Body: "\n \n"},
		{ID: "title-only", Title: "alpha beta gamma delta epsilon zeta eta"},
		{ID: "title-body", Title: "alpha beta gamma", Body: "delta epsilon zeta eta theta"},
		{ID: "one", Body: "alpha"},
		{ID: "tied", Body: "alpha x1 x2 x3 x4 x5 x6 x7 alpha x8 x9 x10 x11 x12 alpha"},
		{ID: "late", Body: "x1 x2 x3 x4 x5 x6 x7 x8 alpha beta x9 x10 gamma"},
		{ID: "dense", Body: "alpha alpha beta x1 alpha beta beta x2 x3 gamma gamma gamma x4 alpha"},
		{ID: "case", Body: "ALPHA Alpha aLpHa Running RUNS runner BETA"},
		{ID: "digits", Body: "route 66 and 3.14 or 1,000 alpha2beta 2024-01-01 x"},
		// The window selector's edges: a query term in several fields (and
		// twice in one), matches only in the first and last field, windows
		// tied three ways, multi-term fields matched by several query
		// terms, empty fields on both sides of the window, and texts of
		// exactly w and w+1 fields that hold empty ones.
		{ID: "several", Body: "alpha x1 alpha x2 x3 x4 alpha alpha x5 x6 x7 alpha-alpha"},
		{ID: "first-last", Body: "alpha x1 x2 x3 x4 x5 x6 alpha"},
		{ID: "tied3", Body: "x1 beta x2 x3 x4 x5 beta x6 x7 x8 x9 beta x10"},
		{ID: "multi-terms", Body: "alpha-beta-gamma x1 delta-alpha x2 x3 beta-beta-gamma x4 x5 x6 gamma-alpha"},
		{ID: "empty-sides", Body: "-- ... !!! x1 x2 alpha ,, ;; beta gamma -- ?? .."},
		{ID: "exact-empty", Body: "-- alpha ... beta !!!"},
		{ID: "longer-empty", Body: "-- alpha ... beta !!! gamma"},
	}
}

var awkwardQueries = []string{
	"alpha", "beta gamma", "alpha beta gamma delta", "state art", "mail", "running",
	"the", "nonexistentterm", "nonexistentterm alpha", "東京", "cafe café", "66 3 14", "", "x5 x9",
	"beta", "gamma alpha", "x1 alpha", "delta x4",
}

// TestForwardMatchesBodyAnalysis is the differential of the forward
// path against body analysis over the hand-written bodies, in every
// storage shape, then across a live index's flushed segments and
// memtable — including documents whose terms lie outside the base
// dictionary, where lexicon IDs are in arrival order and the norm's
// string-order accumulation no longer coincides with ID order.
func TestForwardMatchesBodyAnalysis(t *testing.T) {
	for _, cfg := range []Config{{SnippetWindow: 5}, {SnippetWindow: 5, Shards: 3}, {}} {
		for name, e := range ForwardVariants(t, awkwardDocs(), cfg) {
			CheckForward(t, name, e, awkwardQueries)
		}
	}

	e, err := Build(awkwardDocs(), Config{SnippetWindow: 5, MemtableCap: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ingest := func(d Document) {
		t.Helper()
		if _, err := e.Ingest(d); err != nil {
			t.Fatal(err)
		}
	}
	queries := append([]string{"zulu", "yankee alpha", "aardvark zulu", "bravo"}, awkwardQueries...)

	// Overflow terms arrive in an order that is not their string order:
	// first the late letters, then the early ones.
	ingest(Document{ID: "m1", Body: "zulu yankee xray alpha zulu whiskey x1 x2 x3"})
	CheckForward(t, "memtable", e, queries)
	ingest(Document{ID: "m2", Body: "aardvark zulu bravo yankee charlie alpha aardvark x1 x2"})
	ingest(Document{ID: "spaces", Body: "alpha rewritten   aardvark\t\tzulu beta beta"}) // supersedes a base doc
	CheckForward(t, "memtable+overflow", e, queries)
	if _, err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	CheckForward(t, "flushed", e, queries)
	ingest(Document{ID: "m3", Body: "delta-force aardvark mike zulu lima alpha x1 x2 x3 kilo"})
	e.Delete("punct")
	CheckForward(t, "flushed+memtable", e, queries)

	// The whole lifecycle state survives an epoch file.
	var buf bytes.Buffer
	if err := e.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, Config{SnippetWindow: 5, MemtableCap: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	CheckForward(t, "loaded-lifecycle", loaded, queries)

	if _, err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	CheckForward(t, "compacted", e, queries)
}

// TestCutFields pins the snippet cut against strings.Fields directly,
// including windows a disagreeing forward index could ask for.
func TestCutFields(t *testing.T) {
	for _, d := range awkwardDocs() {
		txt := docText{title: d.Title, body: d.Body}
		fields := strings.Fields(d.Title + " " + d.Body)
		for lo := 0; lo <= len(fields)+1; lo++ {
			for hi := lo; hi <= len(fields)+2; hi++ {
				want := strings.Join(fields[min(lo, len(fields)):min(hi, len(fields))], " ")
				if got := txt.cut(lo, hi); got != want {
					t.Fatalf("doc %q cut(%d,%d) = %q, want %q", d.ID, lo, hi, got, want)
				}
			}
		}
	}
}
