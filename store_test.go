package repro_test

import (
	"context"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"repro"
	"repro/internal/router"
)

// TestArtifactStoreMatchesLazyBuild is the store's differential: for
// every query Build stored, over servedWorld partitioned into two shards,
// the stored artifacts must be reflect.DeepEqual to the ones a miss
// builds — through the local engine, and through the router over two
// shard workers on loopback — and the store must cover the topics the
// benchmark's cold-tail stream asks for.
func TestArtifactStoreMatchesLazyBuild(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the serving benchmark's world")
	}
	cfg := servedWorld()
	cfg.Engine.Shards = 2
	p, err := repro.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	epoch, stored := repro.StoredArtifacts(p)
	if epoch != p.Engine.Epoch() {
		t.Fatalf("store built at epoch %d, engine at %d", epoch, p.Engine.Epoch())
	}
	covered := 0
	for _, tp := range p.Testbed.Topics {
		if _, ok := stored[tp.Query]; ok {
			covered++
		}
	}
	if covered == 0 {
		t.Fatalf("the store holds %d queries and none of the %d topics", len(stored), len(p.Testbed.Topics))
	}
	t.Logf("the store holds %d queries, %d of the %d topics", len(stored), covered, len(p.Testbed.Topics))

	ts := httptest.NewServer(router.NewWorker(p.Engine).Handler())
	defer ts.Close()
	remote, err := router.NewSearcher(router.Config{Shards: [][]router.ReplicaSpec{{{URL: ts.URL}}, {{URL: ts.URL}}}})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	remote.ProbeOnce(context.Background())
	routed := *p
	routed.Searcher = remote
	for side, h := range map[string]*repro.ServeHandle{"local": p.NewServeHandle(1, 1), "routed": routed.NewServeHandle(1, 1)} {
		for norm, want := range stored {
			if len(want.Specs) < 2 {
				t.Fatalf("stored %q with %d specializations; only ambiguous queries are stored", norm, len(want.Specs))
			}
			got, degraded, err := repro.LazyArtifacts(h, norm)
			if err != nil || degraded {
				t.Fatalf("%s: lazy build of %q: degraded %v, err %v", side, norm, degraded, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: the stored artifacts of %q differ from a lazy build's", side, norm)
			}
		}
	}
}

// TestStoreFootprint: the §4.1 accounting reads the store Build holds —
// its queries, sorted, and the widest query's specializations, the
// longest list and the result count recounted from the stored artifacts
// — with snippet bytes equal to the snippets the engine's own search
// returns for each stored specialization, L their floored mean and the
// paper's bound N·|S_q̂|·|R_q̂′|·L holding. Measuring keeps nothing: a
// second call reads the same, and a pipeline without a store reads zero.
func TestStoreFootprint(t *testing.T) {
	p, err := repro.Build(servedWorld())
	if err != nil {
		t.Fatal(err)
	}
	f := p.StoreFootprint()
	_, stored := repro.StoredArtifacts(p)
	var queries []string
	var maxSpecs, maxList, results int
	var snippetBytes int64
	for norm, art := range stored {
		queries = append(queries, norm)
		maxSpecs = max(maxSpecs, len(art.SpecLists))
		for _, s := range art.SpecLists {
			maxList = max(maxList, len(s.Results))
			results += len(s.Results)
			for _, r := range p.Engine.Search(s.Query, p.Config.PerSpec) {
				snippetBytes += int64(len(r.Snippet))
			}
		}
	}
	sort.Strings(queries)
	if len(queries) == 0 || !reflect.DeepEqual(f.Queries, queries) {
		t.Fatalf("footprint queries %v, the store holds %v", f.Queries, queries)
	}
	if f.MaxSpecs != maxSpecs || f.MaxListLen != maxList || f.Results != results || f.SnippetBytes != snippetBytes {
		t.Fatalf("footprint %+v; the store has |S| %d, |R| %d, %d results, %d snippet bytes", f, maxSpecs, maxList, results, snippetBytes)
	}
	if f.MeanSnippet != int(f.SnippetBytes/int64(f.Results)) {
		t.Errorf("L = %d, want %d / %d", f.MeanSnippet, f.SnippetBytes, f.Results)
	}
	if want := int64(len(f.Queries)) * int64(f.MaxSpecs) * int64(f.MaxListLen) * int64(f.MeanSnippet); f.BoundBytes != want {
		t.Errorf("bound %d, want N·|S|·|R|·L = %d", f.BoundBytes, want)
	}
	if f.BoundBytes < f.SnippetBytes {
		t.Errorf("the paper's bound %d is below the measured %d bytes", f.BoundBytes, f.SnippetBytes)
	}
	t.Logf("N %d, |S| %d, |R| %d, %d results, %d snippet bytes, L %d, bound %d",
		len(f.Queries), f.MaxSpecs, f.MaxListLen, f.Results, f.SnippetBytes, f.MeanSnippet, f.BoundBytes)
	if again := p.StoreFootprint(); !reflect.DeepEqual(again, f) {
		t.Errorf("a second measure reads %+v, the first %+v", again, f)
	}
	if empty := new(repro.Pipeline).StoreFootprint(); !reflect.DeepEqual(empty, repro.Footprint{}) {
		t.Errorf("a pipeline without a store measures %+v", empty)
	}
}

// BenchmarkBuildStore times the store's build over servedWorld — what
// Build adds to start-up for it — and reports how many queries it holds
// and the live heap it keeps.
func BenchmarkBuildStore(b *testing.B) {
	p, err := repro.Build(servedWorld())
	if err != nil {
		b.Fatal(err)
	}
	live := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := live()
	s := repro.BuildStore(p)
	kept := live() - before
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s = repro.BuildStore(p)
	}
	runtime.KeepAlive(s)
	_, stored := repro.StoredArtifacts(p)
	b.ReportMetric(float64(len(stored)), "entries")
	b.ReportMetric(float64(kept)/1024, "live-KB")
}
