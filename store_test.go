package repro_test

import (
	"context"
	"net/http/httptest"
	"reflect"
	"runtime"
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
