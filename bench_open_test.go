package repro_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/index"
	"repro/internal/ranking"
)

var (
	openBenchOnce sync.Once
	openBenchDir  string
	openBenchErr  error
)

// buildOpenBenchFile persists the 20k-doc Zipf bench index as its RIDX7
// image (with the DPH max-score and block-max tables, so neither open
// path has to touch posting bytes for tables). Memoized: the file
// outlives the process in the OS temp dir for at most one bench run.
func buildOpenBenchFile(b *testing.B) string {
	b.Helper()
	idx := buildPruningBenchIndex(b)
	openBenchOnce.Do(func() {
		openBenchDir, openBenchErr = os.MkdirTemp("", "openbench")
		if openBenchErr != nil {
			return
		}
		f, err := os.Create(filepath.Join(openBenchDir, "bench.ridx7"))
		if err != nil {
			openBenchErr = err
			return
		}
		if _, openBenchErr = index.SegmentIndex(idx, 1).WriteMapped(f, nil); openBenchErr != nil {
			f.Close()
			return
		}
		openBenchErr = f.Close()
	})
	if openBenchErr != nil {
		b.Fatal(openBenchErr)
	}
	return filepath.Join(openBenchDir, "bench.ridx7")
}

// zipfBenchQueries draws a fixed query stream from the bench vocabulary
// with the same squared-uniform skew the index was generated with.
func zipfBenchQueries(seed int64, n int) [][]string {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]string, n)
	for i := range out {
		q := make([]string, 2+rng.Intn(2))
		for j := range q {
			u := rng.Float64()
			q[j] = fmt.Sprintf("t%04d", int(u*u*5000))
		}
		out[i] = q
	}
	return out
}

// BenchmarkOpenIndex measures index startup: reading the persisted 20k-
// doc Zipf RIDX7 image onto a heap slab (ReadSegmented) vs mapping it in
// place, each alone and with the first 100 queries of a Zipf stream run
// warm (top-100 Block-Max MaxScore retrieval) — the failover-relevant
// number, since a respawned worker pays open + first-queries before the
// router readmits it. Each sub-benchmark reports open_ms (wall-clock
// per open, including the warm queries in the warm100 variants), which
// cmd/bench tracks in its delta table.
func BenchmarkOpenIndex(b *testing.B) {
	path := buildOpenBenchFile(b)
	queries := zipfBenchQueries(99, 100)

	openHeap := func() (*index.Segmented, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return index.ReadSegmented(f)
	}
	openMmap := func() (*index.Segmented, error) { return index.OpenMapped(path) }

	for _, bm := range []struct {
		name string
		open func() (*index.Segmented, error)
		warm bool
	}{
		{"heap", openHeap, false},
		{"mmap", openMmap, false},
		{"heap/warm100", openHeap, true},
		{"mmap/warm100", openMmap, true},
	} {
		b.Run(bm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				seg, err := bm.open()
				if err != nil {
					b.Fatal(err)
				}
				if bm.warm {
					for _, q := range queries {
						retrieveOne(b, seg, ranking.DPH{}, q, 100, ranking.BatchOptions{Prune: true})
					}
				}
				seg.Close()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N), "open_ms")
		})
	}
}
