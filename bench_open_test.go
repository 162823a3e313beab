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

// buildOpenBenchFiles persists the 20k-doc Zipf bench index twice: as a
// heap-decoded RIDX5 stream and as the mmap-servable RIDX7 image (both
// with the DPH max-score and block-max tables, so neither loader has to
// touch posting bytes for tables). Memoized: the files outlive the
// process in the OS temp dir for at most one bench run.
func buildOpenBenchFiles(b *testing.B) (heapPath, mmapPath string) {
	b.Helper()
	idx := buildPruningBenchIndex(b)
	openBenchOnce.Do(func() {
		openBenchDir, openBenchErr = os.MkdirTemp("", "openbench")
		if openBenchErr != nil {
			return
		}
		seg := index.SegmentIndex(idx, 1)
		write := func(name string, fn func(f *os.File) error) {
			if openBenchErr != nil {
				return
			}
			f, err := os.Create(filepath.Join(openBenchDir, name))
			if err != nil {
				openBenchErr = err
				return
			}
			if err := fn(f); err != nil {
				openBenchErr = err
				f.Close()
				return
			}
			openBenchErr = f.Close()
		}
		write("bench.ridx5", func(f *os.File) error { _, err := seg.WriteTo(f); return err })
		write("bench.ridx7", func(f *os.File) error { _, err := seg.WriteMapped(f, nil); return err })
	})
	if openBenchErr != nil {
		b.Fatal(openBenchErr)
	}
	return filepath.Join(openBenchDir, "bench.ridx5"), filepath.Join(openBenchDir, "bench.ridx7")
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

// BenchmarkOpenIndex measures index startup: opening the persisted 20k-
// doc Zipf index as a heap-decoded stream vs mapping the RIDX7 image in
// place, each alone and with the first 100 queries of a Zipf stream run
// warm (top-100 Block-Max MaxScore retrieval) — the failover-relevant
// number, since a respawned worker pays open + first-queries before the
// router readmits it. Each sub-benchmark reports open_ms (wall-clock
// per open, including the warm queries in the warm100 variants), which
// cmd/bench tracks in its delta table.
func BenchmarkOpenIndex(b *testing.B) {
	heapPath, mmapPath := buildOpenBenchFiles(b)
	queries := zipfBenchQueries(99, 100)

	openHeap := func() (*index.Segmented, error) {
		f, err := os.Open(heapPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return index.ReadSegmented(f)
	}
	openMmap := func() (*index.Segmented, error) { return index.OpenMapped(mmapPath) }

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
