package repro

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/index"
)

// writeMappedPipeline exports the pipeline's base segment as a RIDX7
// file (the serve -index -mmap shape).
func writeMappedPipeline(t testing.TB, p *Pipeline) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "pipe.ridx7")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Engine.WriteMappedTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// countdownContext cancels itself after a fixed number of Err() polls.
// Done() stays nil (the embedded Background), so cancellation can only
// be observed through the polling the scan loops do — which is exactly
// the mechanism under test. Sweeping the budget lands the cancellation
// at every poll site along the fused scan: the main Block-Max MaxScore
// retrieval and the candidate materialization loop.
type countdownContext struct {
	context.Context
	remaining atomic.Int64
}

func (c *countdownContext) Err() error {
	if c.remaining.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestFusedScanCancellation aborts Engine.SearchFusedStamped at every
// reachable poll point over a mapped engine and asserts the two safety
// properties of an aborted scan: it never leaks a mapping reference
// (ActiveMappings stays flat), and — through the serving route, whose hit
// path walks the same retrieval and forward-index windows — a canceled
// request never poisons the epoch-keyed artifact cache (the next healthy
// request serves the identical SERP from the same entry).
func TestFusedScanCancellation(t *testing.T) {
	cfg := tinyConfig(9)
	cfg.Engine = engine.Config{Shards: 2}
	heapPipe, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := writeMappedPipeline(t, heapPipe)
	mapped, err := engine.OpenIndexFile(path, engine.Config{Shards: 2, Mmap: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mapped.Close() })
	mapCfg := cfg
	mapCfg.PrebuiltEngine = mapped
	pipe, err := Build(mapCfg)
	if err != nil {
		t.Fatal(err)
	}
	base := index.ActiveMappings()

	var q string
	for _, topic := range pipe.Testbed.Topics {
		if len(pipe.DetectSpecializations(topic.Query)) > 0 {
			q = topic.Query
			break
		}
	}
	if q == "" {
		t.Fatal("no ambiguous topic query — nothing fused to cancel")
	}
	plan := fusedPlan(pipe, pipe.BuildProblem(q, pipe.DetectSpecializations(q)), core.AlgOptSelect, 10)
	want, _, err := pipe.Engine.SearchFusedStamped(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}

	canceled, completed := 0, 0
	for m := int64(0); m <= 64; m++ {
		ctx := &countdownContext{Context: context.Background()}
		ctx.remaining.Store(m)
		got, _, err := pipe.Engine.SearchFusedStamped(ctx, plan)
		switch {
		case err != nil:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("budget %d: err = %v, want context.Canceled", m, err)
			}
			canceled++
		case !reflect.DeepEqual(got, want):
			t.Fatalf("budget %d: uncanceled scan diverges\nwant %+v\ngot  %+v", m, want, got)
		default:
			completed++
		}
		if n := index.ActiveMappings(); n != base {
			t.Fatalf("budget %d: ActiveMappings = %d, want %d (aborted scan leaked a mapping reference)", m, n, base)
		}
	}
	if canceled == 0 {
		t.Fatal("no poll budget canceled the scan — the sweep exercised nothing")
	}
	if completed == 0 {
		t.Fatal("every poll budget canceled the scan — raise the sweep ceiling")
	}

	// Cache poisoning: warm the entry with a healthy request, cancel a
	// request against the hot entry, then verify the next healthy request
	// still hits and serves the identical SERP.
	h := pipe.NewServeHandle(64, 4)
	warm, _, _, _, err := h.DiversifyServe(context.Background(), q, core.AlgOptSelect, 10)
	if err != nil {
		t.Fatal(err)
	}
	dead := &countdownContext{Context: context.Background()}
	if _, _, _, _, err := h.DiversifyServe(dead, q, core.AlgOptSelect, 10); err == nil {
		t.Fatal("canceled hit: want error")
	}
	// The same sweep over the hit path, whose polls are the retrieval's
	// and then the bounded selection's candidate walk (it builds windows
	// one candidate at a time, against the pinned mapping): every budget
	// ends in ctx's error or the warm SERP, and none leaks the pin.
	canceled, completed = 0, 0
	for m := int64(0); m <= 64; m++ {
		ctx := &countdownContext{Context: context.Background()}
		ctx.remaining.Store(m)
		got, _, _, _, err := h.DiversifyServe(ctx, q, core.AlgOptSelect, 10)
		switch {
		case err != nil:
			if !errors.Is(err, context.Canceled) || got != nil {
				t.Fatalf("serve budget %d: err = %v, SERP %v; want context.Canceled and nothing", m, err, got)
			}
			canceled++
		case !reflect.DeepEqual(got, warm):
			t.Fatalf("serve budget %d: uncanceled hit diverges\nwant %+v\ngot  %+v", m, warm, got)
		default:
			completed++
		}
		if n := index.ActiveMappings(); n != base {
			t.Fatalf("serve budget %d: ActiveMappings = %d, want %d (aborted hit leaked a mapping reference)", m, n, base)
		}
	}
	if canceled < 2 || completed == 0 {
		t.Fatalf("serve sweep: %d budgets canceled, %d completed; want several poll sites reached and at least one clean run", canceled, completed)
	}
	got, _, hit, _, err := h.DiversifyServe(context.Background(), q, core.AlgOptSelect, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("cache entry evicted by a canceled request")
	}
	if !reflect.DeepEqual(got, warm) {
		t.Fatal("canceled request poisoned the cached artifacts")
	}
	if n := index.ActiveMappings(); n != base {
		t.Fatalf("ActiveMappings = %d after serve-path cancellation, want %d", index.ActiveMappings(), base)
	}
}
