package repro

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/suggest"
	"repro/internal/synth"
	"repro/internal/text"
)

// serve answers q through the serving route at the configured K under a
// context that never cancels, where the local engine cannot fail. It
// reports an error with t.Error, so request goroutines may call it.
func serve(t testing.TB, h *ServeHandle, q string, alg core.Algorithm) ([]core.Selected, []suggest.Specialization, bool) {
	t.Helper()
	sel, specs, hit, _, err := h.DiversifyServe(context.Background(), q, alg, 0)
	if err != nil {
		t.Errorf("DiversifyServe(%q): %v", q, err)
	}
	return sel, specs, hit
}

// serveQueryMix returns a seeded mix of ambiguous topic queries, their
// specializations, noise queries and unseen queries — the traffic shape
// the serving layer faces.
func serveQueryMix(p *Pipeline) []string {
	var qs []string
	for _, topic := range p.Testbed.Topics {
		qs = append(qs, topic.Query)
		for _, sq := range p.Testbed.SubtopicQuery[topic.ID] {
			qs = append(qs, sq)
		}
	}
	for i := 0; i < 5; i++ {
		qs = append(qs, synth.NoiseQuery(i))
	}
	qs = append(qs, "never seen before", "")
	return qs
}

// TestDiversifyCachedMatchesDiversify is the cache-correctness contract:
// for every query in the mix and every algorithm, the serving route must
// return a SERP identical to the uncached Pipeline.Diversify — on a cold
// cache (miss path, overlapped build) and again on a warm cache (hit
// path, artifacts shared).
func TestDiversifyCachedMatchesDiversify(t *testing.T) {
	p := buildTiny(t)
	h := p.NewServeHandle(256, 4)

	ambiguous := 0
	for _, alg := range []core.Algorithm{core.AlgOptSelect, core.AlgXQuAD, core.AlgIASelect, core.AlgMMR, core.AlgBaseline} {
		for _, q := range serveQueryMix(p) {
			norm := text.NormalizeQuery(q)
			wantSel, wantSpecs := p.Diversify(norm, alg)
			for round := 0; round < 2; round++ {
				gotSel, gotSpecs, _ := serve(t, h, q, alg)
				if !reflect.DeepEqual(gotSel, wantSel) {
					t.Fatalf("alg %s query %q round %d: cached SERP differs from Diversify", alg, q, round)
				}
				if !reflect.DeepEqual(gotSpecs, wantSpecs) {
					t.Fatalf("alg %s query %q round %d: cached specializations differ", alg, q, round)
				}
			}
			if len(wantSpecs) > 0 {
				ambiguous++
			}
		}
	}
	if ambiguous == 0 {
		t.Fatal("query mix exercised no ambiguous queries; the test is vacuous")
	}
	if st := h.CacheStats(); st.Hits == 0 {
		t.Errorf("expected warm-round hits, stats = %+v", st)
	}
}

// TestDiversifyCachedHitReporting checks the miss→hit transition and that
// repeats actually skip the artifact build (hit counter moves).
func TestDiversifyCachedHitReporting(t *testing.T) {
	p := buildTiny(t)
	PastStore(t, p)
	h := p.NewServeHandle(64, 2)
	q := p.Testbed.TopicQuery(1)

	if _, _, hit := serve(t, h, q, core.AlgOptSelect); hit {
		t.Error("first lookup should miss")
	}
	if _, _, hit := serve(t, h, q, core.AlgOptSelect); !hit {
		t.Error("second lookup should hit")
	}
	// Normalization folds case/whitespace variants onto the same entry.
	if _, _, hit := serve(t, h, "  "+q+"  ", core.AlgXQuAD); !hit {
		t.Error("normalized variant should hit the same entry")
	}
	st := h.CacheStats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 2/1", st.Hits, st.Misses)
	}
}

// TestDiversifyCachedCoalescesMisses checks the singleflight behaviour:
// many goroutines racing on the same cold query must produce exactly one
// artifact build, and every response must still be correct.
func TestDiversifyCachedCoalescesMisses(t *testing.T) {
	p := buildTiny(t)
	PastStore(t, p)
	h := p.NewServeHandle(64, 2)
	q := p.Testbed.TopicQuery(1)
	want, _ := p.Diversify(q, core.AlgOptSelect)

	const workers = 12
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, _, _ := serve(t, h, q, core.AlgOptSelect)
			if !reflect.DeepEqual(got, want) {
				t.Error("coalesced SERP differs from Diversify")
			}
		}()
	}
	wg.Wait()

	h.mu.Lock()
	builds, pending := h.builds, len(h.inflight)
	h.mu.Unlock()
	if builds != 1 {
		t.Errorf("builds = %d, want 1 (misses should coalesce)", builds)
	}
	if pending != 0 {
		t.Errorf("inflight map not drained: %d entries", pending)
	}
}

// TestDiversifyCachedConcurrent replays a skewed query mix from many
// goroutines (run with -race): cached artifacts are shared across
// requests, and every response must still equal the sequential answer.
func TestDiversifyCachedConcurrent(t *testing.T) {
	p := buildTiny(t)
	// Tiny capacity forces concurrent eviction and rebuild alongside hits.
	h := p.NewServeHandle(8, 4)
	mix := serveQueryMix(p)

	want := make(map[string][]core.Selected, len(mix))
	for _, q := range mix {
		norm := text.NormalizeQuery(q)
		sel, _ := p.Diversify(norm, core.AlgOptSelect)
		want[norm] = sel
	}

	const workers = 8
	const opsPerWorker = 30
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < opsPerWorker; i++ {
				q := mix[rng.Intn(len(mix))]
				got, _, _ := serve(t, h, q, core.AlgOptSelect)
				if !reflect.DeepEqual(got, want[text.NormalizeQuery(q)]) {
					t.Errorf("concurrent cached SERP differs for %q", q)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
}
