package repro_test

import (
	"context"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/synth"
)

// TestAllocationCeilings holds the serving path to what it keeps: a warm
// request allocates its SERP, its candidates and their vectors, a miss
// also the artifact it caches; query analysis and retrieval work in
// pooled scratch. Counts are per call over servedWorld, warm pools.
func TestAllocationCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratch at random")
	}
	if testing.Short() {
		t.Skip("builds the serving benchmark's world")
	}
	p, err := repro.Build(servedWorld())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	k := p.Config.K
	topic, noise := p.Testbed.Topics[0].Query, synth.NoiseQuery(3)
	serve := func(h *repro.ServeHandle, q string, wantHit bool) {
		if _, _, hit, _, err := h.DiversifyServe(ctx, q, core.AlgOptSelect, k); err != nil || hit != wantHit {
			t.Fatalf("%q: hit %v, err %v; want hit %v", q, hit, err, wantHit)
		}
	}
	warm := p.NewServeHandle(1024, 16)
	serve(warm, topic, false)
	serve(warm, noise, false)

	cold := p.NewServeHandle(4, 1)
	var topics []string
	for _, tp := range p.Testbed.Topics {
		topics = append(topics, tp.Query)
	}
	next := 0
	miss := func() {
		serve(cold, topics[next*7%len(topics)], false)
		next++
	}
	for range topics {
		miss()
	}
	candidates := func(q string, depth int) func() {
		return func() {
			c, err := p.Engine.Candidates(ctx, []string{q}, []int{depth})
			if err != nil {
				t.Fatal(err)
			}
			c.Close()
		}
	}
	for _, c := range []struct {
		name    string
		ceiling float64
		f       func()
	}{
		{"topic hit", 32, func() { serve(warm, topic, true) }},
		{"noise hit", 36, func() { serve(warm, noise, true) }},
		{"miss", 100, miss},
		{"Candidates, topic", 4, candidates(topic, p.Config.NumCandidates)},
		{"Candidates, noise", 5, candidates(noise, k)},
	} {
		if n := testing.AllocsPerRun(100, c.f); n > c.ceiling {
			t.Errorf("%s: %v allocations a call, ceiling %v", c.name, n, c.ceiling)
		} else {
			t.Logf("%s: %v allocations a call (ceiling %v)", c.name, n, c.ceiling)
		}
	}
}
