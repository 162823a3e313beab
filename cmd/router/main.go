// Command router is the front end of the distributed serving tier: it
// scatter-gathers the document scoring phase over replicated shard
// workers (cmd/serve -worker) and runs everything else — Algorithm 1,
// the recommender, utilities, selection, the artifact cache — locally.
// Because workers compute the very same score bits the in-process
// fan-out would and the k-way merge is deterministic, a router /search
// response is byte-identical to a single-process serve (the router
// package's differential tests enforce this).
//
//	router -shard 'http://127.0.0.1:9101,http://127.0.0.1:9102' \
//	       -shard 'http://127.0.0.1:9103,http://127.0.0.1:9104@2'
//
// Each -shard flag declares one shard's replica pool, in shard order;
// 'url@weight' biases the weighted round-robin (default weight 1). The
// workers must serve N shards, where N is the number of -shard flags
// (-shards N, or an -index image built with N), over the same world
// flags (-seed, -topics, ...) as the router — probes reject workers
// whose shard count disagrees. The flags router shares with serve are
// declared once, in internal/cli.
//
// Fault tolerance: replicas are health-checked every -probe-interval
// and circuit-broken after -fail-threshold consecutive failures, with
// an exponentially growing re-admission cooldown (-cooldown up to
// -cooldown-max, decorrelated across a fleet by -cooldown-jitter). Each
// scatter attempt is bounded by -attempt-timeout and fails over to the
// next healthy replica; a request fails only when some shard has no
// reachable replica left — unless -partial is set, in which case the
// surviving shards are merged and the response marked degraded.
//
// Tail tolerance: -hedge-after races a slow attempt against a second
// replica (first success wins, the loser is canceled without breaker
// penalty), refined online by the pool's -hedge-quantile latency once
// warm. Extra attempts — hedges and failover retries — draw from a
// global token bucket (-extra-ratio, -extra-burst) so a brownout cannot
// amplify into a retry storm. -budget gives every /search a default
// end-to-end deadline (per-request X-Search-Budget overrides); the
// scatter stage gets -scatter-fraction of whatever remains and workers
// see their slice via X-Budget-Ms.
//
// Endpoints are the same as cmd/serve, with /readyz additionally
// gating on every shard having a healthy replica and /stats growing a
// per-replica breaker table.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/cli"
	"repro/internal/engine"
	"repro/internal/router"
)

// shardFlag accumulates repeated -shard values into the topology.
type shardFlag [][]router.ReplicaSpec

func (f *shardFlag) String() string {
	var b strings.Builder
	for i, pool := range *f {
		if i > 0 {
			b.WriteString("; ")
		}
		for j, r := range pool {
			if j > 0 {
				b.WriteString(",")
			}
			fmt.Fprintf(&b, "%s@%d", r.URL, r.Weight)
		}
	}
	return b.String()
}

func (f *shardFlag) Set(v string) error {
	var pool []router.ReplicaSpec
	for _, part := range strings.Split(v, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		url, weightStr, weighted := strings.Cut(part, "@")
		weight := 1
		if weighted {
			w, err := strconv.Atoi(weightStr)
			if err != nil || w < 1 {
				return fmt.Errorf("bad replica weight in %q", part)
			}
			weight = w
		}
		pool = append(pool, router.ReplicaSpec{URL: strings.TrimSuffix(url, "/"), Weight: weight})
	}
	if len(pool) == 0 {
		return fmt.Errorf("empty replica pool %q", v)
	}
	*f = append(*f, pool)
	return nil
}

func main() {
	var shards shardFlag
	var s cli.Serving
	s.Register(flag.CommandLine)
	flag.Var(&shards, "shard", "one shard's replica pool: 'url[,url...]' with optional '@weight'; repeat per shard, in shard order")
	attemptTimeout := flag.Duration("attempt-timeout", 2*time.Second, "per-replica scatter attempt timeout before failing over")
	maxAttempts := flag.Int("max-attempts", 0, "max replicas tried per shard per request (0 = pool size)")
	failThreshold := flag.Int("fail-threshold", 3, "consecutive failures that open a replica's circuit breaker")
	cooldown := flag.Duration("cooldown", 500*time.Millisecond, "first breaker cooldown; doubles per consecutive open cycle")
	cooldownMax := flag.Duration("cooldown-max", 30*time.Second, "breaker cooldown cap")
	cooldownJitter := flag.Float64("cooldown-jitter", 0.2, "random extra cooldown fraction added after capping, decorrelating fleet re-probes (0 = deterministic schedule)")
	jitterSeed := flag.Int64("jitter-seed", 0, "cooldown-jitter RNG seed (0 = from the clock)")
	hedgeAfter := flag.Duration("hedge-after", 0, "hedge a shard attempt outliving this at a second replica, first success wins (0 = hedging off)")
	hedgeQuantile := flag.Float64("hedge-quantile", 0.95, "once warmed up, hedge at this online per-shard latency quantile instead of the fixed -hedge-after (0 = always fixed)")
	extraRatio := flag.Float64("extra-ratio", 0.2, "retry/hedge token budget earned per primary attempt")
	extraBurst := flag.Float64("extra-burst", 10, "retry/hedge token budget capacity (exhausted = single-attempt behavior)")
	scatterFraction := flag.Float64("scatter-fraction", 0.65, "fraction of the remaining request budget given to the scatter stage (>= 1 disables sub-budgeting)")
	partial := flag.Bool("partial", false, "on whole-shard outage or spent sub-budget, merge surviving shards and answer degraded:true instead of 503")
	probeInterval := flag.Duration("probe-interval", time.Second, "health-check period per replica")
	probeTimeout := flag.Duration("probe-timeout", time.Second, "health-check request timeout")
	flag.Parse()

	if len(shards) == 0 {
		fmt.Fprintln(os.Stderr, "router: at least one -shard pool is required")
		os.Exit(2)
	}

	searcher, err := router.NewSearcher(router.Config{
		Shards:          shards,
		AttemptTimeout:  *attemptTimeout,
		MaxAttempts:     *maxAttempts,
		HedgeAfter:      *hedgeAfter,
		HedgeQuantile:   *hedgeQuantile,
		ExtraRatio:      *extraRatio,
		ExtraBurst:      *extraBurst,
		AllowPartial:    *partial,
		ScatterFraction: *scatterFraction,
		FailThreshold:   *failThreshold,
		CooldownBase:    *cooldown,
		CooldownMax:     *cooldownMax,
		CooldownJitter:  *cooldownJitter,
		JitterSeed:      *jitterSeed,
		ProbeInterval:   *probeInterval,
		ProbeTimeout:    *probeTimeout,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "router:", err)
		os.Exit(2)
	}
	searcher.Start()
	defer searcher.Close()

	// Listener up first: probes, /healthz and a 503 /readyz work while
	// the local pipeline builds.
	inner := s.Server()
	_, wait := cli.Listen(s.HTTP(router.NewRouter(inner, searcher).Handler()))
	fmt.Fprintf(os.Stderr, "router listening on %s over %d shards (not ready: building pipeline)\n", s.Addr, len(shards))

	// The router's own pipeline carries the query-understanding half —
	// lexicon, query-flow graph, recommender — built from the same seeds
	// as the workers' world. Its local index never scores a query (the
	// Searcher override sends retrieval to the workers); it exists so
	// surrogate vectors and cache epochs come from the identical world.
	fmt.Fprintf(os.Stderr, "building pipeline (seed %d, %d topics, %d sessions)...\n", s.Seed, s.Topics, s.Sessions)
	began := time.Now()
	pipe, err := repro.Build(s.Pipeline(engine.Config{Shards: len(shards)}))
	if err != nil {
		cli.Fatal("router", err)
	}
	pipe.Searcher = searcher
	s.Publish(inner, pipe)
	fmt.Fprintf(os.Stderr, "pipeline ready in %v; serving when every shard has a healthy replica (see /readyz)\n",
		time.Since(began).Round(time.Millisecond))

	if err := wait(); err != nil {
		cli.Fatal("router", err)
	}
}
