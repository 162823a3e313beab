// Command serve runs the concurrent diversification service. It builds
// the full pipeline once at startup (synthetic testbed, inverted index,
// query log, query-flow graph, recommender) and then answers queries over
// HTTP through a bounded worker pool and a sharded LRU cache of per-query
// diversification artifacts — the serving architecture the paper's §6
// outlook sketches. Pair it with loadgen for an end-to-end benchmark.
//
//	serve                                   # defaults: :8080, 8 workers, 1 shard
//	serve -addr :9090 -workers 16 -cache 4096
//	serve -shards 4                         # retrieval fans out over 4 index segments
//	serve -no-prune                         # exhaustive retrieval (MaxScore pruning off)
//	serve -topics 20 -sessions 8000 -alg xquad -k 20
//	serve -wal-dir /var/lib/repro           # durable epochs; restart recovers them
//	serve -memtable 512 -merge-every 30s    # live-index tuning
//	serve -pprof                            # expose /debug/pprof/ too
//	serve -worker -shards 2 -addr :9101     # shard worker for the distributed tier
//	serve -worker -index index.ridx7 -mmap  # worker over a persisted index, mmap-served
//	serve -index index.ridx7 -mmap          # full service over a persisted index
//
// With -index the engine comes from a persisted file (an RIDX7 index
// image from buildindex, or an RENG3 epoch file from -wal-dir) instead of
// being rebuilt from the synthetic corpus; -mmap additionally serves an
// RIDX7 image in place off the page cache — no heap copy at startup,
// which is what makes worker (re)starts effectively instant. The file
// must have been built over the same deterministic world (-seed/-topics)
// the rest of the pipeline generates.
//
// The listener binds before the pipeline builds: /healthz answers 200
// (liveness) immediately, /readyz answers 503 until the index is
// published, and a router or load balancer should gate traffic on
// /readyz, not /healthz.
//
// With -worker the binary becomes a shard worker of the distributed
// serving tier (see cmd/router): it builds only the deterministic
// testbed and index — no query log, no recommender — and serves
// per-shard retrieval over POST /shard/search plus /healthz and
// /readyz. Workers serve an immutable snapshot; the live-mutation
// endpoints do not exist in worker mode.
//
// Endpoints: /search?q=…&k=…&alg=…, /healthz, /readyz, /stats (includes
// per-endpoint latency histograms), /queries, plus the live-index
// mutations POST /ingest, /delete, /flush, /compact; with -pprof also the
// net/http/pprof suite under /debug/pprof/ for in-situ profiling of the
// serving path (CPU: /debug/pprof/profile, heap: /debug/pprof/heap).
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/synth"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	seed := flag.Int64("seed", 1, "testbed + log seed (deterministic world)")
	topics := flag.Int("topics", 12, "ambiguous topics in the synthetic testbed")
	sessions := flag.Int("sessions", 6000, "training query-log sessions")
	candidates := flag.Int("candidates", 500, "|R_q|, candidates retrieved per query")
	perSpec := flag.Int("perspec", 20, "|R_q'|, stored results per specialization")
	k := flag.Int("k", 10, "default diversified SERP size")
	threshold := flag.Float64("threshold", 0.30, "utility threshold c")
	workers := flag.Int("workers", 8, "max concurrent diversifications")
	queueTimeout := flag.Duration("queue-timeout", 5*time.Second, "max wait for a worker slot")
	cacheCap := flag.Int("cache", 1024, "query-artifact cache capacity (entries)")
	cacheShards := flag.Int("cache-shards", 16, "cache shard count")
	shards := flag.Int("shards", 1, "index segments; every retrieval fans out over this many shards in parallel (results are identical at any count)")
	noPrune := flag.Bool("no-prune", false, "disable MaxScore dynamic pruning and retrieve exhaustively (results are identical either way; pruning is just faster)")
	alg := flag.String("alg", string(core.AlgOptSelect), "default algorithm (baseline|optselect|xquad|iaselect|mmr)")
	maxK := flag.Int("maxk", 100, "cap on per-request k")
	budget := flag.Duration("budget", 0, "default end-to-end /search budget (0 = none; per-request X-Search-Budget overrides)")
	walDir := flag.String("wal-dir", "", "directory for durable epoch files; flushes/compactions persist there and a restart recovers the newest epoch (empty = in-memory only)")
	memtableCap := flag.Int("memtable", 0, "live-index write-buffer capacity before auto-flush (0 = default 1024, negative = never auto-flush)")
	mergeEvery := flag.Duration("merge-every", time.Minute, "background compaction interval for the live index (0 = never; compaction folds segments and tombstones back into one base segment)")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (do not enable on untrusted networks)")
	workerMode := flag.Bool("worker", false, "run as a shard worker of the distributed tier: build only the index and serve POST /shard/search (see cmd/router)")
	indexPath := flag.String("index", "", "persisted file to serve instead of rebuilding from the synthetic corpus: an RIDX7 index image (buildindex output) or an RENG3 epoch file")
	mmapOn := flag.Bool("mmap", false, "with -index: serve an RIDX7 image in place via mmap (instant startup, page-cache-shared memory)")
	readTimeout := flag.Duration("read-timeout", 30*time.Second, "http.Server ReadTimeout: max time to read a full request (0 = unlimited)")
	writeTimeout := flag.Duration("write-timeout", 60*time.Second, "http.Server WriteTimeout: max time to write a full response (0 = unlimited)")
	idleTimeout := flag.Duration("idle-timeout", 120*time.Second, "http.Server IdleTimeout: max keep-alive idle time per connection (0 = unlimited)")
	flag.Parse()

	defaultAlg := core.Algorithm(*alg)
	if !defaultAlg.Valid() {
		fmt.Fprintf(os.Stderr, "serve: unknown -alg %q (valid: %v)\n", *alg, core.Algorithms)
		os.Exit(2)
	}

	cfg := repro.Config{
		Corpus: synth.CorpusSpec{Seed: *seed, NumTopics: *topics},
		Log:    synth.AOLLike(*seed+1, *sessions),
		Engine: engine.Config{
			Shards:         *shards,
			DisablePruning: *noPrune,
			MemtableCap:    *memtableCap,
			WALDir:         *walDir,
			Mmap:           *mmapOn,
		},
		NumCandidates: *candidates,
		PerSpec:       *perSpec,
		K:             *k,
		Threshold:     *threshold,
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *workerMode {
		runWorker(ctx, httpSrv, cfg, *indexPath)
		return
	}
	if *indexPath != "" {
		eng, err := engine.OpenIndexFile(*indexPath, cfg.Engine)
		if err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			os.Exit(1)
		}
		cfg.PrebuiltEngine = eng
	}

	// The server starts not-ready and the listener binds immediately:
	// /healthz (liveness) answers during the build, /readyz flips to 200
	// only once the pipeline is published.
	srv := server.New(nil, server.Config{
		Workers:       *workers,
		QueueTimeout:  *queueTimeout,
		DefaultAlg:    defaultAlg,
		MaxK:          *maxK,
		DefaultBudget: *budget,
	})

	handler := srv.Handler()
	if *pprofOn {
		// Mount the pprof suite next to the API on an explicit mux — the
		// server package stays profiling-agnostic and the handlers exist
		// only when asked for.
		root := http.NewServeMux()
		root.Handle("/", handler)
		root.HandleFunc("/debug/pprof/", pprof.Index)
		root.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		root.HandleFunc("/debug/pprof/profile", pprof.Profile)
		root.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		root.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = root
		fmt.Fprintln(os.Stderr, "pprof enabled on /debug/pprof/")
	}
	httpSrv.Handler = handler

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "listening on %s (not ready: building pipeline)\n", *addr)

	fmt.Fprintf(os.Stderr, "building pipeline (seed %d, %d topics, %d sessions)...\n", *seed, *topics, *sessions)
	began := time.Now()
	pipe, err := repro.Build(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
	pruning := "maxscore pruning"
	if !pipe.Engine.PruningEnabled() {
		pruning = "exhaustive retrieval"
	}
	storage := pipe.Engine.Index().Storage()
	layout := fmt.Sprintf("block-compressed postings, %d/block, %.2f B/posting", storage.BlockSize, storage.BytesPerPosting)
	fmt.Fprintf(os.Stderr, "pipeline ready in %v: %d docs indexed over %d shards (%s; %s), %d log records, %d sessions\n",
		time.Since(began).Round(time.Millisecond), pipe.Engine.NumDocs(),
		pipe.Engine.Segments().NumShards(), pruning, layout, pipe.Log.Len(), len(pipe.Sessions))

	srv.Publish(pipe.NewServeHandle(*cacheCap, *cacheShards))
	fmt.Fprintf(os.Stderr, "ready on %s (%d workers, cache %d entries / %d shards, default alg %s)\n",
		*addr, *workers, *cacheCap, *cacheShards, *alg)

	if *mergeEvery > 0 {
		// Background compaction: fold accumulated segments and tombstones
		// back into one freshly built base on a fixed cadence. Compaction
		// holds only the engine's mutation lock — searches keep running
		// against the previous snapshot until the epoch swap.
		go func() {
			tick := time.NewTicker(*mergeEvery)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					if _, err := pipe.Engine.Compact(); err != nil {
						fmt.Fprintln(os.Stderr, "serve: background compaction:", err)
					}
				}
			}
		}()
	}

	waitAndShutdown(ctx, httpSrv, errc)
}

// runWorker is the -worker mode: an index-only build (no query log, no
// recommender — workers run only the document scoring phase) behind the
// distributed tier's per-shard retrieval endpoint. The listener binds
// before the build so the router's probes see a live but not-ready
// replica instead of connection refused. With indexPath the index comes
// from a persisted file instead of a fresh build — combined with -mmap
// the worker is ready as soon as the file is mapped, which is what makes
// failover respawns effectively instant.
func runWorker(ctx context.Context, httpSrv *http.Server, cfg repro.Config, indexPath string) {
	w := router.NewWorker(nil)
	httpSrv.Handler = w.Handler()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "worker listening on %s (not ready: building index)\n", httpSrv.Addr)

	began := time.Now()
	var eng *engine.Engine
	var err error
	if indexPath != "" {
		eng, err = engine.OpenIndexFile(indexPath, cfg.Engine)
	} else {
		tb := synth.GenerateTestbed(cfg.Corpus)
		eng, err = engine.Build(tb.Docs, cfg.Engine)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve: worker build:", err)
		os.Exit(1)
	}
	w.Publish(eng)
	backing := "built"
	if indexPath != "" {
		backing = "loaded"
		if eng.Index().Mapped() {
			backing = "mapped"
		}
	}
	fmt.Fprintf(os.Stderr, "worker ready in %v: %d docs over %d shards (epoch %d, %s index)\n",
		time.Since(began).Round(time.Millisecond), eng.NumDocs(), eng.Segments().NumShards(), eng.Epoch(), backing)

	waitAndShutdown(ctx, httpSrv, errc)
}

// waitAndShutdown blocks until the listener fails or a signal arrives,
// then drains gracefully.
func waitAndShutdown(ctx context.Context, httpSrv *http.Server, errc chan error) {
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "shutting down...")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintln(os.Stderr, "serve: shutdown:", err)
			os.Exit(1)
		}
	}
}
