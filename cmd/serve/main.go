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
// the rest of the pipeline generates, and it is served with the shard
// partition it records unless -shards says otherwise.
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
	"time"

	"repro"
	"repro/internal/cli"
	"repro/internal/engine"
	"repro/internal/router"
	"repro/internal/synth"
)

// config is serve's command line: the flags it shares with router, plus
// its own engine, live-index and mode flags.
type config struct {
	cli.Serving
	shards     int
	walDir     string
	memtable   int
	mergeEvery time.Duration
	pprof      bool
	worker     bool
	index      string
	mmap       bool
}

func parseFlags(args []string) (*config, error) {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	c := new(config)
	c.Register(fs)
	fs.IntVar(&c.shards, "shards", 0, "index segments every retrieval fans out over in parallel; 0 = the partition an -index file records, else 1 (results are identical at any count)")
	fs.StringVar(&c.walDir, "wal-dir", "", "directory for durable epoch files; flushes/compactions persist there and a restart recovers the newest epoch (empty = in-memory only)")
	fs.IntVar(&c.memtable, "memtable", 0, "live-index write-buffer capacity before auto-flush (0 = default 1024, negative = never auto-flush)")
	fs.DurationVar(&c.mergeEvery, "merge-every", time.Minute, "background compaction interval for the live index (0 = never; compaction folds segments and tombstones back into one base segment)")
	fs.BoolVar(&c.pprof, "pprof", false, "expose net/http/pprof under /debug/pprof/ (do not enable on untrusted networks)")
	fs.BoolVar(&c.worker, "worker", false, "run as a shard worker of the distributed tier: build only the index and serve POST /shard/search (see cmd/router)")
	fs.StringVar(&c.index, "index", "", "persisted file to serve instead of rebuilding from the synthetic corpus: an RIDX7 index image (buildindex output) or an RENG3 epoch file")
	fs.BoolVar(&c.mmap, "mmap", false, "with -index: serve an RIDX7 image in place via mmap (instant startup, page-cache-shared memory)")
	return c, fs.Parse(args)
}

func (c *config) engine() engine.Config {
	return engine.Config{Shards: c.shards, MemtableCap: c.memtable, WALDir: c.walDir, Mmap: c.mmap}
}

// openIndex opens the -index file with the flags' engine settings.
func (c *config) openIndex() (*engine.Engine, error) {
	return engine.OpenIndexFile(c.index, c.engine())
}

func main() {
	c, err := parseFlags(os.Args[1:])
	if err == flag.ErrHelp {
		return
	}
	if err != nil {
		os.Exit(2)
	}
	if c.worker {
		runWorker(c)
		return
	}
	cfg := c.Pipeline(c.engine())
	if c.index != "" {
		if cfg.PrebuiltEngine, err = c.openIndex(); err != nil {
			cli.Fatal("serve", err)
		}
	}

	// The server starts not-ready and the listener binds immediately:
	// /healthz (liveness) answers during the build, /readyz flips to 200
	// only once the pipeline is published.
	srv := c.Server()
	handler := srv.Handler()
	if c.pprof {
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
	ctx, wait := cli.Listen(c.HTTP(handler))
	fmt.Fprintf(os.Stderr, "listening on %s (not ready: building pipeline)\n", c.Addr)

	fmt.Fprintf(os.Stderr, "building pipeline (seed %d, %d topics, %d sessions)...\n", c.Seed, c.Topics, c.Sessions)
	began := time.Now()
	pipe, err := repro.Build(cfg)
	if err != nil {
		cli.Fatal("serve", err)
	}
	storage := pipe.Engine.Index().Storage()
	fmt.Fprintf(os.Stderr, "pipeline ready in %v: %d docs indexed over %d shards (block-compressed postings, %d/block, %.2f B/posting), %d log records, %d sessions\n",
		time.Since(began).Round(time.Millisecond), pipe.Engine.NumDocs(), pipe.Engine.Segments().NumShards(),
		storage.BlockSize, storage.BytesPerPosting, pipe.Log.Len(), len(pipe.Sessions))

	c.Publish(srv, pipe)
	fmt.Fprintf(os.Stderr, "ready on %s (%d workers, cache %d entries / %d shards, default alg %s)\n",
		c.Addr, c.Workers, c.Cache, c.CacheShards, c.Alg)

	if c.mergeEvery > 0 {
		// Background compaction: fold accumulated segments and tombstones
		// back into one freshly built base on a fixed cadence. Compaction
		// holds only the engine's mutation lock — searches keep running
		// against the previous snapshot until the epoch swap.
		go compactEvery(ctx, pipe.Engine, c.mergeEvery)
	}
	if err := wait(); err != nil {
		cli.Fatal("serve", err)
	}
}

func compactEvery(ctx context.Context, eng *engine.Engine, every time.Duration) {
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			if _, err := eng.Compact(); err != nil {
				fmt.Fprintln(os.Stderr, "serve: background compaction:", err)
			}
		}
	}
}

// runWorker is the -worker mode: an index-only build (no query log, no
// recommender — workers run only the document scoring phase) behind the
// distributed tier's per-shard retrieval endpoint. The listener binds
// before the build so the router's probes see a live but not-ready
// replica instead of connection refused. With -index the index comes
// from a persisted file instead of a fresh build — combined with -mmap
// the worker is ready as soon as the file is mapped, which is what makes
// failover respawns effectively instant.
func runWorker(c *config) {
	w := router.NewWorker(nil)
	_, wait := cli.Listen(c.HTTP(w.Handler()))
	fmt.Fprintf(os.Stderr, "worker listening on %s (not ready: building index)\n", c.Addr)

	began := time.Now()
	var eng *engine.Engine
	var err error
	backing := "built"
	if c.index != "" {
		eng, err = c.openIndex()
		backing = "loaded"
		if err == nil && eng.Index().Mapped() {
			backing = "mapped"
		}
	} else {
		eng, err = engine.Build(synth.GenerateTestbed(c.Corpus()).Docs, c.engine())
	}
	if err != nil {
		cli.Fatal("serve: worker build", err)
	}
	w.Publish(eng)
	fmt.Fprintf(os.Stderr, "worker ready in %v: %d docs over %d shards (epoch %d, %s index)\n",
		time.Since(began).Round(time.Millisecond), eng.NumDocs(), eng.Segments().NumShards(), eng.Epoch(), backing)

	if err := wait(); err != nil {
		cli.Fatal("serve", err)
	}
}
