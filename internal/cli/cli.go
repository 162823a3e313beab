// Package cli holds what the command-line tools declare alike: the flags
// of the deterministic synthetic world, the flags serve and router share,
// and the listen-then-drain life of an HTTP service.
package cli

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/synth"
)

// World is the deterministic synthetic world a command generates: the
// testbed seed (the query log's is Seed+1), the number of ambiguous
// topics, and the number of query-log sessions.
type World struct {
	Seed     int64
	Topics   int
	Sessions int
}

// Register declares -seed, plus -topics and -sessions when w holds a
// nonzero default for them; a command without one of those knobs leaves
// it zero. The values w holds are the defaults, and parsing overwrites
// them.
func (w *World) Register(fs *flag.FlagSet) {
	fs.Int64Var(&w.Seed, "seed", w.Seed, "generator seed (the query log uses seed+1)")
	if w.Topics != 0 {
		fs.IntVar(&w.Topics, "topics", w.Topics, "ambiguous topics in the synthetic testbed")
	}
	if w.Sessions != 0 {
		fs.IntVar(&w.Sessions, "sessions", w.Sessions, "query-log sessions")
	}
}

// Corpus is the world's testbed spec.
func (w World) Corpus() synth.CorpusSpec {
	return synth.CorpusSpec{Seed: w.Seed, NumTopics: w.Topics}
}

// Log is the world's AOL-like query-log spec.
func (w World) Log() synth.LogSpec { return synth.AOLLike(w.Seed+1, w.Sessions) }

// Serving is the configuration serve and router share: the world and the
// request defaults of the pipeline, the artifact cache, the worker pool
// and the HTTP listener. A router and its shard workers must be started
// with the same world flags.
type Serving struct {
	World
	Candidates  int
	K           int
	Threshold   float64
	Cache       int
	CacheShards int
	Workers     int
	Alg         core.Algorithm
	Budget      time.Duration
	Addr        string
	// The http.Server timeouts; 0 means unlimited.
	ReadTimeout, WriteTimeout, IdleTimeout time.Duration
}

// Register declares the shared serving flags with their defaults.
func (s *Serving) Register(fs *flag.FlagSet) {
	s.World = World{Seed: 1, Topics: 12, Sessions: 6000}
	s.World.Register(fs)
	fs.IntVar(&s.Candidates, "candidates", 500, "|R_q|, candidates retrieved per query")
	fs.IntVar(&s.K, "k", 10, "default diversified SERP size")
	fs.Float64Var(&s.Threshold, "threshold", 0.30, "utility threshold c")
	fs.IntVar(&s.Cache, "cache", 1024, "query-artifact cache capacity (entries)")
	fs.IntVar(&s.CacheShards, "cache-shards", 16, "cache shard count")
	fs.IntVar(&s.Workers, "workers", 8, "max concurrent diversifications")
	s.Alg = core.AlgOptSelect
	fs.Func("alg", fmt.Sprintf("default algorithm %v (default %s)", core.Algorithms, s.Alg), func(v string) error {
		if !core.Algorithm(v).Valid() {
			return fmt.Errorf("unknown algorithm %q", v)
		}
		s.Alg = core.Algorithm(v)
		return nil
	})
	fs.DurationVar(&s.Budget, "budget", 0, "default end-to-end /search budget (0 = none; per-request X-Search-Budget overrides)")
	fs.StringVar(&s.Addr, "addr", ":8080", "listen address")
	fs.DurationVar(&s.ReadTimeout, "read-timeout", 30*time.Second, "http.Server ReadTimeout: max time to read a full request (0 = unlimited)")
	fs.DurationVar(&s.WriteTimeout, "write-timeout", 60*time.Second, "http.Server WriteTimeout: max time to write a full response (0 = unlimited)")
	fs.DurationVar(&s.IdleTimeout, "idle-timeout", 120*time.Second, "http.Server IdleTimeout: max keep-alive idle time per connection (0 = unlimited)")
}

// Pipeline is the repro.Config the flags describe, over the given engine
// settings.
func (s *Serving) Pipeline(eng engine.Config) repro.Config {
	return repro.Config{
		Corpus:        s.Corpus(),
		Log:           s.Log(),
		Engine:        eng,
		NumCandidates: s.Candidates,
		K:             s.K,
		Threshold:     s.Threshold,
	}
}

// Server is a not-yet-ready diversification server over the flags' pool
// and defaults; Publish makes it serve.
func (s *Serving) Server() *server.Server {
	return server.New(nil, server.Config{
		Workers:       s.Workers,
		DefaultAlg:    s.Alg,
		DefaultBudget: s.Budget,
	})
}

// Publish starts srv answering from pipe behind the flags' artifact cache.
func (s *Serving) Publish(srv *server.Server, pipe *repro.Pipeline) {
	srv.Publish(pipe.NewServeHandle(s.Cache, s.CacheShards))
}

// HTTP is the listener the flags describe, serving h.
func (s *Serving) HTTP(h http.Handler) *http.Server {
	return &http.Server{
		Addr:              s.Addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       s.ReadTimeout,
		WriteTimeout:      s.WriteTimeout,
		IdleTimeout:       s.IdleTimeout,
	}
}

// Listen starts srv in the background, so the listener is bound (and
// /healthz answers) while the caller builds what it serves. ctx ends on
// SIGINT or SIGTERM. wait blocks until the listener fails or ctx ends,
// then drains in-flight requests for up to ten seconds.
func Listen(srv *http.Server) (ctx context.Context, wait func() error) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	return ctx, func() error {
		defer stop()
		select {
		case err := <-errc:
			return err
		case <-ctx.Done():
			fmt.Fprintln(os.Stderr, "shutting down...")
			drain, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			return srv.Shutdown(drain)
		}
	}
}

// Fatal prints "prog: err" to stderr and exits with status 1.
func Fatal(prog string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", prog, err)
	os.Exit(1)
}
