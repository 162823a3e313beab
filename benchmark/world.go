package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sync"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/synth"
	"repro/internal/text"
)

// world is one running set-up of a workload: the pipeline built from the
// seed, served on loopback the way cmd/serve (or cmd/router) serves it,
// and a client holding two keep-alive connections to it.
type world struct {
	w        workload
	pipe     *repro.Pipeline // as served: Searcher is set on routed
	srv      *server.Server
	searcher *router.Searcher // routed only
	wire     *wireCounter     // routed only
	servers  []*http.Server
	client   *http.Client
	base     string

	queries []string   // the workload's distinct queries, from GET /queries
	urls    []string   // urls[i] asks for queries[i]
	want    [][]string // want[i] is the oracle SERP of queries[i]; filled by setOracle
}

// config is the repro.Config of a workload: cmd/serve's defaults except
// what the workload states.
func (w workload) config(seed int64) repro.Config {
	corpus := w.corpus
	corpus.Seed = seed
	return repro.Config{
		Corpus:        corpus,
		Log:           synth.AOLLike(seed+1, w.sessions),
		Engine:        engine.Config{Shards: w.shards},
		NumCandidates: w.candidates,
		PerSpec:       perSpec,
		K:             w.k,
		Threshold:     threshold,
	}
}

// setUp builds and serves the workload's world. The returned duration is
// what setup_s reports: from the generated configuration to /readyz
// answering 200, which is what starting cmd/serve costs.
func setUp(w workload, seed int64) (*world, time.Duration, error) {
	began := time.Now()
	pipe, err := repro.Build(w.config(seed))
	if err != nil {
		return nil, 0, err
	}
	wd := &world{w: w, pipe: pipe}
	if w.routed {
		if err := wd.startShardTier(); err != nil {
			wd.close()
			return nil, 0, err
		}
	}
	wd.srv = server.New(pipe.NewServeHandle(w.cacheCap, w.cacheShard), server.Config{Workers: srvWorkers})
	front := wd.srv.Handler()
	if w.routed {
		front = router.NewRouter(wd.srv, wd.searcher).Handler()
	}
	if wd.base, err = wd.listen(front); err != nil {
		wd.close()
		return nil, 0, err
	}
	wd.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     clients,
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}}
	if err := wd.awaitReady(); err != nil {
		wd.close()
		return nil, 0, err
	}
	took := time.Since(began)
	if err := wd.readQueries(); err != nil {
		wd.close()
		return nil, 0, err
	}
	return wd, took, nil
}

// warmUp asks for every distinct query once, which fills the artifact
// cache where it is large enough to hold them.
func (wd *world) warmUp() error {
	for i := range wd.urls {
		if r := wd.fetch(i); r.err != nil {
			return fmt.Errorf("warm-up %q: %w", wd.queries[i], r.err)
		}
	}
	return nil
}

// startShardTier serves the pipeline's engine through one worker per
// shard and swaps the pipeline's document scoring for the scatter-gather
// searcher over them, as cmd/router does (one replica per shard, hedging
// off). The workers share the router pipeline's engine: all tiers live
// in this process.
func (wd *world) startShardTier() error {
	var pools [][]router.ReplicaSpec
	for s := 0; s < wd.w.shards; s++ {
		base, err := wd.listen(router.NewWorker(wd.pipe.Engine).Handler())
		if err != nil {
			return err
		}
		pools = append(pools, []router.ReplicaSpec{{URL: base}})
	}
	wd.wire = &wireCounter{next: &http.Transport{MaxIdleConnsPerHost: srvWorkers}}
	s, err := router.NewSearcher(router.Config{Shards: pools, Transport: wd.wire})
	if err != nil {
		return err
	}
	s.ProbeOnce(context.Background())
	s.Start()
	wd.searcher = s
	wd.pipe.Searcher = s
	return nil
}

// listen serves h on a free loopback port with cmd/serve's timeouts.
func (wd *world) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	wd.servers = append(wd.servers, hs)
	go hs.Serve(ln) // returns when close shuts hs down
	return "http://" + ln.Addr().String(), nil
}

// awaitReady polls /readyz until it answers 200.
func (wd *world) awaitReady() error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := wd.client.Get(wd.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: not ready after 10s (last error: %v)", wd.w.name, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// readQueries reads the served query list and keeps the workload's share
// of it.
func (wd *world) readQueries() error {
	resp, err := wd.client.Get(wd.base + "/queries")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var qr server.QueriesResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		return fmt.Errorf("decoding /queries: %w", err)
	}
	if len(qr.Queries) < wd.w.corpus.NumTopics {
		return fmt.Errorf("/queries lists %d queries, want at least %d", len(qr.Queries), wd.w.corpus.NumTopics)
	}
	wd.queries = wd.w.distinct(qr.Queries)
	wd.urls = make([]string, len(wd.queries))
	for i, q := range wd.queries {
		wd.urls[i] = wd.base + "/search?q=" + url.QueryEscape(q)
	}
	return nil
}

// setOracle computes the expected SERP of every distinct query with
// Pipeline.Diversify on an uncached, single-process copy of the
// pipeline: the repo's bit-identity contract says every serving path,
// the routed one included, must return exactly these documents in this
// order.
func (wd *world) setOracle() {
	local := *wd.pipe
	local.Searcher = nil
	wd.want = make([][]string, len(wd.queries))
	for i, q := range wd.queries {
		sel, _ := local.Diversify(text.NormalizeQuery(q), core.AlgOptSelect)
		wd.want[i] = core.IDs(sel)
	}
}

// close stops every server and goroutine the set-up started and waits
// for them.
func (wd *world) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if wd.client != nil {
		wd.client.CloseIdleConnections()
	}
	if wd.searcher != nil {
		wd.searcher.Close()
		wd.wire.next.CloseIdleConnections()
	}
	for _, hs := range wd.servers {
		hs.Shutdown(ctx)
	}
}

// wireCounter is the http.RoundTripper the routed workload hands to
// router.Config.Transport: it counts the shard searches the router
// sends, their bytes both ways, and the time from sending a request to
// reading the last byte of its answer.
type wireCounter struct {
	next *http.Transport

	mu    sync.Mutex
	hops  int
	bytes int64
	rttMs []float64
}

func (c *wireCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method != http.MethodPost { // a /readyz probe, not a shard search
		return c.next.RoundTrip(req)
	}
	began := time.Now()
	resp, err := c.next.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &countedBody{ReadCloser: resp.Body, c: c, began: began, n: req.ContentLength}
	return resp, nil
}

type countedBody struct {
	io.ReadCloser
	c     *wireCounter
	began time.Time
	n     int64
	done  bool
}

func (b *countedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	if err == io.EOF {
		b.record()
	}
	return n, err
}

func (b *countedBody) Close() error {
	b.record()
	return b.ReadCloser.Close()
}

func (b *countedBody) record() {
	if b.done {
		return
	}
	b.done = true
	ms := float64(time.Since(b.began)) / 1e6
	b.c.mu.Lock()
	b.c.hops++
	b.c.bytes += b.n
	b.c.rttMs = append(b.c.rttMs, ms)
	b.c.mu.Unlock()
}

// take returns what was counted since the last call and starts over.
func (c *wireCounter) take() (hops int, bytes int64, rttMs []float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	hops, bytes, rttMs = c.hops, c.bytes, c.rttMs
	c.hops, c.bytes, c.rttMs = 0, 0, nil
	return
}
