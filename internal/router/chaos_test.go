package router

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ranking"
	"repro/internal/server"
	"repro/internal/synth"
)

// ---- fault-injection harness -----------------------------------------

type faultMode int

const (
	faultNone    faultMode = iota
	faultRefused           // connection refused: the replica process is dead
	faultHang              // accepts, never answers: hung process / black-holed network
	fault500               // answers HTTP 500: sick but alive
	faultSlow              // answers after a delay: degraded but correct
	fault504               // answers HTTP 504: the propagated budget expired worker-side
)

// fakeNet is an in-memory transport: requests route to registered
// worker handlers by URL host, and per-host fault injection synthesizes
// the failure classes a real deployment sees — without real sockets, so
// chaos tests are fast and deterministic.
type fakeNet struct {
	mu     sync.Mutex
	hosts  map[string]http.Handler
	faults map[string]faultMode
	delay  time.Duration // faultSlow's added latency
}

func newFakeNet() *fakeNet {
	return &fakeNet{hosts: make(map[string]http.Handler), faults: make(map[string]faultMode)}
}

func (f *fakeNet) register(host string, h http.Handler) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.hosts[host] = h
}

func (f *fakeNet) setFault(host string, m faultMode) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.faults[host] = m
}

func (f *fakeNet) RoundTrip(req *http.Request) (*http.Response, error) {
	f.mu.Lock()
	h := f.hosts[req.URL.Host]
	mode := f.faults[req.URL.Host]
	delay := f.delay
	f.mu.Unlock()
	if h == nil {
		return nil, fmt.Errorf("fakeNet: unknown host %q", req.URL.Host)
	}
	switch mode {
	case faultRefused:
		return nil, &net.OpError{Op: "dial", Net: "tcp", Err: errors.New("connect: connection refused")}
	case faultHang:
		<-req.Context().Done()
		return nil, req.Context().Err()
	case fault500:
		return &http.Response{
			StatusCode: http.StatusInternalServerError,
			Header:     http.Header{"Content-Type": {"application/json"}},
			Body:       io.NopCloser(strings.NewReader(`{"error":"injected fault"}`)),
			Request:    req,
		}, nil
	case faultSlow:
		select {
		case <-time.After(delay):
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	case fault504:
		return &http.Response{
			StatusCode: http.StatusGatewayTimeout,
			Header:     http.Header{"Content-Type": {"application/json"}},
			Body:       io.NopCloser(strings.NewReader(`{"error":"search budget expired"}`)),
			Request:    req,
		}, nil
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// chaosWorld wires 2 shards x 2 replicas over the in-memory transport,
// with a single-process reference server alongside.
type chaosWorld struct {
	net      *fakeNet
	searcher *Searcher
	router   *httptest.Server
	single   *httptest.Server
}

func newChaosWorld(t *testing.T, cfg Config) *chaosWorld {
	t.Helper()
	return newChaosWorldOver(t, testPipeline(t), cfg)
}

// newChaosWorldOver is newChaosWorld over the world of p.
func newChaosWorldOver(t *testing.T, p *repro.Pipeline, cfg Config) *chaosWorld {
	t.Helper()
	fn := newFakeNet()
	for _, host := range []string{"s0a", "s0b", "s1a", "s1b"} {
		fn.register(host, NewWorker(p.Engine).Handler())
	}
	cfg.Shards = [][]ReplicaSpec{
		{{URL: "http://s0a"}, {URL: "http://s0b"}},
		{{URL: "http://s1a"}, {URL: "http://s1b"}},
	}
	cfg.Transport = fn
	s, err := NewSearcher(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.ProbeOnce(context.Background())
	if !s.Ready() {
		t.Fatalf("not ready after first probe: %+v", s.Stats())
	}
	w := &chaosWorld{
		net:      fn,
		searcher: s,
		router:   httptest.NewServer(NewRouter(server.New(routedPipeline(p, s).NewServeHandle(64, 2), server.Config{}), s).Handler()),
		single:   httptest.NewServer(server.New(p.NewServeHandle(64, 2), server.Config{}).Handler()),
	}
	t.Cleanup(w.router.Close)
	t.Cleanup(w.single.Close)
	return w
}

// expectSame sends the identical request to the router and the
// single-process reference (in lockstep, so cache state matches) and
// requires 200 + byte-identical bodies.
func (w *chaosWorld) expectSame(t *testing.T, q string, extra url.Values) {
	t.Helper()
	wantCode, want := fetch(t, searchURL(w.single.URL, q, extra))
	gotCode, got := fetch(t, searchURL(w.router.URL, q, extra))
	if wantCode != http.StatusOK {
		t.Fatalf("reference server failed: %d %s", wantCode, want)
	}
	if gotCode != http.StatusOK {
		t.Fatalf("client request failed through router: %d %s\nstats: %+v", gotCode, got, w.searcher.Stats())
	}
	if want != got {
		t.Fatalf("router response diverged:\nsingle: %s\nrouter: %s", want, got)
	}
}

// replicaStats digs one replica's row out of the stats snapshot.
func (w *chaosWorld) replicaStats(t *testing.T, shard int, url string) ReplicaStats {
	t.Helper()
	for _, ps := range w.searcher.Stats() {
		if ps.Shard != shard {
			continue
		}
		for _, rs := range ps.Replicas {
			if rs.URL == url {
				return rs
			}
		}
	}
	t.Fatalf("replica %s not in shard %d stats", url, shard)
	return ReplicaStats{}
}

// ---- the chaos gates -------------------------------------------------

// TestChaosZeroFailedRequests is the fault-injection gate: with 2
// shards x 2 replicas, killing (connection refused), hanging, 5xx-ing,
// or slowing one replica mid-run must produce ZERO failed client
// requests — every response stays 200 and byte-identical to the
// single-process reference, because the router fails over to the
// surviving replica within its per-attempt timeout budget.
func TestChaosZeroFailedRequests(t *testing.T) {
	w := newChaosWorld(t, Config{
		AttemptTimeout: 300 * time.Millisecond,
		FailThreshold:  2,
		CooldownBase:   50 * time.Millisecond,
		CooldownMax:    200 * time.Millisecond,
		ProbeInterval:  time.Hour, // probes driven manually
	})
	w.net.delay = 30 * time.Millisecond
	p := testPipeline(t)
	queries := []string{p.Testbed.TopicQuery(1), p.Testbed.TopicQuery(3)}

	warm := func(tag string) {
		for i, q := range queries {
			alg := core.Algorithms[i%len(core.Algorithms)]
			w.expectSame(t, q, url.Values{"alg": {string(alg)}, "k": {"8"}})
		}
		_ = tag
	}
	warm("healthy")

	for _, tc := range []struct {
		name string
		mode faultMode
	}{
		{"killed", faultRefused},
		{"hung", faultHang},
		{"http-500", fault500},
		{"slow-but-alive", faultSlow},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w.net.setFault("s0a", tc.mode)
			defer w.net.setFault("s0a", faultNone)
			// Several rounds: the first may burn the failing replica's
			// breaker threshold, later ones should route straight to the
			// healthy peer. All must succeed, bit-identically.
			for round := 0; round < 3; round++ {
				for _, q := range queries {
					for _, alg := range []core.Algorithm{core.AlgOptSelect, core.AlgXQuAD} {
						w.expectSame(t, q, url.Values{"alg": {string(alg)}, "k": {"8"}})
					}
				}
			}
			if tc.mode != faultSlow { // slow-but-alive never trips the breaker
				// The short cooldown may already have lapsed the breaker
				// into half_open by snapshot time; OpenCycles records that
				// it tripped.
				if rs := w.replicaStats(t, 0, "http://s0a"); rs.OpenCycles == 0 {
					t.Errorf("faulted replica breaker never opened (stats %+v)", rs)
				}
			}
			// Recover: clear the fault, sit out the cooldown, probe. The
			// breaker must re-admit the replica (half-open -> closed).
			w.net.setFault("s0a", faultNone)
			time.Sleep(w.searcher.cfg.CooldownMax + 20*time.Millisecond)
			w.searcher.ProbeOnce(context.Background())
			if rs := w.replicaStats(t, 0, "http://s0a"); rs.State != "closed" || !rs.Healthy {
				t.Fatalf("replica not re-admitted after recovery: %+v", rs)
			}
			warm("recovered")
		})
	}
}

// TestChaosReAdmissionTakesTraffic verifies re-admission end to end: a
// killed replica's breaker opens, and after recovery + cooldown +
// probe, live traffic actually reaches it again (its request counter
// advances), with responses still bit-identical throughout.
func TestChaosReAdmissionTakesTraffic(t *testing.T) {
	w := newChaosWorld(t, Config{
		AttemptTimeout: 300 * time.Millisecond,
		FailThreshold:  1, // first failure opens
		CooldownBase:   30 * time.Millisecond,
		CooldownMax:    100 * time.Millisecond,
		ProbeInterval:  time.Hour,
	})
	p := testPipeline(t)
	q := p.Testbed.TopicQuery(2)

	w.net.setFault("s0a", faultRefused)
	for i := 0; i < 4; i++ {
		w.expectSame(t, q, url.Values{"k": {"6"}})
	}
	down := w.replicaStats(t, 0, "http://s0a")
	if down.OpenCycles == 0 || down.Failures == 0 {
		t.Fatalf("killed replica: %+v, want a tripped breaker with failures", down)
	}

	w.net.setFault("s0a", faultNone)
	time.Sleep(150 * time.Millisecond)
	w.searcher.ProbeOnce(context.Background())
	readmitted := w.replicaStats(t, 0, "http://s0a")
	if readmitted.State != "closed" || !readmitted.Healthy {
		t.Fatalf("after cooldown+probe: %+v, want closed+healthy", readmitted)
	}

	before := readmitted.Requests
	for i := 0; i < 8; i++ { // WRR over two weight-1 replicas: ~half land here
		w.expectSame(t, q, url.Values{"k": {"6"}})
	}
	if after := w.replicaStats(t, 0, "http://s0a").Requests; after <= before {
		t.Errorf("re-admitted replica took no traffic (requests %d -> %d)", before, after)
	}
}

// TestChaosWholeShardDown: with EVERY replica of a shard dead the
// request cannot be answered — the router must shed it cleanly (503,
// not a hang or a partial result), and recover as soon as a replica
// returns.
func TestChaosWholeShardDown(t *testing.T) {
	w := newChaosWorld(t, Config{
		AttemptTimeout: 100 * time.Millisecond,
		FailThreshold:  1,
		CooldownBase:   20 * time.Millisecond,
		CooldownMax:    50 * time.Millisecond,
		ProbeInterval:  time.Hour,
	})
	p := testPipeline(t)
	q := p.Testbed.TopicQuery(1)
	w.expectSame(t, q, nil)

	w.net.setFault("s1a", faultRefused)
	w.net.setFault("s1b", faultRefused)
	code, body := fetch(t, searchURL(w.router.URL, q, url.Values{"k": {"5"}}))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("whole shard down: %d %s, want 503", code, body)
	}
	if !strings.Contains(body, "retrieval aborted") {
		t.Errorf("error body %q lacks the shed marker", body)
	}
	if w.searcher.Ready() {
		t.Error("searcher still Ready with a whole pool down")
	}

	w.net.setFault("s1a", faultNone)
	w.net.setFault("s1b", faultNone)
	time.Sleep(70 * time.Millisecond)
	w.searcher.ProbeOnce(context.Background())
	if !w.searcher.Ready() {
		t.Fatalf("searcher not ready after recovery: %+v", w.searcher.Stats())
	}
	w.expectSame(t, q, url.Values{"k": {"5"}})
}

// TestChaosClientCancelNotPenalized: a client hanging up mid-scatter
// must not count against the replica's breaker — otherwise impatient
// clients could eject healthy workers.
func TestChaosClientCancelNotPenalized(t *testing.T) {
	w := newChaosWorld(t, Config{
		AttemptTimeout: time.Hour, // only the client's context can end the attempt
		FailThreshold:  1,
		ProbeInterval:  time.Hour,
	})
	w.net.setFault("s0a", faultHang)
	w.net.setFault("s0b", faultHang)
	w.net.setFault("s1a", faultHang)
	w.net.setFault("s1b", faultHang)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := w.searcher.SearchBatch(ctx, []string{"topic01"}, []int{5})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context deadline", err)
	}
	for _, ps := range w.searcher.Stats() {
		for _, rs := range ps.Replicas {
			if rs.State != "closed" {
				t.Errorf("replica %s breaker %s after client cancel, want closed", rs.URL, rs.State)
			}
		}
	}
}

// TestChaosSlowReplicaHedged is the tail-tolerance gate: one replica
// hangs (the SIGSTOP scenario — TCP accepts, nothing answers) while the
// attempt timeout is far too long to save the request. Every request
// must still succeed bit-identically and fast, because the hedge fires
// at the trigger and the healthy peer answers; and the hung replica —
// which never *failed*, it just lost races — must show ZERO breaker
// failures and zero open cycles.
func TestChaosSlowReplicaHedged(t *testing.T) {
	w := newChaosWorld(t, Config{
		AttemptTimeout: 5 * time.Second, // never the rescuer: only hedging can keep requests fast
		HedgeAfter:     30 * time.Millisecond,
		HedgeQuantile:  0, // fixed trigger: deterministic test
		ExtraBurst:     64,
		FailThreshold:  2,
		ProbeInterval:  time.Hour,
	})
	p := testPipeline(t)
	queries := []string{p.Testbed.TopicQuery(1), p.Testbed.TopicQuery(3)}
	for _, q := range queries { // warm both artifact caches while healthy
		w.expectSame(t, q, url.Values{"k": {"8"}})
	}

	w.net.setFault("s0a", faultHang)
	defer w.net.setFault("s0a", faultNone)
	for round := 0; round < 3; round++ {
		for _, q := range queries {
			began := time.Now()
			w.expectSame(t, q, url.Values{"k": {"8"}})
			// Well under the 5s attempt timeout a hedge-less router would
			// pay whenever WRR picks the hung replica first.
			if took := time.Since(began); took > 3*time.Second {
				t.Fatalf("request took %v despite hedging (trigger 30ms)", took)
			}
		}
	}

	ts := w.searcher.TailStats()
	if ts.Hedges == 0 || ts.HedgeWins == 0 {
		t.Errorf("tail stats %+v, want hedges and hedge wins > 0", ts)
	}
	// The hung replica lost hedge races; it never failed an attempt. A
	// single breaker penalty here would mean hedge losers are being
	// punished for losing.
	if rs := w.replicaStats(t, 0, "http://s0a"); rs.Failures != 0 || rs.OpenCycles != 0 || rs.State != "closed" {
		t.Errorf("hung replica penalized by hedging: %+v, want 0 failures, 0 open cycles, closed", rs)
	}
}

// TestChaosBudgetExpiredNotPenalized: a worker answering 504 (its
// propagated X-Budget-Ms ran out mid-scoring) is the deadline's victim,
// not a sick process — with FailThreshold 1 even a single mischarged
// attempt would open the breaker, so a closed breaker after several
// rescued requests proves 504s never feed it.
func TestChaosBudgetExpiredNotPenalized(t *testing.T) {
	w := newChaosWorld(t, Config{
		AttemptTimeout: 300 * time.Millisecond,
		FailThreshold:  1, // one miscounted failure would open it — sharpest possible assertion
		ProbeInterval:  time.Hour,
	})
	p := testPipeline(t)
	q := p.Testbed.TopicQuery(2)

	w.net.setFault("s0a", fault504)
	defer w.net.setFault("s0a", faultNone)
	for i := 0; i < 6; i++ { // WRR alternates: half the primaries land on the 504er
		if _, err := w.searcher.SearchBatch(context.Background(), []string{q}, []int{5}); err != nil {
			t.Fatalf("request %d: %v (failover from a 504 should succeed)", i, err)
		}
	}

	ts := w.searcher.TailStats()
	if ts.BudgetExpired == 0 || ts.Retries == 0 {
		t.Errorf("tail stats %+v, want budget_expired and retries > 0", ts)
	}
	if rs := w.replicaStats(t, 0, "http://s0a"); rs.OpenCycles != 0 || rs.State != "closed" {
		t.Errorf("504ing replica's breaker tripped: %+v, want closed with 0 open cycles", rs)
	}
}

// TestChaosWholeShardDownPartial: the graceful-degradation gate. With
// partial results opted in and a whole pool dead, the router must keep
// answering 200 — never 503 — with the surviving shards correctly
// merged and the response honestly marked degraded (wire field + HTTP
// header + counters), then return to bit-identity once the shard heals.
func TestChaosWholeShardDownPartial(t *testing.T) {
	p := lazyPipelineShards(t, 2)
	w := newChaosWorldOver(t, p, Config{
		AttemptTimeout: 100 * time.Millisecond,
		AllowPartial:   true,
		FailThreshold:  1,
		CooldownBase:   20 * time.Millisecond,
		CooldownMax:    50 * time.Millisecond,
		ProbeInterval:  time.Hour,
	})
	q := p.Testbed.TopicQuery(1)
	// Partial mode enabled + healthy fleet: still bit-identical.
	w.expectSame(t, q, url.Values{"k": {"5"}})
	// A query the log never saw, asked twice while healthy: its "not
	// ambiguous" verdict is cached, so from now on the router asks each
	// shard for the k hit headers of the SERP and nothing more.
	// (A background word of the first document that the last one has too,
	// so both shards hold matches.)
	docs := synth.GenerateTestbed(p.Config.Corpus).Docs
	plain, last := "", " "+docs[len(docs)-1].Body+" "
	for _, word := range strings.Fields(docs[0].Body) {
		if strings.Contains(last, " "+word+" ") {
			plain = word
			break
		}
	}
	w.expectSame(t, plain, url.Values{"k": {"5"}})
	w.expectSame(t, plain, url.Values{"k": {"5"}})

	w.net.setFault("s1a", faultRefused)
	w.net.setFault("s1b", faultRefused)

	for i := 0; i < 4; i++ {
		resp, err := http.Get(searchURL(w.router.URL, q, url.Values{"k": {"5"}}))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d with a whole shard down: %d %s, want 200 degraded (never 503)", i, resp.StatusCode, body)
		}
		if !strings.Contains(string(body), `"degraded":true`) {
			t.Fatalf("request %d body lacks the degraded marker: %s", i, body)
		}
		if resp.Header.Get(server.HeaderDegraded) != "true" {
			t.Errorf("request %d: %s header = %q, want true", i, server.HeaderDegraded, resp.Header.Get(server.HeaderDegraded))
		}
	}

	// The degraded merge the serving route's Score answers must be exactly
	// the surviving shard's lists — shard 0 merged against nothing, each
	// candidate with its snippet's vector — not garbage or a partial blend.
	sh, err := p.Engine.SearchShard(context.Background(), 0, []string{q}, []int{8})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	var hits []ranking.Hit
	snippets := map[string]string{}
	if err := sh.Each(context.Background(), 0, true, func(h *engine.ShardHit) {
		hits = append(hits, ranking.Hit{Doc: h.Doc, DocID: h.DocID, Score: h.Score})
		snippets[h.DocID] = h.Snippet()
	}); err != nil {
		t.Fatal(err)
	}
	want := ranking.MergeSegments([][]ranking.Hit{hits, nil}, 8)
	sc, err := w.searcher.Score(context.Background(), p.Engine.Dictionary(), []string{q}, []int{8}, true)
	if err != nil || !sc.Info.Degraded {
		t.Fatalf("Score: err=%v info=%+v, want nil/degraded", err, sc)
	}
	vecs, err := vectorsOf(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Lists[0]) != len(want) {
		t.Fatalf("degraded Score has %d candidates, want %d (shard 0 only)", len(sc.Lists[0]), len(want))
	}
	for i, c := range sc.Lists[0] {
		if c.DocID != want[i].DocID || c.Score != want[i].Score || !reflect.DeepEqual(vecs[0][i], p.Engine.IVectorOfText(snippets[c.DocID])) {
			t.Fatalf("degraded Score[%d] = %+v, want %s/%g with its snippet's vector", i, c, want[i].DocID, want[i].Score)
		}
	}
	sc.Close()
	if ts := w.searcher.TailStats(); ts.Degraded == 0 || ts.ShardsDropped == 0 {
		t.Errorf("tail stats %+v, want degraded and shards_dropped > 0", ts)
	}

	// The same property through the whole serving route for the shallow
	// shard legs: the degraded SERP of the cached unambiguous query is the
	// surviving shard's own top k, in its order — and that is part of, not
	// all of, what the healthy fleet answers.
	var healthy, degraded server.SearchResponse
	for base, into := range map[string]*server.SearchResponse{w.single.URL: &healthy, w.router.URL: &degraded} {
		code, body := fetch(t, searchURL(base, plain, url.Values{"k": {"5"}}))
		if err := json.Unmarshal([]byte(body), into); code != http.StatusOK || err != nil {
			t.Fatalf("%q: %d %s (%v)", plain, code, body, err)
		}
	}
	survivors, err := p.Engine.SearchShard(context.Background(), 0, []string{plain}, []int{5})
	if err != nil {
		t.Fatal(err)
	}
	defer survivors.Close()
	var wantIDs, gotIDs, healthyIDs []string
	if err := survivors.Each(context.Background(), 0, false, func(h *engine.ShardHit) { wantIDs = append(wantIDs, h.DocID) }); err != nil {
		t.Fatal(err)
	}
	for _, r := range degraded.Results {
		gotIDs = append(gotIDs, r.ID)
	}
	for _, r := range healthy.Results {
		healthyIDs = append(healthyIDs, r.ID)
	}
	if !degraded.Degraded || !degraded.CacheHit || degraded.Ambiguous || len(wantIDs) == 0 || !reflect.DeepEqual(gotIDs, wantIDs) {
		t.Fatalf("degraded SERP of cached unambiguous %q = %v (degraded=%v hit=%v ambiguous=%v), want shard 0's top 5 %v",
			plain, gotIDs, degraded.Degraded, degraded.CacheHit, degraded.Ambiguous, wantIDs)
	}
	if reflect.DeepEqual(healthyIDs, wantIDs) {
		t.Fatalf("%q: the healthy SERP %v is shard 0's alone; the fixture query must draw on the shard that is down", plain, healthyIDs)
	}

	// Artifacts built during the outage are served, never cached: a query
	// first seen now misses every time it is asked.
	for i := 0; i < 3; i++ {
		code, body := fetch(t, searchURL(w.router.URL, p.Testbed.TopicQuery(4), url.Values{"k": {"5"}}))
		if code != http.StatusOK || !strings.Contains(body, `"degraded":true`) || !strings.Contains(body, `"cache_hit":false`) {
			t.Fatalf("request %d for a query first seen degraded: %d %s, want a degraded cache miss", i, code, body)
		}
	}

	// Heal: full-fidelity bit-identical service resumes (degraded
	// artifacts were never cached, so nothing stale survives recovery).
	w.net.setFault("s1a", faultNone)
	w.net.setFault("s1b", faultNone)
	time.Sleep(70 * time.Millisecond)
	w.searcher.ProbeOnce(context.Background())
	w.expectSame(t, q, url.Values{"k": {"5"}})
}

// TestChaosPartialReferenceStaysStrict: partial results are the serving
// route's concession, never the reference's. With AllowPartial on and a
// whole pool dead, DiversifyServe on the routed pipeline answers from the
// survivors and says so, while Pipeline.BuildProblem and Diversify — what
// the differential gates and the benchmark oracle compare against — refuse
// to: no candidate list merged from the surviving shards only, ever.
func TestChaosPartialReferenceStaysStrict(t *testing.T) {
	w := newChaosWorld(t, Config{
		AttemptTimeout: 100 * time.Millisecond,
		AllowPartial:   true,
		FailThreshold:  1,
		CooldownBase:   20 * time.Millisecond,
		CooldownMax:    50 * time.Millisecond,
		ProbeInterval:  time.Hour,
	})
	p := testPipeline(t)
	routed := routedPipeline(p, w.searcher)
	q := p.Testbed.TopicQuery(1)
	specs := routed.DetectSpecializations(q)
	if len(specs) == 0 {
		t.Fatalf("%q not ambiguous; the test is vacuous", q)
	}
	// Healthy fleet: the routed reference is the local one, bit for bit.
	if got, want := routed.BuildProblem(q, specs), p.BuildProblem(q, specs); !reflect.DeepEqual(got, want) {
		t.Fatal("routed BuildProblem differs from the local one on a healthy fleet")
	}

	w.net.setFault("s1a", faultRefused)
	w.net.setFault("s1b", faultRefused)

	sel, _, _, info, err := routed.NewServeHandle(8, 1).DiversifyServe(context.Background(), q, core.AlgOptSelect, 5)
	if err != nil || !info.Degraded || len(sel) == 0 {
		t.Fatalf("DiversifyServe with a whole shard down: %d results, info=%+v, err=%v; want a degraded answer", len(sel), info, err)
	}

	problem := routed.BuildProblem(q, specs)
	if n := len(problem.Candidates); n != 0 {
		t.Fatalf("BuildProblem with a whole shard down returned %d candidates merged from the surviving shard", n)
	}
	for _, s := range problem.Specs {
		if len(s.Results) != 0 {
			t.Fatalf("BuildProblem with a whole shard down returned a partial R_q′ list for %q", s.Query)
		}
	}
	if sel, _ := routed.Diversify(q, core.AlgOptSelect); len(sel) != 0 {
		t.Fatalf("Diversify with a whole shard down answered %d results from the surviving shard", len(sel))
	}
}

// TestChaosHedgeLoserFrames: a hedge loser that answers late, after the
// winner's frame is already merged, deposits a whole frame nobody reads.
// That frame must fall to the garbage collector; handing it (or the
// frame of an attempt still reading) back to the pool would let another
// request decode into bytes a goroutine is writing. Concurrent requests
// over slow-but-alive replicas make that interleaving constant; every
// answer must still be the local one, and under -race nothing may be
// reported.
func TestChaosHedgeLoserFrames(t *testing.T) {
	w := newChaosWorld(t, Config{
		AttemptTimeout: 5 * time.Second,
		HedgeAfter:     2 * time.Millisecond,
		HedgeQuantile:  0,
		ExtraRatio:     1,
		ExtraBurst:     1 << 20,
		FailThreshold:  100,
		ProbeInterval:  time.Hour,
	})
	w.net.delay = 12 * time.Millisecond
	w.net.setFault("s0a", faultSlow)
	w.net.setFault("s1b", faultSlow)
	p := testPipeline(t)
	queries := testQueries(p)
	ks := make([]int, len(queries))
	for i := range ks {
		ks[i] = 30
	}
	want, err := p.Engine.SearchBatch(context.Background(), queries, ks)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				sc, err := w.searcher.Score(context.Background(), p.Engine.Dictionary(), queries, ks, true)
				if err != nil {
					t.Error(err)
					return
				}
				vecs, err := vectorsOf(sc)
				sc.Close()
				if err != nil {
					t.Error(err)
					return
				}
				for q, list := range sc.Lists {
					if len(list) != len(want[q]) {
						t.Errorf("q=%q: %d candidates, want %d", queries[q], len(list), len(want[q]))
						return
					}
					for j, c := range list {
						if c.DocID != want[q][j].DocID || c.Score != want[q][j].Score ||
							!reflect.DeepEqual(vecs[q][j], p.Engine.IVectorOfText(want[q][j].Snippet)) {
							t.Errorf("q=%q #%d: %+v, want %s", queries[q], j, c, want[q][j].DocID)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	if ts := w.searcher.TailStats(); ts.Hedges == 0 || ts.HedgeWins == 0 {
		t.Errorf("tail stats %+v: the test needs hedges that win", ts)
	}
}

// TestChaosClientCancelMidHedge: a client hanging up while a hedge race
// is in flight must not leak the attempt goroutines (both racers are
// blocked in hung workers) and must not charge any replica's breaker.
func TestChaosClientCancelMidHedge(t *testing.T) {
	w := newChaosWorld(t, Config{
		AttemptTimeout: time.Hour,
		HedgeAfter:     20 * time.Millisecond,
		HedgeQuantile:  0,
		FailThreshold:  1,
		ProbeInterval:  time.Hour,
	})
	for _, host := range []string{"s0a", "s0b", "s1a", "s1b"} {
		w.net.setFault(host, faultHang)
	}
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Millisecond)
	defer cancel()
	_, err := w.searcher.SearchBatch(ctx, []string{"topic01"}, []int{5})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context deadline", err)
	}
	if ts := w.searcher.TailStats(); ts.Hedges == 0 {
		t.Errorf("tail stats %+v: no hedge launched before the cancel (trigger 20ms, deadline 120ms)", ts)
	}

	// All four attempt goroutines (2 primaries + up to 2 hedges) were
	// parked in hung workers; cancellation must unwind every one.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+2 {
		t.Errorf("goroutines %d -> %d after cancel mid-hedge: attempts leaked", before, n)
	}
	for _, ps := range w.searcher.Stats() {
		for _, rs := range ps.Replicas {
			if rs.State != "closed" || rs.Failures != 0 {
				t.Errorf("replica %s after cancel mid-hedge: state=%s failures=%d, want closed/0", rs.URL, rs.State, rs.Failures)
			}
		}
	}
}
