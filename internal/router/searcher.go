package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/engine"
	"repro/internal/ranking"
	"repro/internal/textsim"
)

// ReplicaSpec declares one worker endpoint of a shard's pool. Weight
// biases the smooth weighted round-robin (<= 0 means 1): a replica with
// weight 2 takes twice the traffic of a weight-1 peer.
type ReplicaSpec struct {
	URL    string
	Weight int
}

// Config assembles a distributed Searcher. Only Shards is required.
type Config struct {
	// Shards[i] is the replica pool serving shard i; every pool needs at
	// least one replica. The shard count must match the workers'
	// partition (-shards), which probes verify via /readyz.
	Shards [][]ReplicaSpec

	// Transport carries all worker traffic. Nil: a transport of the
	// searcher's own, whose idle pool keeps a connection per search a
	// worker admits (http.DefaultTransport keeps two per host and redials
	// the rest under load); Close closes its idle connections. Tests
	// inject an in-memory fault-injecting RoundTripper here.
	Transport http.RoundTripper

	// AttemptTimeout bounds one scatter attempt against one replica
	// (default 2s); on expiry the searcher fails over to the next
	// healthy replica. Retrying is safe unconditionally: /shard/search
	// is a pure read of an immutable snapshot.
	AttemptTimeout time.Duration
	// MaxAttempts bounds the attempts (primary + hedges + failover
	// retries) per shard per request (default: the pool size — each
	// replica at most once).
	MaxAttempts int

	// HedgeAfter enables hedged requests: when a shard's attempt has
	// been in flight this long without answering, a second attempt is
	// fired at the next-best replica and the first success wins, with
	// the loser promptly canceled (default 0: hedging disabled). Hedge
	// cancellations never count as breaker failures.
	HedgeAfter time.Duration
	// HedgeQuantile, when in (0,1), replaces the fixed trigger with the
	// online per-shard latency quantile (e.g. 0.95 hedges anything
	// slower than the pool's recent p95) once the pool's window has
	// latMinSamples successes. Ignored while HedgeAfter is 0.
	HedgeQuantile float64

	// ExtraRatio and ExtraBurst parameterize the global token bucket
	// bounding extra attempts (hedges + failover retries): each primary
	// attempt earns ExtraRatio tokens (capped at ExtraBurst), each extra
	// attempt spends one. An exhausted bucket degrades to single-attempt
	// behavior instead of amplifying a brownout into a retry storm.
	// Defaults 0.2 and 10.
	ExtraRatio float64
	ExtraBurst float64

	// AllowPartial opts Score — the serving path's scatter — into
	// graceful degradation: when a whole pool is down (or a shard's
	// sub-budget expires) but at least one shard answered, the survivors
	// are merged and the response marked degraded instead of failing.
	// SearchBatch is always strict — the reference route and the
	// bit-identity gates run through it.
	AllowPartial bool

	// ScatterFraction carves the scatter sub-budget from the remaining
	// request budget when the caller's context carries a deadline:
	// attempts get fraction*remaining, reserving the rest for the merge
	// and diversification stages (default 0.65; >= 1 disables
	// sub-budgeting). The remaining attempt budget is propagated to
	// workers via the X-Budget-Ms header.
	ScatterFraction float64

	// FailThreshold consecutive failures open a replica's breaker
	// (default 3; a failure during half-open probation reopens
	// immediately).
	FailThreshold int
	// CooldownBase is the first open cooldown; each consecutive open
	// cycle doubles it up to CooldownMax (defaults 500ms, 30s).
	// CooldownJitter adds up to that fraction of random extra cooldown
	// after capping (default 0: deterministic schedule), decorrelating
	// re-probes across a router fleet; JitterSeed pins the per-pool RNG
	// for tests (0: seeded from the clock).
	CooldownBase   time.Duration
	CooldownMax    time.Duration
	CooldownJitter float64
	JitterSeed     int64

	// ProbeInterval spaces the health-check rounds (default 1s);
	// ProbeTimeout bounds each GET /readyz (default 1s).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration

	// Now overrides the clock (tests drive breaker cooldowns without
	// sleeping). Nil: time.Now.
	Now func() time.Time
}

// workerSearches is how many shard searches one worker runs at a time
// for one router: internal/server admits 8 diversifications at once
// (cmd/router -workers), each with at most one scatter and one artifact
// build in flight against any shard.
const workerSearches = 16

func (c Config) withDefaults() Config {
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = 2 * time.Second
	}
	if c.ExtraRatio <= 0 {
		c.ExtraRatio = 0.2
	}
	if c.ExtraBurst <= 0 {
		c.ExtraBurst = 10
	}
	if c.ScatterFraction <= 0 {
		c.ScatterFraction = 0.65
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.CooldownBase <= 0 {
		c.CooldownBase = 500 * time.Millisecond
	}
	if c.CooldownMax <= 0 {
		c.CooldownMax = 30 * time.Second
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Searcher is the distributed document scoring phase: a repro.Searcher
// that scatters each query batch over one replica per shard, gathers
// the per-shard frames, and k-way merges their hit lists with the same
// deterministic merge the in-process fan-out uses — so its output is
// bit-identical to the local engine's over the same world. With
// AllowPartial set, a dead shard degrades what Score answers instead of
// failing it.
type Searcher struct {
	cfg    Config
	pools  []*pool
	client *http.Client
	// own is the transport the searcher built for itself (nil when the
	// config brought one), whose idle connections Close closes.
	own *http.Transport

	// extra is the global budget for hedges + failover retries; tail
	// holds the tail-tolerance counters surfaced at /stats.
	extra *tokenBucket
	tail  tailCounters

	// expectedEpoch pins the fleet to the first snapshot epoch seen; a
	// replica answering from a diverged snapshot is treated as failed
	// rather than have its lists merged with the rest of the fleet's.
	mu         sync.Mutex
	epochSet   bool
	epochValue uint64

	// dict is the fingerprint of the router's own dictionary, as of the
	// pipeline's latest Score call (nil before the first: the searcher is
	// built before the pipeline's engine). Probes and frames that
	// disagree with it fail.
	dict atomic.Pointer[engine.DictFingerprint]

	stopOnce sync.Once
	stop     chan struct{}
	probes   sync.WaitGroup
}

// NewSearcher validates the topology and builds the pools. Probing does
// not start until Start; call ProbeOnce for a synchronous first round.
func NewSearcher(cfg Config) (*Searcher, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Shards) == 0 {
		return nil, errors.New("router: no shards configured")
	}
	s := &Searcher{
		cfg:   cfg,
		extra: newTokenBucket(cfg.ExtraRatio, cfg.ExtraBurst),
		stop:  make(chan struct{}),
	}
	if cfg.Transport == nil {
		s.own = http.DefaultTransport.(*http.Transport).Clone()
		s.own.MaxIdleConnsPerHost = workerSearches
		s.own.MaxIdleConns = 0 // per-host limits only: a fleet is many hosts
		cfg.Transport = s.own
	}
	s.client = &http.Client{Transport: cfg.Transport}
	seed := cfg.JitterSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	bcfg := breakerConfig{
		threshold: cfg.FailThreshold,
		base:      cfg.CooldownBase,
		max:       cfg.CooldownMax,
		jitter:    cfg.CooldownJitter,
	}
	for si, specs := range cfg.Shards {
		if len(specs) == 0 {
			return nil, fmt.Errorf("router: shard %d has no replicas", si)
		}
		p := &pool{
			shard: si,
			bcfg:  bcfg,
			rng:   rand.New(rand.NewSource(seed + int64(si))),
		}
		for _, spec := range specs {
			w := spec.Weight
			if w <= 0 {
				w = 1
			}
			p.replicas = append(p.replicas, &replica{url: spec.URL, searchURL: spec.URL + "/shard/search", weight: w})
		}
		s.pools = append(s.pools, p)
	}
	return s, nil
}

// Start launches the periodic probe loop (stop with Close).
func (s *Searcher) Start() {
	s.probes.Add(1)
	go func() {
		defer s.probes.Done()
		t := time.NewTicker(s.cfg.ProbeInterval)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.ProbeOnce(context.Background())
			}
		}
	}()
}

// Close stops the probe loop and closes the idle connections of the
// searcher's own transport. Idempotent.
func (s *Searcher) Close() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.probes.Wait()
	if s.own != nil {
		s.own.CloseIdleConnections()
	}
}

// ProbeOnce health-checks every replica of every pool concurrently and
// feeds the outcomes into membership and the breakers. A probe passes
// when /readyz answers 200 ready:true, the worker's shard count matches
// the router's topology AND its dictionary is the router's — a worker
// partitioned differently would return per-shard lists that merge into
// silently wrong results, one numbering terms differently term payloads
// that count into the wrong vectors, so either is treated as down, not
// as degraded.
func (s *Searcher) ProbeOnce(ctx context.Context) {
	var wg sync.WaitGroup
	for _, p := range s.pools {
		for _, r := range p.replicas {
			wg.Add(1)
			go func(p *pool, r *replica) {
				defer wg.Done()
				ok := s.probe(ctx, r)
				if !ok {
					r.probeFail.Add(1)
				}
				p.onProbe(r, ok, s.cfg.Now())
			}(p, r)
		}
	}
	wg.Wait()
}

func (s *Searcher) probe(ctx context.Context, r *replica) bool {
	ctx, cancel := context.WithTimeout(ctx, s.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.url+"/readyz", nil)
	if err != nil {
		return false
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return false
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	var wr WorkerReady
	if err := json.NewDecoder(resp.Body).Decode(&wr); err != nil {
		return false
	}
	r.epoch.Store(wr.Epoch)
	return resp.StatusCode == http.StatusOK && wr.Ready && wr.Shards == len(s.pools) && s.checkDict(wr.Dict) == nil
}

// Ready reports whether every shard's pool has at least one
// probe-confirmed replica whose breaker admits traffic — the router's
// readiness condition.
func (s *Searcher) Ready() bool {
	now := s.cfg.Now()
	for _, p := range s.pools {
		if !p.ready(now) {
			return false
		}
	}
	return true
}

// Stats snapshots every pool for the router's /stats.
func (s *Searcher) Stats() []PoolStats {
	now := s.cfg.Now()
	out := make([]PoolStats, len(s.pools))
	for i, p := range s.pools {
		out[i] = p.stats(now)
	}
	return out
}

// SearchBatch implements repro.Searcher: scatter the batch to one
// replica per shard (hedging and failing over as configured) asking for
// snippet text, gather, and deterministically merge. Strict, whatever
// AllowPartial says: the error is either ctx.Err() or "shard i: ..." —
// partial answers are never returned through this method, because a
// missing shard silently changes results and the reference route and the
// bit-identity gates run through here.
func (s *Searcher) SearchBatch(ctx context.Context, queries []string, ks []int) ([][]engine.Result, error) {
	g, err := s.gather(ctx, queries, ks, PayloadText, false)
	if err != nil {
		return nil, err
	}
	defer g.release()
	out := make([][]engine.Result, len(queries))
	for q := range queries {
		cands, wins, err := g.merge(q, ks[q])
		if err != nil {
			return nil, err
		}
		out[q] = make([]engine.Result, len(cands))
		for j, c := range cands {
			out[q][j] = engine.Result{DocID: c.DocID, Rank: c.Rank, Score: c.Score, Snippet: wins[j].f.snippetOf(wins[j].ref)}
		}
	}
	return out, nil
}

// Score implements repro.Searcher: the serving path's scatter. The
// shards are asked for term numbers when the caller may read surrogate
// vectors and for bare hit headers when it will not; either way the
// lists come back merged at once, and Vector counts a winner's term
// numbers into its vector under dict — IVectorOfText of the snippet
// SearchBatch returns for the same hit, bit for bit — only when it is
// asked for that winner. Under AllowPartial a shard whose whole pool is
// down (or whose sub-budget expired) is dropped from the merge instead of
// failing the request, and the lists come back marked Degraded; at least
// one shard must answer — an empty SERP helps nobody — and a canceled
// client context still fails strictly. Close hands the frames back for
// reuse.
func (s *Searcher) Score(ctx context.Context, dict engine.Dictionary, queries []string, ks []int, vectors bool) (*repro.Scored, error) {
	if cur := s.dict.Load(); cur == nil || *cur != dict.Fingerprint {
		fp := dict.Fingerprint // a copy: &dict.Fingerprint would put every call's dict on the heap
		s.dict.Store(&fp)
	}
	kind := PayloadNone
	if vectors {
		kind = PayloadTerms
	}
	g, err := s.gather(ctx, queries, ks, kind, s.cfg.AllowPartial)
	if err != nil {
		return nil, err
	}
	return g.scored(dict, ks, vectors)
}

// scored merges the gathered frames into the lists of the Scored it
// returns, whose Vector (with vectors set) reads winners' term payloads
// out of them.
func (g *gathered) scored(dict engine.Dictionary, ks []int, vectors bool) (*repro.Scored, error) {
	g.sc = repro.Scored{Lists: make([][]ranking.Hit, len(ks)), Info: g.info, Close: g.release}
	for q := range ks {
		var err error
		if g.sc.Lists[q], _, err = g.merge(q, ks[q]); err != nil {
			g.release()
			return nil, err
		}
	}
	if !vectors {
		g.release() // nothing of the frames is read again
		return &g.sc, nil
	}
	g.dict = dict
	g.sc.Vector = g.vector
	return &g.sc, nil
}

// vector is Scored.Vector: it counts winner j of query q's term numbers
// into its vector, carved out of the caller's slab.
func (g *gathered) vector(q, j int, slab *textsim.Slab) (textsim.IVector, error) {
	if g.released {
		return textsim.IVector{}, errors.New("router: Vector after Close")
	}
	m := g.scratch
	w := m.wins[q][j]
	var err error
	if m.terms, err = w.f.termsOf(w.ref, m.terms); err != nil {
		return textsim.IVector{}, err
	}
	return g.dict.Vector(m.terms, slab), nil
}

// inlineShards is how many shards' answers a gathered holds in place.
const inlineShards = 4

// gathered is one scatter's answers, one per shard, and the Scored built
// over them: the scatter's one allocation of its own. Merge's working
// space is borrowed from a pool until release.
type gathered struct {
	shards   []shardAnswer
	info     repro.SearchInfo
	released bool
	scratch  *mergeScratch // nil before the first merge and after release

	sc   repro.Scored
	dict engine.Dictionary

	wg     sync.WaitGroup
	inline [inlineShards]shardAnswer
}

// shardAnswer is one shard's outcome: its frame, nil where the shard
// failed or a degraded merge dropped it, whether a hedge raced for it,
// and why it failed.
type shardAnswer struct {
	f      *frame
	hedged bool
	err    error
}

// mergeScratch is merge's working space, shared by a batch's queries:
// the per-shard lists, refs and cursors, and the winners Vector reads,
// wins[q] a window of flat.
type mergeScratch struct {
	lists [][]ranking.Hit
	refs  [][]hitRef
	next  []int
	wins  [][]winner
	flat  []winner
	terms []int32 // the term numbers of the winner Vector counts
}

var mergeScratchPool = sync.Pool{New: func() any { return new(mergeScratch) }}

// release hands every frame and the merge scratch back to their pools.
// Idempotent.
func (g *gathered) release() {
	g.released = true
	for i := range g.shards {
		if f := g.shards[i].f; f != nil {
			f.release()
			g.shards[i].f = nil
		}
	}
	if m := g.scratch; m != nil {
		g.scratch = nil
		clear(m.lists) // they point into frames now back in their pool
		clear(m.refs)
		clear(m.wins)
		clear(m.flat)
		m.wins, m.flat = m.wins[:0], m.flat[:0]
		mergeScratchPool.Put(m)
	}
}

// winner locates one merged hit's ID and payload: its shard's frame and
// the hit's place in it.
type winner struct {
	f   *frame
	ref hitRef
}

// merge k-way merges query q's per-shard lists and returns the winners
// — a list of the request's own, DocIDs cut from one string, so a list
// costs one allocation for its IDs — beside where each winner's payload
// sits, which is valid until release.
func (g *gathered) merge(q, k int) ([]ranking.Hit, []winner, error) {
	m := g.scratch
	if m == nil {
		m = mergeScratchPool.Get().(*mergeScratch)
		g.scratch = m
		n := len(g.shards)
		m.lists = slices.Grow(m.lists[:0], n)[:n]
		m.refs = slices.Grow(m.refs[:0], n)[:n]
		m.next = slices.Grow(m.next[:0], n)[:n]
	}
	lists, refs, next := m.lists, m.refs, m.next
	clear(next)
	answered := 0
	for si, a := range g.shards {
		lists[si], refs[si] = nil, nil
		if a.f != nil { // nil: shard dropped from a degraded merge
			lists[si], refs[si] = a.f.list(q)
			if len(lists[si]) > 0 {
				answered++
			}
		}
	}
	merged := ranking.MergeSegments(lists, k)
	if answered == 1 {
		// A lone list comes back uncopied: a view into its frame, which
		// release hands back to the pool.
		merged = slices.Clone(merged)
	}
	// The merge keeps every list's order, so a merged hit is the next
	// unconsumed hit of the one shard whose doc range holds it.
	from := len(m.flat)
	idBytes := 0
	for _, h := range merged {
		var w winner
		for si, l := range lists {
			if n := next[si]; n < len(l) && l[n].Doc == h.Doc {
				w = winner{g.shards[si].f, refs[si][n]}
				next[si]++
				break
			}
		}
		if w.f == nil {
			// Only lists that break the contract — two shards answering
			// one document, or a list out of order — merge into a hit
			// that is no list's next.
			return nil, nil, errors.New("shard lists overlap or are out of order")
		}
		m.flat = append(m.flat, w)
		idBytes += int(w.ref.pay - w.ref.id)
	}
	wins := m.flat[from:len(m.flat):len(m.flat)]
	for len(m.wins) <= q {
		m.wins = append(m.wins, nil)
	}
	m.wins[q] = wins
	var ids strings.Builder
	ids.Grow(idBytes)
	for _, w := range wins {
		ids.Write(w.f.id(w.ref))
	}
	all, at := ids.String(), 0
	for j := range merged {
		to := at + int(wins[j].ref.pay-wins[j].ref.id)
		merged[j].DocID = all[at:to]
		at = to
	}
	return merged, wins, nil
}

// gather is the shared scatter-gather: one goroutine per shard, each
// writing its shard's answer in place. When the caller's context carries
// a deadline, the scatter runs under a sub-budget of
// ScatterFraction*remaining so the merge and the diversification stages
// downstream keep their share of the request budget.
func (s *Searcher) gather(ctx context.Context, queries []string, ks []int, kind Payload, partial bool) (*gathered, error) {
	g := &gathered{}
	if n := len(s.pools); n <= inlineShards {
		g.shards = g.inline[:n]
	} else {
		g.shards = make([]shardAnswer, n)
	}
	scatterCtx := ctx
	if dl, ok := ctx.Deadline(); ok && s.cfg.ScatterFraction < 1 {
		sub := time.Duration(s.cfg.ScatterFraction * float64(time.Until(dl)))
		var cancel context.CancelFunc
		scatterCtx, cancel = context.WithTimeout(ctx, sub)
		defer cancel()
	}

	sctx := scatterCtx // assigned once, so each goroutine's closure copies it
	for si := range s.pools {
		g.wg.Add(1)
		go func() {
			defer g.wg.Done()
			a := &g.shards[si]
			a.f, a.hedged, a.err = s.searchShard(sctx, si, queries, ks, kind)
		}()
	}
	g.wg.Wait()
	survivors := 0
	for _, a := range g.shards {
		if a.hedged {
			g.info.Hedged = true
		}
		if a.err == nil {
			survivors++
		}
	}
	for si, a := range g.shards {
		if a.err == nil {
			continue
		}
		if ctx.Err() != nil {
			g.release()
			return g, ctx.Err()
		}
		if partial && survivors > 0 {
			// Degrade: drop the shard, merge the survivors. The caller
			// sees Degraded and must not treat the lists as complete
			// (they are never cached, and bit-identity gates don't
			// apply).
			g.info.Degraded = true
			s.tail.shardsDropped.Add(1)
			continue
		}
		g.release()
		return g, fmt.Errorf("shard %d: %w", si, a.err)
	}
	if g.info.Degraded {
		s.tail.degraded.Add(1)
	}
	return g, nil
}

// attemptDone is one finished attempt in searchShard's event loop.
type attemptDone struct {
	r     *replica
	frame *frame
	err   error
	hedge bool
	began time.Time
}

// inlineAttempts is how many attempts on one shard searchShard tracks
// in place: a primary, a hedge and failovers past them spill to the heap.
const inlineAttempts = 4

// searchShard answers one shard with a hedged, budgeted attempt state
// machine. One primary attempt launches immediately; if hedging is
// enabled and the primary outlives the hedge trigger, a second attempt
// races it on the next-best replica and the first success wins — the
// loser is promptly canceled, and because its result is simply never
// read, a hedge cancellation can never feed a breaker. Failures fall
// back to the bounded failover loop. Every extra attempt (hedge or
// retry) spends the global token budget; when the bucket is empty the
// shard degrades to single-attempt behavior.
//
// Every attempt reads into a frame of its own and is that frame's only
// holder until it deposits its result: a failed attempt releases it
// itself, the winner's passes to the caller, and a loser's — deposited
// unread, perhaps long after this function returned — is left to the
// garbage collector, never released from here while its goroutine may
// still be filling it. The request frame follows the same rule: it is
// this call's own and never pooled, because a loser may still be sending
// it.
//
// Parent-context cancellation aborts without penalizing the replica in
// flight — a client hanging up is not evidence the worker is sick — and
// a worker-side 504 (propagated budget ran out) is likewise charged to
// the deadline, not the replica.
func (s *Searcher) searchShard(ctx context.Context, si int, queries []string, ks []int, kind Payload) (*frame, bool, error) {
	body := ShardSearchRequest{Shard: si, Queries: queries, Ks: ks, Payload: kind}.frame()
	p := s.pools[si]
	maxAttempts := s.cfg.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = len(p.replicas)
	}

	// Buffered to maxAttempts so a canceled loser's goroutine can always
	// deposit its (unread) result and exit: no goroutine leaks, no
	// accounting for attempts that lost a race they didn't fail.
	results := make(chan attemptDone, maxAttempts)
	var triedIn [inlineAttempts]*replica
	var cancelsIn [inlineAttempts]context.CancelFunc
	tried, cancels := triedIn[:0], cancelsIn[:0]
	defer func() {
		for _, c := range cancels {
			c()
		}
	}()
	started, inflight := 0, 0
	hedged := false

	launch := func(hedge bool) bool {
		r := p.pick(s.cfg.Now(), tried)
		if r == nil {
			return false // every replica tried
		}
		tried = append(tried, r)
		actx, cancel := context.WithTimeout(ctx, s.cfg.AttemptTimeout)
		cancels = append(cancels, cancel)
		started++
		inflight++
		began := s.cfg.Now()
		go func() {
			f, err := s.attempt(actx, r, body, len(queries))
			results <- attemptDone{r: r, frame: f, err: err, hedge: hedge, began: began}
		}()
		return true
	}
	if !launch(false) {
		return nil, false, errors.New("all replicas failed: no replica available")
	}
	s.extra.earn() // primaries fund the extra-attempt budget

	var hedgeCh <-chan time.Time
	if delay, ok := s.hedgeDelay(p); ok && started < maxAttempts {
		t := time.NewTimer(delay)
		defer t.Stop()
		hedgeCh = t.C
	}

	var lastErr error
	for {
		select {
		case <-ctx.Done():
			return nil, hedged, ctx.Err()
		case <-hedgeCh:
			hedgeCh = nil
			if !s.extra.take() {
				s.tail.extraDenied.Add(1)
				continue
			}
			if launch(true) {
				hedged = true
				s.tail.hedges.Add(1)
			}
		case d := <-results:
			inflight--
			if d.err == nil {
				p.onResult(d.r, true, s.cfg.Now())
				p.lat.observe(s.cfg.Now().Sub(d.began))
				if d.hedge {
					s.tail.hedgeWins.Add(1)
				}
				return d.frame, hedged, nil
			}
			if ctx.Err() != nil {
				return nil, hedged, ctx.Err()
			}
			if errors.Is(d.err, errBudgetExpired) {
				// The propagated budget ran out worker-side: the
				// deadline's fault, never the replica's.
				s.tail.budgetExpired.Add(1)
			} else {
				d.r.failures.Add(1)
				p.onResult(d.r, false, s.cfg.Now())
			}
			lastErr = fmt.Errorf("%s: %w", d.r.url, d.err)
			if inflight > 0 {
				continue // a racing hedge may still win
			}
			if started >= maxAttempts {
				return nil, hedged, fmt.Errorf("all replicas failed: %w", lastErr)
			}
			if !s.extra.take() {
				s.tail.extraDenied.Add(1)
				return nil, hedged, fmt.Errorf("all replicas failed (retry budget exhausted): %w", lastErr)
			}
			if !launch(false) {
				return nil, hedged, fmt.Errorf("all replicas failed: %w", lastErr)
			}
			s.tail.retries.Add(1)
		}
	}
}

// attempt runs one scatter call against one replica under ctx, which
// carries the attempt's timeout, propagating the remaining budget to the
// worker via X-Budget-Ms, and returns the decoded frame. A frame from
// another epoch or another dictionary than the fleet's fails the
// attempt: its lists are never merged.
func (s *Searcher) attempt(ctx context.Context, r *replica, body []byte, nq int) (*frame, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.searchURL, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header["Content-Type"] = octetStream
	if dl, ok := ctx.Deadline(); ok {
		if ms := time.Until(dl).Milliseconds(); ms > 0 {
			req.Header.Set(HeaderBudgetMs, strconv.FormatInt(ms, 10))
		}
	}
	r.requests.Add(1)
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode == http.StatusGatewayTimeout {
		return nil, errBudgetExpired
	}
	if resp.StatusCode != http.StatusOK {
		// Read a little of the error body for the failover trail.
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	f := framePool.Get().(*frame)
	if err = f.readFrom(resp.Body); err != nil {
		err = fmt.Errorf("reading response: %w", err)
	} else if err = f.decode(nq); err == nil {
		r.epoch.Store(f.epoch)
		if err = s.checkEpoch(f.epoch); err == nil {
			err = s.checkDict(f.dict)
		}
	}
	if err != nil {
		f.release() // the read is over: nothing writes this frame any more
		return nil, err
	}
	return f, nil
}

// checkEpoch pins the fleet to the first snapshot epoch observed;
// replicas answering from any other epoch are failed over, never
// merged.
func (s *Searcher) checkEpoch(epoch uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.epochSet {
		s.epochSet = true
		s.epochValue = epoch
		return nil
	}
	if epoch != s.epochValue {
		return fmt.Errorf("replica epoch %d diverges from fleet epoch %d", epoch, s.epochValue)
	}
	return nil
}

// checkDict compares a worker's dictionary fingerprint with the
// router's own, once the pipeline has told the searcher what that is.
func (s *Searcher) checkDict(got engine.DictFingerprint) error {
	if want := s.dict.Load(); want != nil && *want != got {
		return fmt.Errorf("replica dictionary (%d terms, hash %x) is not the router's (%d terms, hash %x)",
			got.Terms, got.Hash, want.Terms, want.Hash)
	}
	return nil
}
