package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// settings is how one run measures; the workload says what.
type settings struct {
	seed     int64
	closed   time.Duration // closed phase: `clients` clients, for capacity
	open     time.Duration // open phase: the workload's fixed arrival rate, for latency
	setups   int           // cold set-ups timed; setup_s is their median
	trace    bool          // also run the traced pass and report per-layer metrics
	traceDir string        // where to write the spans, if anywhere
}

// phases splits a run's measuring time between the two load phases: a
// third closed, two thirds open, because a 95th percentile needs more
// requests than a mean to settle.
func phases(seconds int) (closed, open time.Duration) {
	total := time.Duration(seconds) * time.Second
	return total / 3, total - total/3
}

// outcome is one run of one workload.
type outcome struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	// How many requests the throughput and the latency percentiles rest on.
	ClosedRequests int `json:"closed_requests"`
	OpenRequests   int `json:"open_requests"`
}

func runWorkload(w workload, s settings) (*outcome, error) {
	// Set up cold several times: one build varies by about a tenth.
	var wd *world
	setupS := make([]float64, s.setups)
	for i := range setupS {
		if wd != nil {
			wd.close()
			wd = nil
			runtime.GC()
		}
		var d time.Duration
		var err error
		if wd, d, err = setUp(w, s.seed); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setupS[i] = d.Seconds()
	}
	defer wd.close()
	if err := wd.warmUp(); err != nil {
		return nil, err
	}

	// What the service keeps: index, recommender and warm cache.
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapAlloc) / (1 << 20)

	began := time.Now()
	wd.setOracle()
	oracleS := time.Since(began).Seconds()

	stream := w.stream(s.seed, len(wd.queries), streamLen)

	before, _ := wd.srv.StatsSnapshot()
	if w.routed {
		wd.wire.take() // start the wire counts at the load phases
	}
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	closed, elapsed := wd.closedPhase(stream, s.closed)
	runtime.ReadMemStats(&m1)
	open := wd.openPhase(stream, w.openRate, s.open)
	runtime.ReadMemStats(&m2)
	after, _ := wd.srv.StatsSnapshot()

	out := &outcome{
		Attempted:      len(closed) + len(open),
		EndToEnd:       map[string]float64{},
		ClosedRequests: len(closed),
		OpenRequests:   len(open),
	}
	var latency, late, took, overhead, bytes []float64
	var failed, mismatched int
	for _, r := range closed { // its latency is from the actual send
		if !r.failed() {
			overhead = append(overhead, r.latencyMs-r.tookMs)
		}
	}
	for _, r := range open {
		// A failed request counts as missing any latency limit: it is
		// entered as having taken the whole phase.
		if r.failed() {
			r.latencyMs = float64(s.open) / 1e6
		}
		latency = append(latency, r.latencyMs)
		late = append(late, r.lateMs)
	}
	for _, r := range slices.Concat(closed, open) {
		switch {
		case r.err != nil:
			failed++
		case r.mismatch:
			mismatched++
		default:
			took = append(took, r.tookMs)
			bytes = append(bytes, float64(r.bytes))
		}
	}
	out.Failed = failed + mismatched

	out.EndToEnd["setup_s"] = median(setupS)
	out.EndToEnd["throughput_qps"] = float64(len(overhead)) / elapsed.Seconds()
	out.EndToEnd["latency_p50_ms"] = percentile(latency, 50)
	out.EndToEnd["latency_p95_ms"] = percentile(latency, 95)
	out.EndToEnd["allocs_per_req"] = ratio(float64(m1.Mallocs-m0.Mallocs), float64(len(closed)))
	out.EndToEnd["heap_live_mb"] = heapMB
	if !s.trace {
		return out, nil
	}

	n := float64(out.Attempted)
	pl := map[string]float64{
		"bench.oracle_s":     oracleS,
		"loadgen.sent":       float64(len(open)),
		"loadgen.ok":         float64(out.Attempted - out.Failed),
		"loadgen.failed":     float64(failed),
		"loadgen.mismatched": float64(mismatched),

		"loadgen.late_p99_ms":   percentile(late, 99),
		"loadgen.backlog_ratio": ratio(median(latency[len(latency)*3/4:]), median(latency[:len(latency)/4])),

		"server.handler_p50_ms":     median(took),
		"server.overhead_p50_ms":    median(overhead),
		"server.rejected":           float64(after.Rejected - before.Rejected),
		"server.response_bytes_p50": median(bytes),

		"cache.hit_rate": ratio(float64(after.Cache.Hits-before.Cache.Hits),
			float64(after.Cache.Hits-before.Cache.Hits+after.Cache.Misses-before.Cache.Misses)),
		"cache.evictions_per_req": float64(after.Cache.Evictions-before.Cache.Evictions) / n,
		"suggest.ambiguous_share": ratio(float64(after.Ambiguous-before.Ambiguous), float64(after.Searches-before.Searches)),

		"exec.fused_share": ratio(float64(after.Fused.FusedQueries-before.Fused.FusedQueries),
			float64(after.Fused.FusedQueries-before.Fused.FusedQueries+after.Fused.StagedQueries-before.Fused.StagedQueries)),
		"exec.aspect_blocks_skipped_per_req": float64(after.Fused.AspectBlocksSkipped-before.Fused.AspectBlocksSkipped) / n,
		"index.blocks_decoded_per_req":       float64(after.Index.BlocksDecoded-before.Index.BlocksDecoded) / n,
		"index.blocks_skipped_per_req":       float64(after.Index.BlocksSkipped-before.Index.BlocksSkipped) / n,

		"runtime.bytes_per_req":     float64(m2.TotalAlloc-m0.TotalAlloc) / n,
		"runtime.gc_cycles":         float64(m2.NumGC - m0.NumGC),
		"runtime.gc_pause_total_ms": float64(m2.PauseTotalNs-m0.PauseTotalNs) / 1e6,
	}
	pl["loadgen.tail_percentile"], pl["loadgen.latency_tail_ms"] = tail(latency)
	if w.routed {
		hops, wireBytes, rtt := wd.wire.take()
		tailStats := wd.searcher.TailStats()
		pl["router.hops_per_req"] = float64(hops) / n
		pl["router.shard_bytes_per_req"] = float64(wireBytes) / n
		pl["router.shard_rtt_p50_ms"] = median(rtt)
		pl["router.hedges"] = float64(tailStats.Hedges)
		pl["router.extra_denied"] = float64(tailStats.ExtraDenied)
	}

	t := &tracer{t0: time.Now()}
	replayFailed := wd.tracedPass(t, stream, w.traced)
	out.Attempted += w.traced
	out.Failed += replayFailed
	spanMetrics(t.spans, pl)
	for _, def := range perLayer { // a layer that did no work on this workload reports 0
		if _, ok := pl[def.Name]; !ok {
			pl[def.Name] = 0
		}
	}
	out.PerLayer = pl
	if s.traceDir != "" {
		if err := t.write(filepath.Join(s.traceDir, w.name+".jsonl")); err != nil {
			return nil, fmt.Errorf("%s: writing trace: %w", w.name, err)
		}
	}
	return out, nil
}

// spanMetrics turns the traced pass into per-layer metrics: the median
// duration of each span name, the counts taken at the same boundaries,
// differences taken request by request, and trace.coverage, the median
// over requests of the hit path's child spans over the whole serving
// call on a warm handle.
func spanMetrics(spans []span, pl map[string]float64) {
	byName := map[string][]float64{}
	byRequest := map[int]map[string]span{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s.us())
		if byRequest[s.Request] == nil {
			byRequest[s.Request] = map[string]span{}
		}
		byRequest[s.Request][s.Name] = s
	}
	for name, metric := range spanMetric {
		pl[metric] = median(byName[name])
	}
	pl["core.xquad_over_optselect"] = ratio(median(byName[spanXQuAD]), median(byName[spanOptSelect]))

	var specs, candidates, self, wire, coverage []float64
	for _, rq := range byRequest {
		specs = append(specs, float64(rq[spanDetect].Count))
		candidates = append(candidates, float64(rq[spanSearchRq].Count))
		self = append(self, rq[spanSearchRq].us()-rq[spanRetrieveRq].us())
		retrieval := rq[spanSearchRq]
		if routed, ok := rq[spanRouterRq]; ok {
			wire = append(wire, routed.us()-retrieval.us())
			retrieval = routed
		}
		children := retrieval.us()
		for _, name := range hitPathLocal {
			children += rq[name].us()
		}
		coverage = append(coverage, ratio(children, rq[spanServeHit].us()))
	}
	pl["suggest.specs_per_req"] = mean(specs)
	pl["engine.candidates_per_req"] = mean(candidates)
	pl["engine.search_rq_self_us"] = median(self)
	pl["router.wire_overhead_us"] = median(wire)
	pl["trace.coverage"] = median(coverage)
}
