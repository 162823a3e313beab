package main

import (
	"math"
	"slices"
)

// metricDef is one entry of BENCHMARK.json's end_to_end or per_layer
// list. The test checks that the file and these tables agree.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: the share of the parent's median it may worsen by
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a user of the service sees, on every workload.
var endToEnd = []metricDef{
	{"throughput_qps", "1/s", higher, 0.25},
	{"latency_p50_ms", "ms", lower, 0.20},
	{"latency_p95_ms", "ms", lower, 0.25},
	{"allocs_per_req", "count", lower, 0.06},
	{"heap_live_mb", "MB", lower, 0.02},
	{"setup_s", "s", lower, 0.25},
}

// perLayer metrics carry the name of the module they measure. The first
// group is read around the two load phases through public accessors; the
// second is the median span of the traced pass, each the public call the
// README names.
var perLayer = []metricDef{
	{"bench.oracle_s", "s", lower, 0},

	{"loadgen.sent", "count", higher, 0},
	{"loadgen.ok", "count", higher, 0},
	{"loadgen.failed", "count", lower, 0},
	{"loadgen.mismatched", "count", lower, 0},
	{"loadgen.late_p99_ms", "ms", lower, 0},
	{"loadgen.latency_tail_ms", "ms", lower, 0},
	{"loadgen.tail_percentile", "%", higher, 0},
	{"loadgen.backlog_ratio", "ratio", lower, 0},
	{"server.handler_p50_ms", "ms", lower, 0},
	{"server.overhead_p50_ms", "ms", lower, 0},
	{"server.rejected", "count", lower, 0},
	{"server.response_bytes_p50", "B", lower, 0},
	{"cache.hit_rate", "ratio", higher, 0},
	{"cache.evictions_per_req", "count", lower, 0},
	{"suggest.ambiguous_share", "ratio", higher, 0},
	{"exec.fused_share", "ratio", higher, 0},
	{"exec.aspect_blocks_skipped_per_req", "count", higher, 0},
	{"index.blocks_decoded_per_req", "count", lower, 0},
	{"index.blocks_skipped_per_req", "count", higher, 0},
	{"router.hops_per_req", "count", lower, 0},
	{"router.shard_rtt_p50_ms", "ms", lower, 0},
	{"router.shard_bytes_per_req", "B", lower, 0},
	{"router.hedges", "count", lower, 0},
	{"router.extra_denied", "count", lower, 0},
	{"runtime.bytes_per_req", "B", lower, 0},
	{"runtime.gc_cycles", "count", lower, 0},
	{"runtime.gc_pause_total_ms", "ms", lower, 0},

	{"repro.serve_hit_us", "us", lower, 0},
	{"repro.serve_miss_us", "us", lower, 0},
	{"text.normalize_us", "us", lower, 0},
	{"suggest.detect_us", "us", lower, 0},
	{"suggest.specs_per_req", "count", lower, 0},
	{"engine.search_rq_us", "us", lower, 0},
	{"ranking.retrieve_rq_us", "us", lower, 0},
	{"engine.search_rq_self_us", "us", lower, 0},
	{"engine.candidates_per_req", "count", lower, 0},
	{"engine.search_aspects_us", "us", lower, 0},
	{"engine.surrogates_rq_us", "us", lower, 0},
	{"engine.surrogates_aspects_us", "us", lower, 0},
	{"core.utilities_us", "us", lower, 0},
	{"core.select_us.optselect", "us", lower, 0},
	{"core.select_us.xquad", "us", lower, 0},
	{"core.select_us.iaselect", "us", lower, 0},
	{"core.xquad_over_optselect", "ratio", higher, 0},
	{"exec.fused_scan_us", "us", lower, 0},
	{"server.encode_us", "us", lower, 0},
	{"router.search_rq_us", "us", lower, 0},
	{"router.wire_overhead_us", "us", lower, 0},
	{"trace.coverage", "ratio", higher, 0},
}

// spanMetric maps a span name to the metric that reports its median.
var spanMetric = map[string]string{
	spanServeHit:     "repro.serve_hit_us",
	spanServeMiss:    "repro.serve_miss_us",
	spanNormalize:    "text.normalize_us",
	spanDetect:       "suggest.detect_us",
	spanSearchRq:     "engine.search_rq_us",
	spanRetrieveRq:   "ranking.retrieve_rq_us",
	spanSearchAsp:    "engine.search_aspects_us",
	spanSurrogateRq:  "engine.surrogates_rq_us",
	spanSurrogateAsp: "engine.surrogates_aspects_us",
	spanUtilities:    "core.utilities_us",
	spanOptSelect:    "core.select_us.optselect",
	spanXQuAD:        "core.select_us.xquad",
	spanIASelect:     "core.select_us.iaselect",
	spanFused:        "exec.fused_scan_us",
	spanEncode:       "server.encode_us",
	spanRouterRq:     "router.search_rq_us",
}

// percentile returns the p-th percentile (0 < p <= 100) of values by the
// nearest-rank rule, 0 for none. It sorts a copy.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := slices.Clone(values)
	slices.Sort(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[max(rank, 1)-1]
}

func median(values []float64) float64 { return percentile(values, 50) }

// tail returns the highest percentile that has at least ten samples
// beyond it, and its value.
func tail(values []float64) (pct, value float64) {
	n := len(values)
	if n <= 10 {
		return 0, 0
	}
	s := slices.Clone(values)
	slices.Sort(s)
	return 100 * float64(n-10) / float64(n), s[n-11]
}

func mean(values []float64) float64 {
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return ratio(sum, float64(len(values)))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
