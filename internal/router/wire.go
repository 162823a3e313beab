// Package router is the distributed serving tier: a fault-tolerant
// scatter-gather front end over replicated shard-worker processes.
//
// The topology splits the single-process serving stack along the line
// the deterministic k-way merge already draws: every worker builds the
// same deterministic world (same seed => same index, same
// collection-global statistics => the very same score float64s) and
// answers per-shard retrieval over POST /shard/search; the router runs
// the rest of the pipeline — Algorithm 1, the recommender trained on
// the log's sessions (cut by the chaining probability), utilities,
// selection — locally, swapping only the document scoring phase for a
// remote fan-out (repro.Searcher). The router asks in a binary request
// frame and workers answer in a binary shard frame (frame.go) whose
// hits carry, at the requester's choice, nothing, the snippet window's
// term numbers or the snippet's text; the router builds surrogate
// vectors from the term numbers of the merged winners only. Because
// per-shard scores are bit-identical to the in-process fan-out,
// ranking.MergeSegments is the same deterministic merge, and a window's
// term numbers count into the vector its text would tokenize to, a
// router /search response is byte-identical to a single-process /search
// response; the differential tests in this package enforce that.
//
// Fault tolerance lives in the replica pools: each shard is served by
// one or more replicas with health-check-driven membership (periodic
// /readyz probes plus passive failure detection from live traffic),
// per-replica circuit breaking with exponential-backoff cooldown on
// re-admission, per-attempt timeouts, and bounded failover to the next
// healthy replica. A request fails only when every replica of some
// shard is down.
//
// The tail-tolerance layer rides on top: hedged requests (a slow
// attempt races a second replica, first success wins, the loser is
// canceled without breaker penalty), deadline propagation (the client's
// total budget is carved into a scatter sub-budget and advertised to
// workers via X-Budget-Ms so they stop work that cannot make the
// deadline), a global token bucket bounding extra attempts, and an
// opt-in partial-results mode that merges surviving shards with an
// explicit degraded marker instead of 503ing when a whole pool is down.
package router

import "repro/internal/engine"

// HeaderBudgetMs propagates the attempt's remaining deadline budget
// from the router to a worker: an integer count of milliseconds. The
// worker stops scoring when it runs out and answers 504, which the
// router charges to the deadline, never to the replica's breaker.
const HeaderBudgetMs = "X-Budget-Ms"

// ShardSearchRequest is one scatter call: score every query of the
// batch against one shard of the deterministic index. Queries are raw
// (pre-analysis) strings — the worker runs the same analyzer the router
// would, so the token streams match by construction — and Ks[i] is query
// i's depth (<= 0: every match). Payload says what each hit carries
// back beyond doc, score and ID. It travels as a binary request frame
// (frame.go), and the answer is a shard frame; errors keep the JSON
// envelope.
type ShardSearchRequest struct {
	Shard   int
	Queries []string
	Ks      []int
	Payload Payload
}

const (
	// maxShardRequestBytes bounds the body a worker reads of one shard
	// search; maxShardQueries the batch it will score. A router sends
	// 1 + |S_q| queries of a few words each.
	maxShardRequestBytes = 1 << 20
	maxShardQueries      = 256
)

// WorkerReady is the worker's /readyz body. Shards lets the router's
// probe reject a worker partitioned differently than the router expects
// (merging a 4-shard worker's shard 1 into a 2-shard plan would be
// silently wrong) and Dict one whose dictionary numbers terms
// differently than the router's (its term payloads would count into the
// wrong vectors); Epoch lets operators spot diverged replicas at a
// glance.
type WorkerReady struct {
	Ready  bool                   `json:"ready"`
	Reason string                 `json:"reason,omitempty"`
	Docs   int                    `json:"docs,omitempty"`
	Shards int                    `json:"shards,omitempty"`
	Epoch  uint64                 `json:"epoch"`
	Dict   engine.DictFingerprint `json:"dict"`
}

// errorBody is the JSON error envelope shared by worker and router
// endpoints (mirrors internal/server's {"error": ...} convention).
type errorBody struct {
	Error string `json:"error"`
}
