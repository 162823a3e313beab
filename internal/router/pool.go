package router

import (
	"math/rand"
	"slices"
	"sync"
	"time"
)

// pool is the replica set serving one shard. It owns the breaker tuning
// (shared across its replicas), a seeded RNG for cooldown jitter, and
// the latency window feeding the hedge trigger.
type pool struct {
	shard int
	bcfg  breakerConfig

	// lat records successful attempt latencies for the online hedge
	// quantile (own lock; updated outside pool.mu).
	lat latWindow

	mu       sync.Mutex
	rng      *rand.Rand // jitters cooldowns; guarded by mu
	replicas []*replica
}

// pick selects the next replica under smooth weighted round-robin,
// preferring the healthiest tier that has any candidate:
//
//  1. closed breaker + last probe healthy — the normal path;
//  2. closed breaker, not (yet) probe-confirmed — cold start, before
//     the first probe round completes;
//  3. half-open — cooldown elapsed, probation traffic re-admits it;
//  4. any untried replica — last resort: with every breaker open,
//     trying a probably-dead replica still beats failing the request
//     without a single attempt.
//
// tried excludes replicas this request already failed over from, so a
// bounded retry loop never burns two attempts on the same endpoint.
// Returns nil when every replica has been tried.
func (p *pool) pick(now time.Time, tried []*replica) *replica {
	p.mu.Lock()
	defer p.mu.Unlock()

	tiers := [4]func(r *replica) bool{
		func(r *replica) bool { return r.selectable(now) && r.state == breakerClosed && r.healthy },
		func(r *replica) bool { return r.selectable(now) && r.state == breakerClosed },
		func(r *replica) bool { return r.selectable(now) },
		func(r *replica) bool { return true },
	}
	var in [8]*replica // a pool's candidates, in place up to eight
	for _, ok := range tiers {
		cands := in[:0]
		for _, r := range p.replicas {
			if !slices.Contains(tried, r) && ok(r) {
				cands = append(cands, r)
			}
		}
		if len(cands) > 0 {
			return pickSmoothWRR(cands)
		}
	}
	return nil
}

// pickSmoothWRR runs one step of nginx's smooth weighted round-robin
// over the candidate set: each candidate gains its weight, the largest
// accumulator wins and pays back the total. Deterministic, and spreads
// a weight-2:1 pair as a-b-a rather than a-a-b. Callers hold pool.mu.
func pickSmoothWRR(cands []*replica) *replica {
	total := 0
	var best *replica
	for _, r := range cands {
		r.current += r.weight
		total += r.weight
		if best == nil || r.current > best.current {
			best = r
		}
	}
	best.current -= total
	return best
}

// onResult feeds a request outcome into the replica's breaker (passive
// failure detection: live traffic updates health, not just probes).
func (p *pool) onResult(r *replica, ok bool, now time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if ok {
		r.onSuccess()
	} else {
		r.onFailure(now, p.bcfg, p.rng)
	}
}

// onProbe feeds a probe outcome into membership and the breaker. A
// successful probe marks the replica healthy and — when the breaker is
// half-open (cooldown elapsed) — closes it, so a recovered replica is
// re-admitted by the probe loop even with zero live traffic. A failed
// probe marks it unhealthy and counts as a breaker failure, so a dead
// replica is ejected even when no request has touched it yet.
func (p *pool) onProbe(r *replica, ok bool, now time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	r.probed = true
	r.healthy = ok
	if ok {
		if r.selectable(now) { // lazily open->half_open first
			r.onSuccess()
		}
		// Probe success during an unexpired cooldown does NOT short-
		// circuit re-admission: the backoff schedule is the contract.
	} else {
		r.onFailure(now, p.bcfg, p.rng)
	}
}

// ready reports whether the pool can serve: at least one replica has
// passed a probe and is not sitting in an open breaker.
func (p *pool) ready(now time.Time) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, r := range p.replicas {
		if r.probed && r.healthy && r.selectable(now) {
			return true
		}
	}
	return false
}

// ReplicaStats is one replica's row in the router's /stats.
type ReplicaStats struct {
	URL        string `json:"url"`
	Weight     int    `json:"weight"`
	State      string `json:"state"` // closed | open | half_open
	Healthy    bool   `json:"healthy"`
	Requests   int64  `json:"requests"`
	Failures   int64  `json:"failures"`
	ProbeFails int64  `json:"probe_failures"`
	OpenCycles int    `json:"open_cycles"`
	CooldownMs int64  `json:"cooldown_ms,omitempty"` // remaining, when open
	Epoch      uint64 `json:"epoch"`
}

// PoolStats is one shard's row in the router's /stats.
type PoolStats struct {
	Shard    int            `json:"shard"`
	Ready    bool           `json:"ready"`
	Replicas []ReplicaStats `json:"replicas"`
}

func (p *pool) stats(now time.Time) PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	ps := PoolStats{Shard: p.shard, Replicas: make([]ReplicaStats, len(p.replicas))}
	for i, r := range p.replicas {
		sel := r.selectable(now) // applies the lazy open->half_open transition
		rs := ReplicaStats{
			URL:        r.url,
			Weight:     r.weight,
			State:      r.state.String(),
			Healthy:    r.healthy,
			Requests:   r.requests.Load(),
			Failures:   r.failures.Load(),
			ProbeFails: r.probeFail.Load(),
			OpenCycles: r.openCount,
			Epoch:      r.epoch.Load(),
		}
		if r.state == breakerOpen {
			if left := r.cooldown - now.Sub(r.openedAt); left > 0 {
				rs.CooldownMs = left.Milliseconds()
			}
		}
		ps.Replicas[i] = rs
		if r.probed && r.healthy && sel {
			ps.Ready = true
		}
	}
	return ps
}
