package router

import (
	"math/rand"
	"sync/atomic"
	"time"
)

// breakerConfig is the pool-owned breaker tuning: threshold consecutive
// failures open a breaker, cooldowns grow base<<(cycle-1) capped at max,
// and jitter adds up to that fraction of extra random cooldown AFTER the
// cap — so a fleet of routers that all saw the same outage doesn't
// re-probe the recovering replica in lockstep.
type breakerConfig struct {
	threshold int
	base      time.Duration
	max       time.Duration
	jitter    float64
}

// breakerState is a replica's circuit-breaker state.
type breakerState int

const (
	// breakerClosed: healthy, takes traffic.
	breakerClosed breakerState = iota
	// breakerOpen: recently failing; no traffic until the cooldown
	// elapses. Cooldown grows exponentially with consecutive open
	// cycles, so a flapping replica is re-admitted ever more cautiously.
	breakerOpen
	// breakerHalfOpen: cooldown elapsed; probation. The replica takes
	// trial traffic (and probes); one failure reopens it, one success
	// closes it.
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half_open"
	}
	return "unknown"
}

// replica is one worker endpoint in a shard's pool. Breaker and
// weighted-round-robin state are guarded by the owning pool's mutex;
// the counters are atomic so /stats can read them without the lock.
type replica struct {
	url       string // base URL, e.g. http://127.0.0.1:9101
	searchURL string // url + "/shard/search"
	weight    int

	// Circuit breaker (pool.mu).
	state     breakerState
	fails     int           // consecutive failures since last success
	openCount int           // consecutive open cycles (backoff exponent)
	openedAt  time.Time     // when the breaker last opened
	cooldown  time.Duration // current cooldown (base << (openCount-1), capped)

	// Probe-driven membership (pool.mu).
	probed  bool // at least one probe completed
	healthy bool // last probe succeeded (ready, shard count matched)

	// Smooth weighted round-robin (pool.mu).
	current int

	// Counters (atomic; read lock-free by stats).
	requests  atomic.Int64 // attempts routed here (probes excluded)
	failures  atomic.Int64 // failed attempts (probes excluded)
	probeFail atomic.Int64 // failed probes
	epoch     atomic.Uint64
}

// selectable reports whether the replica may take traffic now, lazily
// moving open->half_open once the cooldown has elapsed. Callers hold
// pool.mu.
func (r *replica) selectable(now time.Time) bool {
	if r.state == breakerOpen && now.Sub(r.openedAt) >= r.cooldown {
		r.state = breakerHalfOpen
	}
	return r.state != breakerOpen
}

// onSuccess records a successful attempt or probe: the breaker closes
// and the backoff resets. Callers hold pool.mu.
func (r *replica) onSuccess() {
	r.fails = 0
	r.openCount = 0
	r.state = breakerClosed
}

// onFailure records a failed attempt or probe under the pool's breaker
// thresholds. A half-open replica reopens on its first failure
// (probation is one strike); a closed replica opens after threshold
// consecutive failures. Callers hold pool.mu.
func (r *replica) onFailure(now time.Time, cfg breakerConfig, rng *rand.Rand) {
	r.fails++
	if r.state == breakerOpen {
		return
	}
	if r.state == breakerHalfOpen || r.fails >= cfg.threshold {
		r.open(now, cfg, rng)
	}
}

func (r *replica) open(now time.Time, cfg breakerConfig, rng *rand.Rand) {
	r.state = breakerOpen
	r.openedAt = now
	r.openCount++
	d := cfg.base << (r.openCount - 1)
	if d > cfg.max || d <= 0 { // <= 0 guards shift overflow
		d = cfg.max
	}
	// Jitter after capping: even replicas pinned at the max cooldown get
	// decorrelated re-probe times across a router fleet.
	if cfg.jitter > 0 && rng != nil {
		d += time.Duration(cfg.jitter * rng.Float64() * float64(d))
	}
	r.cooldown = d
}
