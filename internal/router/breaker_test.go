package router

import (
	"math/rand"
	"testing"
	"time"
)

// TestBreakerBackoffSchedule drives one replica through fail/recover
// cycles on a fake clock and pins the exponential re-admission
// schedule: cooldowns double per consecutive open cycle, cap at the
// max, and reset on success.
func TestBreakerBackoffSchedule(t *testing.T) {
	const (
		threshold = 2
		base      = 100 * time.Millisecond
		max       = 400 * time.Millisecond
	)
	now := time.Unix(0, 0)
	r := &replica{url: "x", weight: 1}
	p := &pool{
		shard:    0,
		bcfg:     breakerConfig{threshold: threshold, base: base, max: max},
		replicas: []*replica{r},
	}

	fail := func() { p.onResult(r, false, now) }
	succeed := func() { p.onResult(r, true, now) }

	fail()
	if r.state != breakerClosed {
		t.Fatalf("after 1/%d failures: %s, want closed", threshold, r.state)
	}
	fail()
	if r.state != breakerOpen || r.cooldown != base {
		t.Fatalf("after threshold: state=%s cooldown=%v, want open/%v", r.state, r.cooldown, base)
	}
	if r.selectable(now.Add(base - 1)) {
		t.Fatal("selectable before cooldown elapsed")
	}
	now = now.Add(base)
	if !r.selectable(now) || r.state != breakerHalfOpen {
		t.Fatalf("after cooldown: state=%s, want half_open and selectable", r.state)
	}

	// Probation is one strike: a failure in half-open reopens at once,
	// with a doubled cooldown.
	fail()
	if r.state != breakerOpen || r.cooldown != 2*base {
		t.Fatalf("reopen #2: state=%s cooldown=%v, want open/%v", r.state, r.cooldown, 2*base)
	}
	now = now.Add(2 * base)
	r.selectable(now)
	fail()
	if r.cooldown != 4*base {
		t.Fatalf("reopen #3: cooldown=%v, want %v", r.cooldown, 4*base)
	}
	now = now.Add(4 * base)
	r.selectable(now)
	fail()
	if r.cooldown != max {
		t.Fatalf("reopen #4: cooldown=%v, want capped at %v", r.cooldown, max)
	}

	// Success from half-open closes the breaker and resets the backoff:
	// the next open starts from base again.
	now = now.Add(max)
	r.selectable(now)
	succeed()
	if r.state != breakerClosed || r.fails != 0 || r.openCount != 0 {
		t.Fatalf("after recovery: %+v, want closed with reset counters", r)
	}
	fail()
	fail()
	if r.cooldown != base {
		t.Fatalf("open after recovery: cooldown=%v, want %v (backoff reset)", r.cooldown, base)
	}
}

// TestBreakerCooldownJitter pins the jittered re-admission schedule on
// the same fake clock: with a seeded RNG the exact cooldowns replay
// deterministically, and structurally every cooldown lands in
// [d, d*(1+jitter)] where d is the CAPPED deterministic backoff — the
// jitter is added after capping, so even max-cooldown replicas get
// decorrelated re-probe times across a fleet.
func TestBreakerCooldownJitter(t *testing.T) {
	const (
		base   = 100 * time.Millisecond
		max    = 400 * time.Millisecond
		jitter = 0.5
		seed   = 7
	)
	now := time.Unix(0, 0)
	r := &replica{url: "x", weight: 1}
	p := &pool{
		shard:    0,
		bcfg:     breakerConfig{threshold: 1, base: base, max: max, jitter: jitter},
		rng:      rand.New(rand.NewSource(seed)),
		replicas: []*replica{r},
	}

	// Replay the schedule with an independent RNG seeded identically:
	// the pool must consume exactly one Float64 per open cycle.
	ref := rand.New(rand.NewSource(seed))
	for cycle := 1; cycle <= 5; cycle++ {
		p.onResult(r, false, now)
		d := base << (cycle - 1)
		if d > max {
			d = max
		}
		want := d + time.Duration(jitter*ref.Float64()*float64(d))
		if r.cooldown != want {
			t.Fatalf("cycle %d: cooldown = %v, want %v (seeded replay)", cycle, r.cooldown, want)
		}
		if r.cooldown < d || r.cooldown > d+time.Duration(jitter*float64(d)) {
			t.Fatalf("cycle %d: cooldown %v outside [%v, %v]", cycle, r.cooldown, d, d+time.Duration(jitter*float64(d)))
		}
		// Sit out the jittered cooldown so the next failure reopens from
		// half-open probation with a doubled (then capped) backoff.
		now = now.Add(r.cooldown)
		if !r.selectable(now) {
			t.Fatalf("cycle %d: not selectable after its full jittered cooldown", cycle)
		}
	}

	// Jitter 0 (the library default) stays exactly deterministic even
	// with an RNG wired up — nothing is drawn from it.
	r2 := &replica{url: "y", weight: 1}
	p2 := &pool{
		bcfg:     breakerConfig{threshold: 1, base: base, max: max},
		rng:      rand.New(rand.NewSource(seed)),
		replicas: []*replica{r2},
	}
	p2.onResult(r2, false, now)
	if r2.cooldown != base {
		t.Fatalf("jitter-0 cooldown = %v, want exactly %v", r2.cooldown, base)
	}
}

// TestSmoothWRRDistribution pins both the long-run proportions and the
// interleaving property that distinguishes smooth WRR from naive WRR:
// weights 2:1 yield a,b,a / a,b,a — never a,a,b bursts.
func TestSmoothWRRDistribution(t *testing.T) {
	a := &replica{url: "a", weight: 2}
	b := &replica{url: "b", weight: 1}
	cands := []*replica{a, b}

	var seq []string
	counts := map[string]int{}
	for i := 0; i < 300; i++ {
		r := pickSmoothWRR(cands)
		counts[r.url]++
		if i < 6 {
			seq = append(seq, r.url)
		}
	}
	if counts["a"] != 200 || counts["b"] != 100 {
		t.Errorf("counts = %v, want a:200 b:100", counts)
	}
	want := []string{"a", "b", "a", "a", "b", "a"}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("sequence = %v, want %v (smooth interleaving)", seq, want)
		}
	}
}

// TestPickTierOrder: the selector prefers probe-confirmed closed
// replicas over unprobed ones over half-open ones, uses an open replica
// only as a last resort, and returns nil once every replica was tried.
func TestPickTierOrder(t *testing.T) {
	now := time.Unix(0, 0)
	healthy := &replica{url: "healthy", weight: 1, probed: true, healthy: true}
	unprobed := &replica{url: "unprobed", weight: 1}
	halfOpen := &replica{url: "half", weight: 1, state: breakerHalfOpen, probed: true, healthy: true}
	open := &replica{url: "open", weight: 1, state: breakerOpen, openedAt: now, cooldown: time.Hour}
	p := &pool{replicas: []*replica{open, halfOpen, unprobed, healthy}}

	var tried []*replica
	for _, want := range []string{"healthy", "unprobed", "half", "open"} {
		r := p.pick(now, tried)
		if r == nil || r.url != want {
			t.Fatalf("pick order: got %v, want %s (tried %d)", r, want, len(tried))
		}
		tried = append(tried, r)
	}
	if r := p.pick(now, tried); r != nil {
		t.Fatalf("pick with all tried = %v, want nil", r)
	}
}
