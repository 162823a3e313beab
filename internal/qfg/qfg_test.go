package qfg

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/querylog"
)

func at(min int) time.Time {
	return time.Date(2006, 3, 1, 10, 0, 0, 0, time.UTC).Add(time.Duration(min) * time.Minute)
}

func rec(user string, min int, q string, clicks ...string) querylog.Record {
	return querylog.Record{User: user, Time: at(min), Query: q, Clicks: clicks}
}

func TestChainProbabilitySpecialization(t *testing.T) {
	opts := DefaultOptions()
	// A refinement seconds later must chain with high probability.
	p := ChainProbability("leopard", "leopard tank", 30*time.Second, opts)
	if p < 0.8 {
		t.Errorf("specialization chain prob = %f, want >= 0.8", p)
	}
	// Unrelated queries 20 minutes apart must not chain.
	p = ChainProbability("leopard", "cheap flights rome", 20*time.Minute, opts)
	if p > 0.3 {
		t.Errorf("unrelated chain prob = %f, want <= 0.3", p)
	}
}

func TestChainProbabilityMaxGap(t *testing.T) {
	opts := DefaultOptions()
	if p := ChainProbability("a b", "a b c", 27*time.Minute, opts); p != 0 {
		t.Errorf("beyond MaxGap prob = %f, want 0", p)
	}
	// Negative gaps (clock skew) are treated as their magnitude.
	p1 := ChainProbability("a b", "a b c", time.Minute, opts)
	p2 := ChainProbability("a b", "a b c", -time.Minute, opts)
	if p1 != p2 {
		t.Errorf("negative gap handled asymmetrically: %f vs %f", p1, p2)
	}
}

func TestChainProbabilityMonotoneInGap(t *testing.T) {
	opts := DefaultOptions()
	prev := math.Inf(1)
	for _, m := range []int{0, 2, 5, 10, 15, 20, 25} {
		p := ChainProbability("apple", "apple ipod", time.Duration(m)*time.Minute, opts)
		if p > prev {
			t.Errorf("chain prob increased with gap at %dm: %f > %f", m, p, prev)
		}
		prev = p
	}
}

func buildTestLog() *querylog.Log {
	return querylog.New([]querylog.Record{
		// u1: one session: leopard -> leopard tank (refinement, clicked).
		rec("u1", 0, "leopard"),
		rec("u1", 1, "leopard tank", "url1"),
		// u1: new mission after 60 min.
		rec("u1", 61, "banana bread recipe", "url2"),
		// u2: leopard -> leopard mac os x.
		rec("u2", 0, "leopard"),
		rec("u2", 2, "leopard mac os x", "url3"),
		// u3: same transition as u2 again.
		rec("u3", 5, "leopard"),
		rec("u3", 6, "leopard mac os x"),
		// u4: no reformulation.
		rec("u4", 0, "weather boston"),
	})
}

func TestExtractSessions(t *testing.T) {
	sessions := ExtractSessions(buildTestLog(), DefaultOptions())
	// u1: 2 sessions; u2: 1; u3: 1; u4: 1.
	if len(sessions) != 5 {
		t.Fatalf("sessions = %d, want 5: %+v", len(sessions), sessions)
	}
	var u1First Session
	for _, s := range sessions {
		if s.User == "u1" && len(s.Records) == 2 {
			u1First = s
		}
	}
	if u1First.User != "u1" {
		t.Fatal("u1's refinement session not found")
	}
	qs := u1First.Queries()
	if qs[0] != "leopard" || qs[1] != "leopard tank" {
		t.Errorf("u1 session queries = %v", qs)
	}
	if !u1First.Satisfactory() {
		t.Error("clicked session not satisfactory")
	}
}

func TestSessionTimeoutCuts(t *testing.T) {
	l := querylog.New([]querylog.Record{
		rec("u", 0, "apple iphone"),
		rec("u", 40, "apple iphone price"), // 40 min gap: beyond MaxGap
	})
	sessions := ExtractSessions(l, DefaultOptions())
	if len(sessions) != 2 {
		t.Errorf("sessions = %d, want 2 (timeout must cut)", len(sessions))
	}
}

func TestComputeSessionStats(t *testing.T) {
	sessions := ExtractSessions(buildTestLog(), DefaultOptions())
	st := ComputeSessionStats(sessions)
	if st.Sessions != 5 {
		t.Errorf("Sessions = %d", st.Sessions)
	}
	if st.MultiQuery != 3 {
		t.Errorf("MultiQuery = %d, want 3", st.MultiQuery)
	}
	if st.Reformulations != 3 {
		t.Errorf("Reformulations = %d, want 3", st.Reformulations)
	}
	if st.MeanLength <= 1 || st.MeanLength > 2 {
		t.Errorf("MeanLength = %f", st.MeanLength)
	}
	if st.Satisfactory < 2 {
		t.Errorf("Satisfactory = %d, want >= 2", st.Satisfactory)
	}
	empty := ComputeSessionStats(nil)
	if empty.Sessions != 0 || empty.MeanLength != 0 {
		t.Errorf("empty stats = %+v", empty)
	}
}

func TestSessionAccessorsEmpty(t *testing.T) {
	var s Session
	if !s.Start().IsZero() {
		t.Error("empty session start not zero")
	}
	if s.Satisfactory() {
		t.Error("empty session satisfactory")
	}
	if len(s.Queries()) != 0 {
		t.Error("empty session has queries")
	}
}

// Property: chaining probability is always a valid probability and
// respects the hard MaxGap cutoff, for arbitrary query strings and gaps.
func TestChainProbabilityRangeProperty(t *testing.T) {
	opts := DefaultOptions()
	prop := func(q1, q2 string, gapSec int32) bool {
		gap := time.Duration(gapSec) * time.Second
		p := ChainProbability(q1, q2, gap, opts)
		if p < 0 || p > 1 {
			return false
		}
		abs := gap
		if abs < 0 {
			abs = -abs
		}
		if abs > opts.MaxGap && p != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Sessions partition the log: every record appears in exactly one session,
// in its original per-user order.
func TestExtractSessionsPartition(t *testing.T) {
	l := buildTestLog()
	sessions := ExtractSessions(l, DefaultOptions())
	total := 0
	perUser := map[string][]string{}
	for _, s := range sessions {
		total += len(s.Records)
		for _, r := range s.Records {
			perUser[s.User] = append(perUser[s.User], r.Query)
		}
	}
	if total != l.Len() {
		t.Fatalf("sessions cover %d records, log has %d", total, l.Len())
	}
	for _, stream := range l.UserStreams() {
		want := make([]string, len(stream))
		for i, r := range stream {
			want[i] = r.Query
		}
		got := perUser[stream[0].User]
		if len(got) != len(want) {
			t.Fatalf("user %s: %v vs %v", stream[0].User, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("user %s order broken at %d", stream[0].User, i)
			}
		}
	}
}
