// Package qfg splits a query log into logical user sessions, the
// preprocessing step §3 of the paper takes from the Query-Flow Graph of
// Boldi et al. (CIKM'08): "by processing a query log Q we obtain the set of
// logical user sessions."
//
// The graph's edge weight — the chaining probability that one query
// continues the same search mission as the one before it, estimated from
// textual and temporal features — is all the split needs: each user's
// chronological stream is cut wherever that probability drops below a
// threshold. No graph is built; nothing downstream reads one.
package qfg

import (
	"math"
	"time"

	"repro/internal/text"
	"repro/internal/textsim"
)

// Options configures session extraction.
type Options struct {
	// MaxGap is a hard session cutoff: consecutive submissions farther
	// apart than this can never be chained. The default (26 minutes) is
	// the standard timeout from the session-splitting literature.
	MaxGap time.Duration
	// ChainThreshold is the minimum chaining probability for two
	// consecutive queries to stay in the same logical session.
	ChainThreshold float64
	// TimeDecay is the time constant τ of the temporal feature
	// exp(−gap/τ). Default 10 minutes.
	TimeDecay time.Duration
}

// DefaultOptions returns the configuration used throughout the
// reproduction experiments.
func DefaultOptions() Options {
	return Options{
		MaxGap:         26 * time.Minute,
		ChainThreshold: 0.5,
		TimeDecay:      10 * time.Minute,
	}
}

func (o Options) withDefaults() Options {
	if o.MaxGap == 0 {
		o.MaxGap = 26 * time.Minute
	}
	if o.ChainThreshold == 0 {
		o.ChainThreshold = 0.5
	}
	if o.TimeDecay == 0 {
		o.TimeDecay = 10 * time.Minute
	}
	return o
}

// ChainProbability estimates the probability that q2 continues the same
// search mission as q1 when submitted gap after it. It is a transparent
// logistic model over three features: term-set Jaccard overlap, term
// containment (every q1 term appears in q2 — the specialization signal),
// and an exponential time decay. Boldi et al. learn such a model from
// labelled sessions; the hand-set weights below reproduce the same
// qualitative behaviour and are fixed constants of this reproduction.
func ChainProbability(q1, q2 string, gap time.Duration, opts Options) float64 {
	opts = opts.withDefaults()
	if gap < 0 {
		gap = -gap
	}
	if gap > opts.MaxGap {
		return 0
	}
	t1, t2 := text.Tokenize(q1), text.Tokenize(q2)
	jac := textsim.JaccardTokens(t1, t2)
	contain := 0.0
	if containsAll(t2, t1) && len(t1) > 0 {
		contain = 1
	}
	decay := math.Exp(-float64(gap) / float64(opts.TimeDecay))

	score := -2.2 + 3.5*jac + 2.0*contain + 2.2*decay
	return 1 / (1 + math.Exp(-score))
}

// containsAll reports whether every token of needles occurs in haystack.
func containsAll(haystack, needles []string) bool {
	set := make(map[string]bool, len(haystack))
	for _, t := range haystack {
		set[t] = true
	}
	for _, t := range needles {
		if !set[t] {
			return false
		}
	}
	return true
}
