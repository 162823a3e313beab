package core

// MMR is Maximal Marginal Relevance (Carbonell & Goldstein, SIGIR'98), the
// pioneering diversification re-ranker discussed in the paper's related
// work (§2). It greedily selects
//
//	d* = argmax_{d∈R\S} [ λ·P(d|q) − (1−λ)·max_{dj∈S} sim(d,dj) ]
//
// with sim = cosine over document surrogates. Unlike the three query-log
// methods it needs no specializations — it diversifies purely on
// inter-document similarity — which makes it the natural
// taxonomy/log-free baseline for the ablation benches. Cost: O(n·k)
// similarity updates.
func MMR(p *Problem) []Selected {
	k := p.clampK()
	if k == 0 {
		return nil
	}
	n := len(p.Candidates)
	lambda := p.Lambda
	if lambda == 0 {
		lambda = 0.5
	}

	selected := make([]bool, n)
	// maxSim[i] = max similarity of candidate i to any selected document.
	maxSim := make([]float64, n)
	out := make([]Selected, 0, k)

	for len(out) < k {
		best := -1
		bestScore := 0.0
		for i := 0; i < n; i++ {
			if selected[i] {
				continue
			}
			score := lambda*p.Candidates[i].Rel - (1-lambda)*maxSim[i]
			if best < 0 || score > bestScore ||
				(score == bestScore && p.Candidates[i].Rank < p.Candidates[best].Rank) {
				bestScore = score
				best = i
			}
		}
		if best < 0 {
			break
		}
		selected[best] = true
		out = append(out, serpRow(&p.Candidates[best], bestScore))
		// Incremental update keeps the whole run at O(n) per insertion.
		for i := 0; i < n; i++ {
			if selected[i] {
				continue
			}
			if sim := p.Candidates[i].IVec.Cosine(p.Candidates[best].IVec); sim > maxSim[i] {
				maxSim[i] = sim
			}
		}
	}
	return out
}
