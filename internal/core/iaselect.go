package core

// IASelect is the greedy approximation of QL Diversify(k) (§3.1.1), the
// query-log adaptation of Agrawal et al.'s Diversify(k). The objective of
// Equation (4),
//
//	P(S|q) = Σ_{q′∈S_q} P(q′|q) · (1 − Π_{d∈S} (1 − Ũ(d|R_q′))),
//
// is submodular, so the greedy algorithm that repeatedly inserts the
// document with the largest marginal gain achieves a (1−1/e)
// approximation (Nemhauser et al.). Each of the k insertions rescans all
// remaining candidates against every specialization, giving the O(n·k)
// cost of Table 1 (with the constant |S_q| factor).
func IASelect(p *Problem, u *Utilities) []Selected {
	k := p.clampK()
	if k == 0 {
		return nil
	}
	if len(p.Specs) == 0 {
		return Baseline(p)
	}
	n := len(p.Candidates)
	s := len(p.Specs)

	// residual[j] = Π_{d∈S}(1 − Ũ(d|R_q′_j)): the probability that
	// specialization j is still unsatisfied by the current solution.
	residual := make([]float64, s)
	for j := range residual {
		residual[j] = 1
	}
	selected := make([]bool, n)
	out := make([]Selected, 0, k)

	evals := 0
	for len(out) < k {
		evals += n - len(out)
		best := -1
		bestGain := -1.0
		for i := 0; i < n; i++ {
			if selected[i] {
				continue
			}
			gain := 0.0
			row := u.U[i]
			for j := 0; j < s; j++ {
				gain += p.Specs[j].Prob * residual[j] * row[j]
			}
			if gain > bestGain ||
				(gain == bestGain && best >= 0 && p.Candidates[i].Rank < p.Candidates[best].Rank) {
				bestGain = gain
				best = i
			}
		}
		if best < 0 {
			break
		}
		selected[best] = true
		row := u.U[best]
		for j := 0; j < s; j++ {
			residual[j] *= 1 - row[j]
		}
		out = append(out, serpRow(&p.Candidates[best], bestGain))
	}
	if p.Ops != nil {
		p.Ops.MarginalEvals += int64(evals)
	}
	return out
}

// ObjectiveQL evaluates Equation (4) for a given selection — used by tests
// to verify greedy improvement and by the ablation harness.
func ObjectiveQL(p *Problem, u *Utilities, sel []Selected) float64 {
	idx := indexByID(p)
	residual := make([]float64, len(p.Specs))
	for j := range residual {
		residual[j] = 1
	}
	for _, d := range sel {
		i, ok := idx[d.ID]
		if !ok {
			continue
		}
		for j := range p.Specs {
			residual[j] *= 1 - u.U[i][j]
		}
	}
	total := 0.0
	for j := range p.Specs {
		total += p.Specs[j].Prob * (1 - residual[j])
	}
	return total
}

func indexByID(p *Problem) map[string]int {
	m := make(map[string]int, len(p.Candidates))
	for i := range p.Candidates {
		m[p.Candidates[i].ID] = i
	}
	return m
}
