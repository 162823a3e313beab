package core

// XQuAD is the greedy algorithm of the xQuAD framework (Santos et al.,
// WWW'10) as formulated in §3.1.2: it iteratively moves into S the
// document d* ∈ R_q \ S maximizing Equation (5),
//
//	(1−λ)·P(d|q) + λ·P(d,S̄|q),
//
// where the diversity component of Equation (6) is
//
//	P(d,S̄|q) = Σ_{q′∈S_q} P(q′|q) · P(d|q′) · Π_{dj∈S} (1 − P(dj|q′)),
//
// with P(d|q′) measured by the paper's normalized utility Ũ(d|R_q′).
// Like IASelect it rescans the remaining candidates for each of the k
// insertions: O(n·k) (Table 1).
func XQuAD(p *Problem, u *Utilities) []Selected {
	k := p.clampK()
	if k == 0 {
		return nil
	}
	if len(p.Specs) == 0 {
		return Baseline(p)
	}
	n := len(p.Candidates)
	s := len(p.Specs)

	// residual[j] = Π_{dj∈S}(1 − Ũ(dj|R_q′_j)): how uncovered
	// specialization j still is.
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
		bestScore := 0.0
		for i := 0; i < n; i++ {
			if selected[i] {
				continue
			}
			div := 0.0
			row := u.U[i]
			for j := 0; j < s; j++ {
				div += p.Specs[j].Prob * row[j] * residual[j]
			}
			score := (1-p.Lambda)*p.Candidates[i].Rel + p.Lambda*div
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
		row := u.U[best]
		for j := 0; j < s; j++ {
			residual[j] *= 1 - row[j]
		}
		out = append(out, serpRow(&p.Candidates[best], bestScore))
	}
	if p.Ops != nil {
		p.Ops.MarginalEvals += int64(evals)
	}
	return out
}
