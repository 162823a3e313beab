// Package exp implements the experiment harnesses that regenerate every
// table and figure of the paper's evaluation (the per-experiment index
// lives in DESIGN.md §4):
//
//	Table 1  — empirical complexity-exponent fits   (this file)
//	Table 2  — diversification wall-clock times     (this file)
//	Table 3  — α-NDCG / IA-P effectiveness sweep    (table3.go)
//	Figure 1 — utility ratio vs |S_q|               (figure1.go)
//	App. C   — specialization-coverage recall       (recall.go)
//
// The cmd/ tools and the root benchmarks are thin wrappers over these
// runners, so printed tables and testing.B benchmarks share one code path.
package exp

import (
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/synth"
)

// Table2Spec parameterizes the efficiency experiment of Table 2: time
// OptSelect, xQuAD and IASelect while varying the candidate-set size |R_q|
// and the output size k, at fixed |S_q| — the paper's exact grid is
// |R_q| ∈ {1000, 10000, 100000} × k ∈ {10, 50, 100, 500, 1000}.
type Table2Spec struct {
	Seed     int64
	Ns       []int // |R_q| values
	Ks       []int // k values
	NumSpecs int   // |S_q| (paper: constant, small; default 8)
	PerSpec  int   // |R_q′| (paper: 20)
	Reps     int   // timing repetitions per cell (minimum reported)
}

// DefaultTable2Spec returns the paper's full grid.
func DefaultTable2Spec() Table2Spec {
	return Table2Spec{
		Seed:     1,
		Ns:       []int{1000, 10000, 100000},
		Ks:       []int{10, 50, 100, 500, 1000},
		NumSpecs: 8,
		PerSpec:  20,
		Reps:     3,
	}
}

func (s Table2Spec) withDefaults() Table2Spec {
	d := DefaultTable2Spec()
	if s.Ns == nil {
		s.Ns = d.Ns
	}
	if s.Ks == nil {
		s.Ks = d.Ks
	}
	if s.NumSpecs == 0 {
		s.NumSpecs = d.NumSpecs
	}
	if s.PerSpec == 0 {
		s.PerSpec = d.PerSpec
	}
	if s.Reps == 0 {
		s.Reps = d.Reps
	}
	return s
}

// Table2Cell is one grid cell: the wall-clock time Table 2 prints, and
// the operation count (core.OpCount: OptSelect's heap pushes, the greedy
// algorithms' marginal-utility evaluations) the complexity fit of Table 1
// reads — a property of the algorithm and the input, the same on a loaded
// box as on an idle one.
type Table2Cell struct {
	N      int
	K      int
	Millis float64
	Ops    int64
}

// Table2Result holds the timed grid per algorithm.
type Table2Result struct {
	Spec  Table2Spec
	Cells map[core.Algorithm][]Table2Cell
}

// table2Algorithms are the three methods the paper times.
var table2Algorithms = []core.Algorithm{core.AlgOptSelect, core.AlgXQuAD, core.AlgIASelect}

// RunTable2 generates one synthetic problem per |R_q| value, precomputes
// the utilities once (shared by all three algorithms, as in the paper
// where utilities come from stored snippets), and times each algorithm at
// each k.
func RunTable2(spec Table2Spec) *Table2Result {
	spec = spec.withDefaults()
	res := &Table2Result{
		Spec:  spec,
		Cells: make(map[core.Algorithm][]Table2Cell, len(table2Algorithms)),
	}
	for _, n := range spec.Ns {
		p := synth.GenerateProblem(synth.ProblemSpec{
			Seed:     spec.Seed,
			N:        n,
			K:        spec.Ks[0],
			NumSpecs: spec.NumSpecs,
			PerSpec:  spec.PerSpec,
		})
		u := core.ComputeUtilities(p)
		for _, k := range spec.Ks {
			p.K = k
			for _, alg := range table2Algorithms {
				ms, ops := timeAlgorithm(alg, p, u, spec.Reps)
				res.Cells[alg] = append(res.Cells[alg], Table2Cell{N: n, K: k, Millis: ms, Ops: ops})
			}
		}
	}
	return res
}

// timeAlgorithm returns the best wall-clock time of reps runs, in
// milliseconds, and the operations one run performs.
func timeAlgorithm(alg core.Algorithm, p *core.Problem, u *core.Utilities, reps int) (float64, int64) {
	run := func() {
		switch alg {
		case core.AlgOptSelect:
			core.OptSelect(p, u)
		case core.AlgXQuAD:
			core.XQuAD(p, u)
		case core.AlgIASelect:
			core.IASelect(p, u)
		}
	}
	// One warm-up round keeps allocator effects out of the first cell; it
	// is also the run whose operations are counted.
	var ops core.OpCount
	p.Ops = &ops
	run()
	p.Ops = nil
	// The minimum of the reps, not their mean: a rep that shared its core
	// with another package's tests only ever reads high.
	best := time.Duration(math.MaxInt64)
	for r := 0; r < reps; r++ {
		start := time.Now()
		run()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return float64(best.Microseconds()) / 1000.0, ops.HeapPushes + ops.MarginalEvals
}

// Cell returns the timing for (alg, n, k).
func (r *Table2Result) Cell(alg core.Algorithm, n, k int) (Table2Cell, bool) {
	for _, c := range r.Cells[alg] {
		if c.N == n && c.K == k {
			return c, true
		}
	}
	return Table2Cell{}, false
}

// Speedup returns the xQuAD/OptSelect wall-clock ratio at (n, k) — the
// "two orders of magnitude" headline of the paper at the large corner.
func (r *Table2Result) Speedup(n, k int) float64 {
	opt, ok1 := r.Cell(core.AlgOptSelect, n, k)
	xq, ok2 := r.Cell(core.AlgXQuAD, n, k)
	if !ok1 || !ok2 || opt.Millis == 0 {
		return 0
	}
	return xq.Millis / opt.Millis
}

// Format writes the grid in the layout of the paper's Table 2.
func (r *Table2Result) Format(w io.Writer) error {
	fmt.Fprintf(w, "Execution time (msec) by |Rq| and k (|Sq|=%d, |Rq'|=%d)\n",
		r.Spec.NumSpecs, r.Spec.PerSpec)
	for _, alg := range table2Algorithms {
		fmt.Fprintf(w, "\n%s\n", algLabel(alg))
		fmt.Fprintf(w, "%10s", "|Rq|\\k")
		for _, k := range r.Spec.Ks {
			fmt.Fprintf(w, " %10d", k)
		}
		fmt.Fprintln(w)
		for _, n := range r.Spec.Ns {
			fmt.Fprintf(w, "%10d", n)
			for _, k := range r.Spec.Ks {
				c, _ := r.Cell(alg, n, k)
				fmt.Fprintf(w, " %10.2f", c.Millis)
			}
			fmt.Fprintln(w)
		}
	}
	nMax := r.Spec.Ns[len(r.Spec.Ns)-1]
	kMax := r.Spec.Ks[len(r.Spec.Ks)-1]
	fmt.Fprintf(w, "\nxQuAD/OptSelect speedup at |Rq|=%d, k=%d: %.1fx\n",
		nMax, kMax, r.Speedup(nMax, kMax))
	return nil
}

func algLabel(a core.Algorithm) string {
	switch a {
	case core.AlgOptSelect:
		return "OptSelect"
	case core.AlgXQuAD:
		return "xQuAD"
	case core.AlgIASelect:
		return "IASelect"
	case core.AlgMMR:
		return "MMR"
	default:
		return string(a)
	}
}

// ComplexityFit is one row of the empirical Table 1: the fitted exponents
// e of operations ∝ n^e (at the largest k no n clamps) and operations ∝
// k^e (at the largest n). The theoretical values are e_n = 1 for all three
// algorithms, e_k = 1 for IASelect/xQuAD and e_k ≈ 0 for OptSelect (its
// pushes do not grow with k; each costs O(log k)).
type ComplexityFit struct {
	Alg        core.Algorithm
	ExponentN  float64
	R2N        float64
	ExponentK  float64
	R2K        float64
	Complexity string // the paper's Table 1 entry
}

// FitComplexity recovers the empirical complexity exponents from a grid's
// operation counts (needs at least two Ns and two Ks).
func FitComplexity(r *Table2Result) ([]ComplexityFit, error) {
	// The n-exponent is fitted along one k: the largest that no n clamps.
	// An algorithm asked for k > n selects n, so a k above the smallest n
	// times that cell at a smaller effective k than the others, which
	// steepens the fitted slope (k = 1280 over n = 1000…16000 reads ≈ 0.1
	// high — enough to put an O(nk) method at the edge of the linear band).
	kFix := r.Spec.Ks[0]
	for _, k := range r.Spec.Ks {
		if k > kFix && k <= slices.Min(r.Spec.Ns) {
			kFix = k
		}
	}
	nFix := r.Spec.Ns[len(r.Spec.Ns)-1]
	var out []ComplexityFit
	for _, alg := range table2Algorithms {
		var xs, ys []float64
		for _, n := range r.Spec.Ns {
			if c, ok := r.Cell(alg, n, kFix); ok && c.Ops > 0 {
				xs = append(xs, float64(n))
				ys = append(ys, float64(c.Ops))
			}
		}
		eN, _, r2N, err := stats.FitPowerLaw(xs, ys)
		if err != nil {
			return nil, fmt.Errorf("exp: fit n for %s: %w", alg, err)
		}
		xs, ys = nil, nil
		for _, k := range r.Spec.Ks {
			if c, ok := r.Cell(alg, nFix, k); ok && c.Ops > 0 {
				xs = append(xs, float64(k))
				ys = append(ys, float64(c.Ops))
			}
		}
		eK, _, r2K, err := stats.FitPowerLaw(xs, ys)
		if err != nil {
			return nil, fmt.Errorf("exp: fit k for %s: %w", alg, err)
		}
		fit := ComplexityFit{Alg: alg, ExponentN: eN, R2N: r2N, ExponentK: eK, R2K: r2K}
		switch alg {
		case core.AlgOptSelect:
			fit.Complexity = "O(n log k)"
		default:
			fit.Complexity = "O(n k)"
		}
		out = append(out, fit)
	}
	return out, nil
}

// FormatComplexity writes the empirical Table 1.
func FormatComplexity(w io.Writer, fits []ComplexityFit) {
	fmt.Fprintf(w, "%-10s %-12s %14s %8s %14s %8s\n",
		"Algorithm", "Theory", "exp(ops~n^e)", "R2", "exp(ops~k^e)", "R2")
	for _, f := range fits {
		fmt.Fprintf(w, "%-10s %-12s %14.2f %8.3f %14.2f %8.3f\n",
			algLabel(f.Alg), f.Complexity, f.ExponentN, f.R2N, f.ExponentK, f.R2K)
	}
}
