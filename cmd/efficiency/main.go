// Command efficiency regenerates the paper's Table 2 (diversification
// wall-clock times over the |R_q| × k grid) and, with -fit, the empirical
// complexity exponents behind Table 1, fitted on operation counts (heap
// pushes, marginal-utility evaluations) so they do not depend on the box.
//
// Usage:
//
//	efficiency            # reduced grid (fast)
//	efficiency -full      # the paper's grid: |Rq| ∈ {1k,10k,100k} × k ∈ {10..1000}
//	efficiency -fit       # add the Table 1 power-law fits (operation counts)
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/exp"
)

func main() {
	full := flag.Bool("full", false, "run the paper's full grid (slower)")
	fit := flag.Bool("fit", false, "fit complexity exponents on operation counts (Table 1)")
	seed := flag.Int64("seed", 1, "problem generator seed")
	reps := flag.Int("reps", 3, "timing repetitions per cell")
	specs := flag.Int("specs", 8, "|Sq|: specializations per problem")
	flag.Parse()

	spec := exp.Table2Spec{Seed: *seed, Reps: *reps, NumSpecs: *specs}
	if *full {
		spec.Ns = []int{1000, 10000, 100000}
		spec.Ks = []int{10, 50, 100, 500, 1000}
	} else {
		spec.Ns = []int{1000, 10000, 40000}
		spec.Ks = []int{10, 50, 100, 500, 1000}
	}

	fmt.Println("== Table 2: diversification time (msec) ==")
	res := exp.RunTable2(spec)
	if err := res.Format(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "efficiency:", err)
		os.Exit(1)
	}

	if *fit {
		fmt.Println("\n== Table 1: empirical complexity fits ==")
		fits, err := exp.FitComplexity(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "efficiency:", err)
			os.Exit(1)
		}
		exp.FormatComplexity(os.Stdout, fits)
	}
}
