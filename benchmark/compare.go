package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
)

// An open phase whose generator ran more than lateLimitMs late at its
// 99th percentile, or whose last quarter was more than backlogLimit times
// slower than its first, did not offer the load it claims: its latency is
// reported as unresolved, never as a number.
//
// The generator shares the two cores with the server, and the Go
// scheduler lets a running handler keep its core for up to 10 ms, so with
// both cores busy the generator wakes 5 to 10 ms late at the 99th
// percentile on every workload. That wait is inside the latency it
// reports and does not accumulate. Two scheduler quanta mean it is
// falling behind for another reason.
const (
	lateLimitMs  = 20.0
	backlogLimit = 2.0
)

func readRuns(path string) ([]run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []run
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r run
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		runs = append(runs, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return runs, nil
}

// values collects one metric of one workload over a set of runs.
func values(runs []run, workload, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		o := r.Workloads[workload]
		if o == nil {
			continue
		}
		if v, ok := o.EndToEnd[metric]; ok {
			out = append(out, v)
		} else if v, ok := o.PerLayer[metric]; ok {
			out = append(out, v)
		}
	}
	return out
}

// spread is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives. Fewer than two values have no
// spread.
func spread(vals []float64) float64 {
	n := len(vals)
	if n < 2 {
		return 0
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	quartile := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return ratio(quartile(3)-quartile(1), quartile(2))
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// how much worse b is than a, the bound, and a verdict. It reports
// whether any metric regressed.
func compareFiles(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	a, err := readRuns(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRuns(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "a: %s (%d runs, commit %s)\nb: %s (%d runs, commit %s)\n",
		pathA, len(a), a[0].Header.Commit, pathB, len(b), b[0].Header.Commit)
	fmt.Fprintf(w, "%-10s %-16s %12s %12s %8s %7s %7s  %s\n", "workload", "metric", "a median", "b median", "worse", "spread", "bound", "verdict")
	for _, wl := range workloads {
		overloaded := false
		for _, runs := range [][]run{a, b} {
			if median(values(runs, wl.name, "loadgen.late_p99_ms")) > lateLimitMs ||
				median(values(runs, wl.name, "loadgen.backlog_ratio")) > backlogLimit {
				overloaded = true
			}
		}
		for _, d := range endToEnd {
			va, vb := values(a, wl.name, d.Name), values(b, wl.name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse := ratio(mb-ma, ma)
			if d.Better == higher {
				worse = -worse
			}
			sp := max(spread(va), spread(vb))
			verdict := "ok"
			switch {
			case overloaded && strings.HasPrefix(d.Name, "latency_"):
				fmt.Fprintf(w, "%-10s %-16s %12s %12s %8s %7s %6.1f%%  unresolved (generator late or backlog growing)\n",
					wl.name, d.Name, "-", "-", "-", "-", 100*d.Bound)
				continue
			case sp > d.Bound:
				verdict = "unresolved (spread wider than the bound)"
			case worse > d.Bound:
				verdict = "regressed"
				regressed = true
			}
			fmt.Fprintf(w, "%-10s %-16s %12.4f %12.4f %+7.1f%% %6.1f%% %6.1f%%  %s\n",
				wl.name, d.Name, ma, mb, 100*worse, 100*sp, 100*d.Bound, verdict)
		}
	}
	return regressed, nil
}
