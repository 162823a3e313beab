// Command bench runs the repo's benchmark suite through `go test -bench`
// and emits a machine-readable snapshot — the repo's perf trajectory. Each
// run appends one point to the trajectory: commit BENCH_<date>.json at the
// repo root and future sessions can diff ns/op and allocs/op against it.
//
//	bench                            # hot-path set, writes BENCH_<date>.json
//	bench -bench 'Table2' -count 3   # any benchmark regex, best-of-3
//	bench -cpu 1,2                   # sweep GOMAXPROCS (shard fan-out scaling)
//	bench -out /dev/stdout           # print instead of committing a file
//
// The default -bench pattern covers the serving hot paths (utility matrix,
// DAAT retrieval incl. the sharded fan-out and the block-compressed
// posting layout, batched vs sequential R_q′ scatter-gather, full
// Diversify) plus the Table 2 selection algorithms, over the root
// package. After writing the snapshot, bench prints a non-gating delta
// table against the newest committed BENCH_*.json (override with
// -baseline, or -baseline none to skip): ns/op per benchmark, plus the
// index-size and open-time metrics of the benchmarks that report them. CI runs this as a non-gating job so regressions
// are visible without blocking merges on noisy shared runners.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Point is one benchmark result: the parsed `go test -bench` line.
type Point struct {
	Name       string `json:"name"` // sub-benchmark path without the Benchmark prefix
	Gomaxprocs int    `json:"gomaxprocs"`
	Iters      int64  `json:"iters"`
	// Metrics maps unit → value: ns/op, B/op, allocs/op plus any custom
	// b.ReportMetric units the benchmark emits.
	Metrics map[string]float64 `json:"metrics"`
}

// Snapshot is the file format of BENCH_<date>.json.
type Snapshot struct {
	Schema    int     `json:"schema"`
	Date      string  `json:"date"`
	GoVersion string  `json:"go_version"`
	GOOS      string  `json:"goos"`
	GOARCH    string  `json:"goarch"`
	Bench     string  `json:"bench_pattern"`
	Count     int     `json:"count"`
	Benchtime string  `json:"benchtime"`
	Points    []Point `json:"benchmarks"`
}

const defaultPattern = "ComputeUtilities|Retrieve|DiversifyFull|SpecRetrieval|Table2$|OpenIndex"

// deltaUnits are the metrics the delta table diffs, with the precision
// each prints at: ns/op for every benchmark, plus the custom metrics of
// the storage sub-benchmarks (BenchmarkRetrieveLayout's posting-storage
// footprint) and of BenchmarkOpenIndex (wall-clock milliseconds to open a
// persisted index), so a layout or startup regression is as visible as a
// throughput one.
var deltaUnits = []struct {
	unit string
	prec int
}{{"ns/op", 0}, {"bytes/posting", 2}, {"open_ms", 3}}

func main() {
	pattern := flag.String("bench", defaultPattern, "benchmark regex passed to go test -bench")
	count := flag.Int("count", 1, "-count passed to go test (keep every run in the snapshot)")
	benchtime := flag.String("benchtime", "", "-benchtime passed to go test (empty: go default)")
	cpu := flag.String("cpu", "", "-cpu passed to go test (GOMAXPROCS list, e.g. 1,2; empty: current)")
	out := flag.String("out", "", "output path (default BENCH_<date>.json in the working directory)")
	baseline := flag.String("baseline", "", "snapshot to diff against (default: newest BENCH_*.json in the working directory); \"none\" disables the delta")
	flag.Parse()

	args := []string{"test", "-run", "^$", "-bench", *pattern, "-benchmem", "-count", strconv.Itoa(*count)}
	if *benchtime != "" {
		args = append(args, "-benchtime", *benchtime)
	}
	if *cpu != "" {
		args = append(args, "-cpu", *cpu)
	}
	args = append(args, ".")

	fmt.Fprintf(os.Stderr, "bench: go %s\n", strings.Join(args, " "))
	cmd := exec.Command("go", args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		// Still try to salvage parsed lines: a late benchmark failure should
		// not discard the points already measured.
		fmt.Fprintln(os.Stderr, "bench: go test:", err)
		if stdout.Len() == 0 {
			os.Exit(1)
		}
	}

	points := parseBenchOutput(&stdout)
	if len(points) == 0 {
		fmt.Fprintln(os.Stderr, "bench: no benchmark lines in go test output")
		os.Exit(1)
	}

	snap := Snapshot{
		Schema:    1,
		Date:      time.Now().UTC().Format("2006-01-02"),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Bench:     *pattern,
		Count:     *count,
		Benchtime: *benchtime,
		Points:    points,
	}
	path := *out
	if path == "" {
		path = fmt.Sprintf("BENCH_%s.json", snap.Date)
	}
	enc, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if err := os.WriteFile(path, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "bench: %d points -> %s\n", len(points), path)
	printDelta(*baseline, path, snap)
}

// printDelta diffs the fresh snapshot against the most recent committed
// BENCH_*.json (or an explicit -baseline) and prints a ns/op delta table
// to stderr. Strictly non-gating: any problem — no baseline, unreadable
// file, disjoint benchmark sets — degrades to a note, never a failure;
// CI stays green on regressions, they just become visible in the log.
func printDelta(baseline, freshPath string, fresh Snapshot) {
	if baseline == "none" {
		return
	}
	if baseline == "" {
		matches, _ := filepath.Glob("BENCH_*.json")
		// BENCH_<date> names sort chronologically; reversed, the newest
		// committed snapshot comes first.
		sort.Sort(sort.Reverse(sort.StringSlice(matches)))
		for _, m := range matches {
			if filepath.Clean(m) != filepath.Clean(freshPath) {
				baseline = m
				break
			}
		}
		if baseline == "" {
			fmt.Fprintln(os.Stderr, "bench: no committed BENCH_*.json to diff against")
			return
		}
	}
	raw, err := os.ReadFile(baseline)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: delta skipped:", err)
		return
	}
	var base Snapshot
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(os.Stderr, "bench: delta skipped: %s: %v\n", baseline, err)
		return
	}
	// Key points by (name, gomaxprocs, unit); with -count > 1 the last run
	// wins, matching how the table reads top to bottom.
	type key struct {
		name  string
		procs int
		unit  string
	}
	old := make(map[key]float64)
	for _, p := range base.Points {
		for unit, v := range p.Metrics {
			old[key{p.Name, p.Gomaxprocs, unit}] = v
		}
	}
	fmt.Fprintf(os.Stderr, "bench: delta vs %s (negative = faster; non-gating)\n", baseline)
	matched := 0
	for _, u := range deltaUnits {
		for _, p := range fresh.Points {
			v, ok := p.Metrics[u.unit]
			if !ok {
				continue
			}
			name := fmt.Sprintf("%s-%d", p.Name, p.Gomaxprocs)
			if was := old[key{p.Name, p.Gomaxprocs, u.unit}]; was != 0 {
				matched++
				fmt.Fprintf(os.Stderr, "  %-55s %12.*f -> %12.*f %s  %+6.1f%%\n",
					name, u.prec, was, u.prec, v, u.unit, 100*(v-was)/was)
			} else if u.unit != "ns/op" {
				fmt.Fprintf(os.Stderr, "  %-55s %27.*f %s  (no baseline)\n", name, u.prec, v, u.unit)
			}
		}
	}
	if matched == 0 {
		fmt.Fprintln(os.Stderr, "  (no benchmarks in common with the baseline)")
	}
}

// parseBenchOutput extracts benchmark result lines. The format is
//
//	BenchmarkName-8   1234   5678 ns/op   90 B/op   1 allocs/op   2.5 custom_unit
//
// i.e. name, iteration count, then (value, unit) pairs.
func parseBenchOutput(r *bytes.Buffer) []Point {
	var points []Point
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		// go test appends "-GOMAXPROCS" to the name except when it is 1, so
		// an unsuffixed line always means GOMAXPROCS=1 — crucially under
		// -cpu sweeps, where falling back to this process's GOMAXPROCS
		// would mislabel the cpu=1 points on multicore hosts.
		procs := 1
		if i := strings.LastIndex(name, "-"); i >= 0 {
			if p, err := strconv.Atoi(name[i+1:]); err == nil {
				procs = p
				name = name[:i]
			}
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		metrics := make(map[string]float64, (len(fields)-2)/2)
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			metrics[fields[i+1]] = v
		}
		points = append(points, Point{Name: name, Gomaxprocs: procs, Iters: iters, Metrics: metrics})
	}
	return points
}
