// Command bench runs the repo's benchmark suite through `go test -bench`
// and emits a machine-readable snapshot — the repo's perf trajectory. Each
// run appends one point to the trajectory: commit BENCH_<date>.json at the
// repo root and future sessions can diff ns/op and allocs/op against it.
//
//	bench                            # hot-path set, writes BENCH_<date>.json
//	bench -bench 'Table2' -count 3   # any benchmark regex, best-of-3
//	bench -cpu 1,2                   # sweep GOMAXPROCS (shard fan-out scaling)
//	bench -out /dev/stdout           # print instead of committing a file
//	bench -merge points.jsonl        # fold loadgen -json points into the snapshot
//
// The default -bench pattern covers the serving hot paths (utility matrix,
// DAAT retrieval incl. the sharded fan-out and the block-vs-flat posting
// layouts, batched vs sequential R_q′ scatter-gather, full Diversify) plus
// the Table 2 selection algorithms. After writing the snapshot, bench
// prints a non-gating delta table against the newest committed
// BENCH_*.json (override with -baseline, or -baseline none to skip):
// ns/op per benchmark, plus an index-size line for every point reporting
// a bytes/posting metric. CI runs this as a non-gating job so regressions
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

// sizeUnit is the custom metric the storage sub-benchmarks report
// (BenchmarkRetrieveLayout's b.ReportMetric) — the posting-storage
// footprint the delta table tracks next to ns/op.
const sizeUnit = "bytes/posting"

// openUnit is the custom metric BenchmarkOpenIndex reports: wall-clock
// milliseconds to open a persisted index (heap decode vs mmap-in-place),
// tracked in the delta table so startup-latency regressions are as
// visible as throughput ones.
const openUnit = "open_ms"

func main() {
	pattern := flag.String("bench", defaultPattern, "benchmark regex passed to go test -bench")
	count := flag.Int("count", 1, "-count passed to go test (keep every run in the snapshot)")
	benchtime := flag.String("benchtime", "", "-benchtime passed to go test (empty: go default)")
	cpu := flag.String("cpu", "", "-cpu passed to go test (GOMAXPROCS list, e.g. 1,2; empty: current)")
	pkg := flag.String("pkg", ".", "package pattern to benchmark")
	out := flag.String("out", "", "output path (default BENCH_<date>.json in the working directory)")
	baseline := flag.String("baseline", "", "snapshot to diff against (default: newest BENCH_*.json in the working directory); \"none\" disables the delta")
	merge := flag.String("merge", "", "JSONL file of externally measured points (loadgen -json output) to fold into the snapshot at -out instead of running go test; same-name points are replaced")
	flag.Parse()

	if *merge != "" {
		if err := mergePoints(*merge, *out); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}

	args := []string{"test", "-run", "^$", "-bench", *pattern, "-benchmem", "-count", strconv.Itoa(*count)}
	if *benchtime != "" {
		args = append(args, "-benchtime", *benchtime)
	}
	if *cpu != "" {
		args = append(args, "-cpu", *cpu)
	}
	args = append(args, *pkg)

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

// mergePoints folds externally measured benchmark points — one JSON
// object per line, the shape loadgen -json writes — into the snapshot at
// outPath, creating it if absent. A point with the same (name,
// gomaxprocs) as an existing one replaces it, so re-running an
// experiment updates the curve instead of duplicating it. This is how
// scripts/scale.sh lands its QPS/p99 replica-scaling points next to the
// go-test benchmarks in the committed BENCH_<date>.json.
func mergePoints(src, outPath string) error {
	raw, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	var incoming []Point
	dec := json.NewDecoder(bytes.NewReader(raw))
	for dec.More() {
		var p Point
		if err := dec.Decode(&p); err != nil {
			return fmt.Errorf("%s: %w", src, err)
		}
		if p.Name == "" {
			return fmt.Errorf("%s: point without a name", src)
		}
		incoming = append(incoming, p)
	}
	if len(incoming) == 0 {
		return fmt.Errorf("%s: no points to merge", src)
	}

	if outPath == "" {
		outPath = fmt.Sprintf("BENCH_%s.json", time.Now().UTC().Format("2006-01-02"))
	}
	snap := Snapshot{
		Schema:    1,
		Date:      time.Now().UTC().Format("2006-01-02"),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
	if existing, err := os.ReadFile(outPath); err == nil {
		if err := json.Unmarshal(existing, &snap); err != nil {
			return fmt.Errorf("%s: %w", outPath, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}

	replaced := 0
	for _, p := range incoming {
		found := false
		for i := range snap.Points {
			if snap.Points[i].Name == p.Name && snap.Points[i].Gomaxprocs == p.Gomaxprocs {
				snap.Points[i] = p
				found = true
				replaced++
				break
			}
		}
		if !found {
			snap.Points = append(snap.Points, p)
		}
	}
	enc, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(enc, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bench: merged %d points (%d replaced) -> %s\n", len(incoming), replaced, outPath)
	return nil
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
	// Key points by (name, gomaxprocs); with -count > 1 the last run wins,
	// matching how the table reads top to bottom.
	type key struct {
		name  string
		procs int
	}
	baseNs := make(map[key]float64, len(base.Points))
	baseSize := make(map[key]float64)
	baseOpen := make(map[key]float64)
	for _, p := range base.Points {
		if v, ok := p.Metrics["ns/op"]; ok {
			baseNs[key{p.Name, p.Gomaxprocs}] = v
		}
		if v, ok := p.Metrics[sizeUnit]; ok {
			baseSize[key{p.Name, p.Gomaxprocs}] = v
		}
		if v, ok := p.Metrics[openUnit]; ok {
			baseOpen[key{p.Name, p.Gomaxprocs}] = v
		}
	}
	fmt.Fprintf(os.Stderr, "bench: delta vs %s (negative = faster; non-gating)\n", baseline)
	matched := 0
	for _, p := range fresh.Points {
		v, ok := p.Metrics["ns/op"]
		if !ok {
			continue
		}
		old, ok := baseNs[key{p.Name, p.Gomaxprocs}]
		if !ok || old == 0 {
			continue
		}
		matched++
		fmt.Fprintf(os.Stderr, "  %-55s %12.0f -> %12.0f ns/op  %+6.1f%%\n",
			fmt.Sprintf("%s-%d", p.Name, p.Gomaxprocs), old, v, 100*(v-old)/old)
	}
	if matched == 0 {
		fmt.Fprintln(os.Stderr, "  (no benchmarks in common with the baseline)")
	}
	// Index-size trajectory: any benchmark reporting a bytes/posting
	// metric (the storage sub-benchmarks of BenchmarkRetrieveLayout) gets
	// a delta line too, so a layout change that regresses posting storage
	// is as visible as one that regresses latency. Equally non-gating.
	for _, p := range fresh.Points {
		v, ok := p.Metrics[sizeUnit]
		if !ok {
			continue
		}
		if old, ok := baseSize[key{p.Name, p.Gomaxprocs}]; ok && old != 0 {
			fmt.Fprintf(os.Stderr, "  index size: %-43s %12.2f -> %12.2f %s  %+6.1f%%\n",
				fmt.Sprintf("%s-%d", p.Name, p.Gomaxprocs), old, v, sizeUnit, 100*(v-old)/old)
		} else {
			fmt.Fprintf(os.Stderr, "  index size: %-43s %27.2f %s  (no baseline)\n",
				fmt.Sprintf("%s-%d", p.Name, p.Gomaxprocs), v, sizeUnit)
		}
	}
	// Startup-latency trajectory: benchmarks reporting open_ms (the
	// BenchmarkOpenIndex heap-vs-mmap pair) get their own delta line.
	for _, p := range fresh.Points {
		v, ok := p.Metrics[openUnit]
		if !ok {
			continue
		}
		if old, ok := baseOpen[key{p.Name, p.Gomaxprocs}]; ok && old != 0 {
			fmt.Fprintf(os.Stderr, "  open time:  %-43s %12.3f -> %12.3f %s  %+6.1f%%\n",
				fmt.Sprintf("%s-%d", p.Name, p.Gomaxprocs), old, v, openUnit, 100*(v-old)/old)
		} else {
			fmt.Fprintf(os.Stderr, "  open time:  %-43s %27.3f %s  (no baseline)\n",
				fmt.Sprintf("%s-%d", p.Name, p.Gomaxprocs), v, openUnit)
		}
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
