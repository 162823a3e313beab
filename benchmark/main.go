// Command benchmark is the serving-path benchmark: it builds each
// workload's world from a seed, serves it through internal/server (and
// internal/router) on loopback, drives it over two keep-alive
// connections, checks every answer against an oracle, and prints every
// metric by name with its unit. README.md says why each workload and
// metric exists and how to read the output.
//
//	benchmark -workload head-hot -seed 1 -seconds 24 -trace 0   # one run, as BENCHMARK.json's command makes it
//	benchmark -seed 1 -json runs.jsonl -trace-dir traces        # all four workloads, both passes
//	benchmark -compare a.jsonl b.jsonl                          # two sets of runs against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
)

// header records what a set of numbers was measured on and with.
type header struct {
	Seed          int64              `json:"seed"`
	Commit        string             `json:"commit"`
	GoVersion     string             `json:"go_version"`
	NumCPU        int                `json:"nproc"`
	GOMAXPROCS    int                `json:"gomaxprocs"`
	Clients       int                `json:"clients"`
	ClosedSeconds float64            `json:"closed_seconds"`
	OpenSeconds   float64            `json:"open_seconds"`
	Setups        int                `json:"setups"`
	OpenRates     map[string]float64 `json:"open_rates"`
}

// run is one invocation over all workloads, one line of a -json file.
type run struct {
	Header    header              `json:"header"`
	Workloads map[string]*outcome `json:"workloads"`
}

// result is the last line of a single-workload run: BENCHMARK.json's
// contract with the driver.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "run only this workload and end with one JSON result line (default: all, as a table)")
	seed := flag.Int64("seed", 1, "corpus seed; the log uses seed+1 and the query stream seed+2")
	seconds := flag.Int("seconds", 24, "measuring time per workload: a third closed phase, two thirds open phase")
	trace := flag.Int("trace", -1, "1: traced pass and per-layer metrics; 0: end-to-end metrics only (default: 0 with -workload, else 1)")
	jsonPath := flag.String("json", "", "append this invocation's numbers to the file as one JSON line (without -workload)")
	traceDir := flag.String("trace-dir", "", "write each workload's spans to DIR/<workload>.jsonl")
	compare := flag.Bool("compare", false, "compare two -json files given as arguments and exit 1 if a metric regressed")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: benchmark -compare a.jsonl b.jsonl")
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 {
		fatal("-seconds must be at least 1")
	}

	s := settings{seed: *seed, setups: 3, traceDir: *traceDir}
	s.closed, s.open = phases(*seconds)
	s.trace = *trace == 1 || (*trace < 0 && *name == "")
	hd := header{
		Seed: *seed, Commit: commit(), GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Clients: clients,
		ClosedSeconds: s.closed.Seconds(), OpenSeconds: s.open.Seconds(), Setups: s.setups,
		OpenRates: map[string]float64{},
	}

	selected := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fatal(fmt.Sprintf("unknown workload %q", *name))
		}
		selected = []workload{w}
	}
	for _, w := range selected {
		hd.OpenRates[w.name] = w.openRate
	}
	printHeader(hd)
	r := run{Header: hd, Workloads: map[string]*outcome{}}
	failed := 0
	for _, w := range selected {
		out, err := runWorkload(w, s)
		if err != nil {
			fatal(err)
		}
		printOutcome(w.name, out)
		r.Workloads[w.name] = out
		failed += out.Failed
	}

	if *name != "" {
		// The driver's contract: one JSON object as the last line, and exit
		// code 0 even when an answer was wrong; "correct" says so.
		out := r.Workloads[*name]
		defs, values := endToEnd, out.EndToEnd
		if s.trace {
			defs, values = perLayer, out.PerLayer
		}
		res := result{Correct: failed == 0, Attempted: out.Attempted, Failed: failed, Metrics: map[string]metricValue{}}
		for _, d := range defs {
			res.Metrics[d.Name] = metricValue{values[d.Name], d.Unit}
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", line)
		return
	}
	if *jsonPath != "" {
		if err := appendJSONLine(*jsonPath, r); err != nil {
			fatal(err)
		}
	}
	if failed > 0 {
		fatal(fmt.Sprintf("%d requests failed or differed from the oracle", failed))
	}
}

func fatal(v any) {
	fmt.Fprintln(os.Stderr, "benchmark:", v)
	os.Exit(2)
}

// commit is the revision the binary was built from, when the build
// recorded one.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func printHeader(h header) {
	fmt.Printf("# seed %d  commit %s  %s  nproc %d  GOMAXPROCS %d  clients %d\n",
		h.Seed, h.Commit, h.GoVersion, h.NumCPU, h.GOMAXPROCS, h.Clients)
	fmt.Printf("# closed phase %gs  open phase %gs  set-ups %d  open rates (1/s):", h.ClosedSeconds, h.OpenSeconds, h.Setups)
	names := make([]string, 0, len(h.OpenRates))
	for name := range h.OpenRates {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf(" %s %g", name, h.OpenRates[name])
	}
	fmt.Println()
}

func printOutcome(workload string, out *outcome) {
	fmt.Printf("\n%s: attempted %d, failed %d; throughput over %d closed-phase requests, latency percentiles over %d open-phase requests\n",
		workload, out.Attempted, out.Failed, out.ClosedRequests, out.OpenRequests)
	for _, d := range endToEnd {
		fmt.Printf("  %-38s %14.4f %s\n", d.Name, out.EndToEnd[d.Name], d.Unit)
	}
	if out.PerLayer == nil {
		return
	}
	for _, d := range perLayer {
		fmt.Printf("  %-38s %14.4f %s\n", d.Name, out.PerLayer[d.Name], d.Unit)
	}
}

func appendJSONLine(path string, v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
