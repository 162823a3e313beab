package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"testing"
	"time"
)

// tiny shrinks a workload's world and traced pass so that the whole
// suite runs in seconds; the topic count, and with it the query list,
// stays.
func tiny(w workload) workload {
	w.corpus.DocsPerSubtopic /= 5
	w.corpus.GenericDocsPerTopic /= 5
	w.corpus.NoiseDocs /= 20
	w.sessions /= 2
	w.candidates /= 5
	w.traced = 24
	return w
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			out, err := runWorkload(tiny(w), settings{
				seed: 7, closed: time.Second / 2, open: time.Second / 2, setups: 1, trace: true, traceDir: dir,
			})
			if err != nil {
				t.Fatal(err)
			}
			if out.Failed != 0 || out.Attempted == 0 {
				t.Errorf("attempted %d, failed %d; want some and none", out.Attempted, out.Failed)
			}
			check := func(defs []metricDef, got map[string]float64) {
				if len(got) != len(defs) {
					t.Errorf("%d metrics emitted, %d defined", len(got), len(defs))
				}
				for _, d := range defs {
					v, ok := got[d.Name]
					if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("%s: emitted %v (present %v), want a finite number", d.Name, v, ok)
					}
					if !metricName.MatchString(d.Name) {
						t.Errorf("%s: not a metric name", d.Name)
					}
				}
			}
			check(endToEnd, out.EndToEnd)
			check(perLayer, out.PerLayer)
			for _, d := range endToEnd {
				if out.EndToEnd[d.Name] <= 0 {
					t.Errorf("%s = %v, want above 0", d.Name, out.EndToEnd[d.Name])
				}
			}
			if c := out.PerLayer["trace.coverage"]; c < 0.8 || c > 1.2 {
				t.Errorf("trace.coverage = %.3f, want within [0.8, 1.2]", c)
			}
			if wire := out.PerLayer["router.wire_overhead_us"]; (wire > 0) != w.routed {
				t.Errorf("router.wire_overhead_us = %v on a workload with routed = %v", wire, w.routed)
			}
			checkSpans(t, filepath.Join(dir, w.name+".jsonl"), tiny(w).traced)
		})
	}
}

// checkSpans reads a trace file back: every span's parent must be an
// earlier span of the same request, and every request has one root.
func checkSpans(t *testing.T, path string, requests int) {
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	byID := map[int]span{}
	roots := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		if s.EndNs < s.StartNs {
			t.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			roots++
		} else if p, ok := byID[s.Parent]; !ok || p.Request != s.Request {
			t.Errorf("span %d (%s): parent %d is not an earlier span of request %d", s.ID, s.Name, s.Parent, s.Request)
		}
		byID[s.ID] = s
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if roots != requests {
		t.Errorf("%d root spans, want one per traced request (%d)", roots, requests)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	w := tiny(workloads[0])
	var want [2][][]string
	for i := range want {
		wd, _, err := setUp(w, 11)
		if err != nil {
			t.Fatal(err)
		}
		wd.setOracle()
		want[i] = wd.want
		wd.close()
	}
	if !reflect.DeepEqual(want[0], want[1]) {
		t.Error("two set-ups from one seed disagree on the oracle")
	}
	for _, w := range workloads {
		if !slices.Equal(w.stream(11, 240, 1000), w.stream(11, 240, 1000)) {
			t.Errorf("%s: one seed gave two query streams", w.name)
		}
	}
	if slices.Equal(workloads[0].stream(11, 240, 1000), workloads[0].stream(12, 240, 1000)) {
		t.Error("two seeds gave one query stream")
	}
}

// TestBenchmarkJSONAgrees keeps BENCHMARK.json, which the driver reads,
// and the tables in this package, which the program reads, the same.
func TestBenchmarkJSONAgrees(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\nfile %v\ncode %v", file.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(file.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\nfile %v\ncode %v", file.PerLayer, perLayer)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the file, %d in the code", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.name || file.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file has %q (%q), code has %q (%q)", i, file.Workloads[i].Name, file.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, at most 200 allowed", w.name, len(w.why))
		}
	}
	if !slices.Equal(file.Paths, []string{"benchmark"}) || file.RunSeconds < 1 || file.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", file.Paths, file.RunSeconds)
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11], n=4) == [1.5, 4.0, 9.0]
	if got, want := spread([]float64{11, 1, 7, 2, 4}), (9.0-1.5)/4.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}
