package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runOK runs one subcommand in process and returns its stdout.
func runOK(t *testing.T, stdin string, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, env{strings.NewReader(stdin), &stdout, &stderr}); code != 0 {
		t.Fatalf("repro %s: exit %d\n%s", strings.Join(args, " "), code, stderr.String())
	}
	return stdout.String()
}

// TestPaperOutputsGolden pins each experiment's stdout byte for byte to
// testdata/<name>.golden, recorded from the separate binaries these
// subcommands replaced, run with the same arguments. Table 2 is
// wall-clock and is left out; the Table 1 block after it fits operation
// counts, which repeat exactly.
func TestPaperOutputsGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		out  func(t *testing.T) string
	}{
		{"utilityfig", func(t *testing.T) string { return runOK(t, "", "utilityfig", "-recall") }},
		{"trecdiv", func(t *testing.T) string {
			return runOK(t, "", "trecdiv", "-topics", "4", "-sessions", "2000", "-rq", "300", "-k", "20")
		}},
		{"efficiency", func(t *testing.T) string {
			if raceEnabled {
				// One goroutine times xQuAD over a 40 000 × 1 000 cell four
				// times: minutes under the detector, and nothing to race.
				t.Skip("single-goroutine timing grid; run without -race")
			}
			out := runOK(t, "", "efficiency", "-fit")
			i := strings.Index(out, "== Table 1")
			if i < 0 {
				t.Fatalf("no Table 1 block in:\n%s", out)
			}
			return out[i:]
		}},
		{"diversify", func(t *testing.T) string { return runOK(t, "", "diversify", "topic01", "noise query 0001") }},
		{"mine", func(t *testing.T) string { return runOK(t, runOK(t, "", "loggen"), "mine") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			want, err := os.ReadFile(filepath.Join("testdata", tc.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if got := tc.out(t); got != string(want) {
				t.Errorf("stdout differs from testdata/%s.golden:\n--- got ---\n%s\n--- want ---\n%s", tc.name, got, want)
			}
		})
	}
}

// TestUsageErrors: an unknown subcommand, a bad flag, an unknown -alg or
// log preset exit 2; -h exits 0.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
	}{
		{nil, 2},
		{[]string{"table9"}, 2},
		{[]string{"mine", "-nosuchflag"}, 2},
		{[]string{"diversify", "-alg", "greedy", "topic01"}, 2},
		{[]string{"loggen", "-preset", "bing"}, 2},
		{[]string{"efficiency", "-h"}, 0},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, env{strings.NewReader(""), &stdout, &stderr}); code != tc.code {
			t.Errorf("repro %v: exit %d, want %d (stderr %q)", tc.args, code, tc.code, stderr.String())
		}
	}
}
