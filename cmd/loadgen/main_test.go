package main

import "testing"

// TestCheckLoad: a run without a connection would never finish (nothing
// drains the queue) and a negative query count used to panic sizing the
// workload; both are usage errors, found before any request is sent.
func TestCheckLoad(t *testing.T) {
	for _, tc := range []struct {
		n, c int
		ok   bool
	}{
		{2000, 8, true},
		{1, 1, true},
		{2000, 0, false},
		{2000, -3, false},
		{-1, 8, false},
		{0, 8, false},
	} {
		if err := checkLoad(tc.n, tc.c); (err == nil) != tc.ok {
			t.Errorf("checkLoad(n=%d, c=%d) = %v, want ok=%v", tc.n, tc.c, err, tc.ok)
		}
	}
}
