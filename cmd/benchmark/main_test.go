package main

import (
	"bytes"
	"os"
	"testing"
)

// TestOutputMatchesBaselines pins the virtual-clock output byte for byte,
// as CI's cmp steps do: the paper experiments against bench_baseline.json
// and the SLO harness against slo_baseline.json. Both runs are
// deterministic, so any drift at all is a change to the engine or the
// model; a change that moves a cell on purpose refreshes the baseline
// (go run ./cmd/benchmark -json > bench_baseline.json, and -slo -json >
// slo_baseline.json) in the same commit.
func TestOutputMatchesBaselines(t *testing.T) {
	for _, tc := range []struct{ experiment, baseline string }{
		{"all", "bench_baseline.json"},
		{"slo", "slo_baseline.json"},
	} {
		t.Run(tc.experiment, func(t *testing.T) {
			want, err := os.ReadFile("../../" + tc.baseline)
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := run(tc.experiment, true, &got); err != nil {
				t.Fatalf("run(%q): %v", tc.experiment, err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				g, w := firstDiff(got.Bytes(), want)
				t.Fatalf("run(%q, json) differs from %s:\n got %s\nwant %s\nrefresh the baseline only for a change that moves a cell on purpose",
					tc.experiment, tc.baseline, g, w)
			}
		})
	}
}

// firstDiff returns the first line at which got and want differ.
func firstDiff(got, want []byte) (string, string) {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := range g {
		if i >= len(w) || !bytes.Equal(g[i], w[i]) {
			if i >= len(w) {
				return string(g[i]), "(end of file)"
			}
			return string(g[i]), string(w[i])
		}
	}
	return "(end of output)", string(w[len(g)])
}
