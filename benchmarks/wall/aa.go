package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the A/A check and the
// tests read.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// aaRow is one workload x metric line of the A/A table.
type aaRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	MedianA  float64 `json:"median_a"`
	MedianB  float64 `json:"median_b"`
	Diff     float64 `json:"diff"`   // |A-B|/A
	Spread   float64 `json:"spread"` // (Q3-Q1)/median over all runs of both sets
	Bound    float64 `json:"bound"`
	Runs     int     `json:"runs"`
}

// runAA runs every workload 2k times as separate processes, the way the
// pipeline does, labels the runs A, B, A, B, … and compares the two sets.
// Both sets are the same code, so any difference is the benchmark's own
// noise: it must stay inside the bound a later change is judged by. That
// goes for the medians of the two sets and, as the pipeline judges it, for
// the quartile spread of all the runs (set-up time excepted: it is an
// absolute time, and the pipeline compares only its medians). The table
// goes to standard output, the same rows with a machine fingerprint to
// aa.json in work.
func runAA(root, work string, k int, seed int64, seconds int) int {
	bf, err := readBenchmarkFile(root)
	if err != nil {
		logf("wall: %v", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		logf("wall: %v", err)
		return 2
	}
	values := map[string]map[string][2][]float64{} // workload -> metric -> set -> values
	for r := 0; r < 2*k; r++ {
		for _, w := range bf.Workloads {
			cmd := exec.Command(self, "--workload", w.Name, "--seed", fmt.Sprint(seed+int64(r)), "--seconds", fmt.Sprint(seconds), "--trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				logf("wall: run %d of %s failed: %v", r, w.Name, err)
				return 1
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var rep report
			if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
				logf("wall: run %d of %s: result line: %v", r, w.Name, err)
				return 1
			}
			if values[w.Name] == nil {
				values[w.Name] = map[string][2][]float64{}
			}
			for name, m := range rep.Metrics {
				sets := values[w.Name][name]
				sets[r%2] = append(sets[r%2], m.Value)
				values[w.Name][name] = sets
			}
			logf("wall: A/A run %d/%d (%c) %s done", r+1, 2*k, 'A'+rune(r%2), w.Name)
		}
	}

	var rows []aaRow
	failed := false
	fmt.Printf("| workload | metric | median A | median B | \\|A-B\\|/A | IQR/median (%d runs) | bound |\n|---|---|---|---|---|---|---|\n", 2*k)
	for _, w := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			sets := values[w.Name][m.Name]
			row := aaRow{Workload: w.Name, Metric: m.Name, Unit: m.Unit, Bound: m.Bound, Runs: 2 * k,
				MedianA: median(sets[0]), MedianB: median(sets[1])}
			row.Diff = math.Abs(row.MedianA-row.MedianB) / row.MedianA
			row.Spread = quartileSpread(append(append([]float64(nil), sets[0]...), sets[1]...))
			diffMark, spreadMark := "", ""
			if !(row.Diff <= m.Bound) {
				failed, diffMark = true, " **exceeds**"
			}
			if m.Name != "setup_s" && !(row.Spread <= m.Bound) {
				failed, spreadMark = true, " **exceeds**"
			}
			fmt.Printf("| %s | %s (%s) | %.4f | %.4f | %.4f%s | %.4f%s | %.2f |\n", w.Name, m.Name, m.Unit, row.MedianA, row.MedianB, row.Diff, diffMark, row.Spread, spreadMark, m.Bound)
			rows = append(rows, row)
		}
	}
	if err := writeRecord(root, filepath.Join(work, "aa.json"), k, seed, seconds, rows); err != nil {
		logf("wall: %v", err)
		return 1
	}
	if failed {
		return 1
	}
	return 0
}

// fingerprint says which code on which machine produced a result file.
type fingerprint struct {
	Commit     string `json:"commit"`
	Date       string `json:"date"`
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func machineFingerprint(root string) fingerprint {
	fp := fingerprint{
		Commit:     "unknown",
		Date:       time.Now().UTC().Format(time.RFC3339),
		CPUModel:   "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		fp.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				fp.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return fp
}

func writeRecord(root, path string, k int, seed int64, seconds int, rows []aaRow) error {
	rec := struct {
		Fingerprint fingerprint `json:"fingerprint"`
		Note        string      `json:"note"`
		AAPairs     int         `json:"aa_pairs"`
		FirstSeed   int64       `json:"first_seed"`
		RunSeconds  int         `json:"run_seconds"`
		Rows        []aaRow     `json:"rows"`
	}{
		Fingerprint: machineFingerprint(root),
		Note:        "commit is git HEAD when the runs were made (uncommitted files, such as the benchmark in the change that adds it, are not reflected); A and B are the same code; medians over aa_pairs runs each",
		AAPairs:     k, FirstSeed: seed, RunSeconds: seconds, Rows: rows,
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
