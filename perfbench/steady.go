package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the steadiness report
// and the tests read.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// lastJSONLine returns the run result on the last line of out.
func lastJSONLine(out []byte) (*result, error) {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return nil, fmt.Errorf("last output line is not a result: %w", err)
	}
	return &r, nil
}

// steadyReport runs each workload of BENCHMARK.json k times at its
// run_seconds in child processes of this binary, seeds seed0 …
// seed0+k−1, and prints for every end-to-end metric the median, the
// quartiles and the spread (q3−q1)/median, flagging spreads above the
// metric's bound. It fails when a run fails, is incorrect, or a spread
// is over its bound.
func steadyReport(k int, seed0 uint64) error {
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	seconds := float64(bf.RunSeconds)
	names := make([]string, 0, len(bf.Workloads))
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	id := identify(runConfig{seed: seed0, seconds: seconds})
	idLine, _ := json.Marshal(id)
	fmt.Printf("# steady k=%d %s\n", k, idLine)
	flagged := 0
	for _, name := range names {
		values := map[string][]float64{}
		for i := 0; i < k; i++ {
			seed := seed0 + uint64(i)
			cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatUint(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "-trace", "0")
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %v\n%s", name, seed, err, stderr.String())
			}
			r, err := lastJSONLine(out)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			if !r.Correct {
				return fmt.Errorf("%s seed %d: incorrect run (%d of %d ops failed)\n%s", name, seed, r.Failed, r.Attempted, stderr.String())
			}
			for m, v := range r.Metrics {
				values[m] = append(values[m], v.Value)
			}
			fmt.Fprintf(os.Stderr, "%s seed %d: op_p50_ms %.4g ops_per_s %.4g setup_s %.4g\n", name, seed,
				r.Metrics["op_p50_ms"].Value, r.Metrics["ops_per_s"].Value, r.Metrics["setup_s"].Value)
		}
		w := bufio.NewWriter(os.Stdout)
		fmt.Fprintf(w, "\n%s (%d runs, %gs each)\n", name, k, seconds)
		fmt.Fprintf(w, "  %-18s %14s %14s %14s %8s %6s\n", "metric", "q1", "median", "q3", "spread", "bound")
		for _, m := range bf.EndToEnd {
			q1, q2, q3, err := quartiles(values[m.Name])
			if err != nil {
				return fmt.Errorf("%s %s: %w", name, m.Name, err)
			}
			sp, err := spread(values[m.Name])
			if err != nil {
				return fmt.Errorf("%s %s: %w", name, m.Name, err)
			}
			mark := ""
			if sp > m.Bound {
				mark = "  FLAG: over bound"
				flagged++
			} else if sp > m.Bound/3 {
				mark = "  (over a third of bound)"
			}
			fmt.Fprintf(w, "  %-18s %14.6g %14.6g %14.6g %8.4f %6.3f%s\n", m.Name, q1, q2, q3, sp, m.Bound, mark)
		}
		w.Flush()
	}
	if flagged > 0 {
		return fmt.Errorf("%d metric spreads over their bounds", flagged)
	}
	return nil
}
