package main

// The repeatability harness behind -sets: run the same code several times
// and hold the end-to-end metrics to their own bounds, the way a later
// change will be held to them.

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json the harness and the smoke
// test read.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	PerLayer  []struct{ Name string } `json:"per_layer"`
	EndToEnd  []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles are the first and third quartile as Python's
// statistics.quantiles(xs, n=4) gives them (the driver's definition).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// repeat runs sets × runs runs of every named workload, interleaving the
// sets, and prints per workload × end-to-end metric each set's median and
// spread (interquartile range ÷ median), the worst shift of a later set's
// median against the first, and the bound. It fails if a shift or, with
// enough runs to have quartiles, a spread exceeds its bound.
func repeat(names []string, seed uint64, seconds float64, sets, runs int) error {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	header(seed)
	// values[workload][metric][set] = one value per run
	values := map[string]map[string][][]float64{}
	failed := 0
	for _, name := range names {
		values[name] = map[string][][]float64{}
		for _, m := range bf.EndToEnd {
			values[name][m.Name] = make([][]float64, sets)
		}
		for run := 0; run < runs; run++ {
			for set := 0; set < sets; set++ {
				res, err := child(name, seed+uint64(run), seconds, 0, false)
				if err != nil {
					return err
				}
				failed += res.Failed
				for _, m := range bf.EndToEnd {
					got, ok := res.Metrics[m.Name]
					if !ok {
						return fmt.Errorf("workload %s did not report %s", name, m.Name)
					}
					values[name][m.Name][set] = append(values[name][m.Name][set], got.Value)
				}
				fmt.Printf("%s seed %d set %d: failed %d/%d ", name, seed+uint64(run), set+1, res.Failed, res.Attempted)
				for _, m := range bf.EndToEnd {
					fmt.Printf(" %s %.5g", m.Name, res.Metrics[m.Name].Value)
				}
				fmt.Println()
			}
		}
	}
	fmt.Printf("\n%-12s %-18s", "workload", "metric")
	for set := 1; set <= sets; set++ {
		fmt.Printf(" %12s %7s", fmt.Sprintf("median%d", set), "spread")
	}
	fmt.Printf(" %8s %6s\n", "shift", "bound")
	bad := 0
	for _, name := range names {
		for _, m := range bf.EndToEnd {
			fmt.Printf("%-12s %-18s", name, m.Name)
			var first, worstShift float64
			over := false
			for set, xs := range values[name][m.Name] {
				med := quantile(xs, 0.5)
				spread := 0.0
				if len(xs) >= 4 {
					q1, q3 := quartiles(xs)
					spread = (q3 - q1) / med
				}
				fmt.Printf(" %12.5g %6.1f%%", med, 100*spread)
				// The spread of setup_s is reported but not held to the bound.
				if spread > m.Bound && m.Name != "setup_s" {
					over = true
				}
				if set == 0 {
					first = med
					continue
				}
				shift := (med - first) / first // positive = worse
				if m.Better == "higher" {
					shift = -shift
				}
				worstShift = max(worstShift, shift)
			}
			if worstShift > m.Bound {
				over = true
			}
			mark := ""
			if over {
				mark = "  EXCEEDS"
				bad++
			}
			fmt.Printf(" %7.1f%% %5.0f%%%s\n", 100*worstShift, 100*m.Bound, mark)
		}
	}
	switch {
	case failed > 0:
		return fmt.Errorf("%d failed operations", failed)
	case bad > 0:
		return fmt.Errorf("%d workload × metric pairs exceed their bound", bad)
	}
	return nil
}
