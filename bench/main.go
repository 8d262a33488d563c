// Command bench is the wall-clock benchmark of MIDAS: it boots a real
// in-process midas-serve backed by a store on a loopback socket, drives it
// over HTTP from the same process, checks every answer against ground
// truth planted by construction, and prints every metric of BENCHMARK.json
// by name. README.md explains the workloads, the statistics and the layers.
//
//	bench/run.sh -workload solo-deep -seed 1            end-to-end metrics
//	bench/run.sh -workload solo-deep -seed 1 -trace 1   per-layer metrics + span files
//	bench/run.sh                                        all four workloads
//	bench/run.sh -sets 2 -runs 10                       repeatability table
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/midas-hpc/midas/internal/obs"
)

// Default and hold-out seeds: develop against the first, confirm a claim
// on the second (BENCHMARK.json's schema has no field for them).
const (
	defaultSeed = 20180521
	holdOutSeed = 77003
)

func main() {
	workload := flag.String("workload", "", "workload to run (default: all four, one child process each)")
	seed := flag.Uint64("seed", defaultSeed, "derives graphs, labels, weights, planted structures and query seeds")
	seconds := flag.Float64("seconds", 24, "timed passes run for about this long")
	trace := flag.Int("trace", 0, "1: traced run — per-layer metrics, span and ladder files under -out")
	sets := flag.Int("sets", 1, "with N > 1: run N sets of -runs runs per workload and compare them against the bounds")
	runs := flag.Int("runs", 1, "runs per set (seeds seed, seed+1, …)")
	workdir := flag.String("workdir", ".bench_build/work", "scratch directory for store directories (removed on exit)")
	outdir := flag.String("out", "bench/out", "directory for trace.<workload>.json and layers.<workload>.json")
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected arguments %v", flag.Args()))
	}

	names := workloadNames
	if *workload != "" {
		names = []string{*workload}
	}
	began := time.Now()
	switch {
	case *sets > 1 || *runs > 1:
		if err := repeat(names, *seed, *seconds, *sets, *runs); err != nil {
			fatal(err)
		}
	case *workload == "":
		// One child per workload: peak_rss_mb is a per-process high-water mark.
		for _, name := range names {
			if _, err := child(name, *seed, *seconds, *trace, true); err != nil {
				fatal(err)
			}
		}
	default:
		header(*seed)
		res, err := runWorkload(*workload, runConfig{
			seed: *seed, seconds: *seconds, trace: *trace != 0,
			params: frozen, workdir: *workdir, outdir: *outdir,
		})
		if res.Metrics != nil {
			report(res)
		}
		if err != nil {
			fatal(err)
		}
		return
	}
	fmt.Printf("total wall time %.1f s\n", time.Since(began).Seconds())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// header prints what a reader needs to repeat the run.
func header(seed uint64) {
	b := obs.GetBuildInfo()
	fmt.Printf("midas bench: seed %d (default %d, hold-out %d)  %s  nproc %d  L2 %d KiB  L3 %d KiB  commit %s\n",
		seed, defaultSeed, holdOutSeed, runtime.Version(), runtime.NumCPU(), cacheKiB(2), cacheKiB(3), b.ShortRevision())
	p := frozen
	fmt.Printf("sizes: solo-deep n=%d k=%d | kinds-wide n=%d attach=%d path k=%d tree %d-vertex scan k=%d zmax=%d motif k=%d | burst-batch n=%d k=%v window=%v | dist-r2 n=%d k=%d\n",
		p.soloN, p.soloK, p.wideN, p.wideAttach, p.widePathK, len(p.wideTemplate)+1, p.wideScanK, p.wideZMax, p.wideMotifK,
		p.burstN, p.burstKs, p.burstWindow, p.distN, p.distK)
}

// report prints every metric by name with its unit, then the one-line
// JSON result the driver reads.
func report(res result) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("  %-34s %14.6g %s\n", name, m.Value, m.Unit)
	}
	fmt.Printf("  failed/attempted %d/%d\n", res.Failed, res.Attempted)
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// child runs one workload in a process of its own and returns its result.
func child(name string, seed uint64, seconds float64, trace int, echo bool) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	args := []string{"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace)}
	for _, pass := range []string{"workdir", "out"} {
		args = append(args, "-"+pass, flag.Lookup(pass).Value.String())
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if echo {
		os.Stdout.Write(out) //nolint:errcheck // best-effort echo of the child's report
	}
	if err != nil {
		return result{}, fmt.Errorf("workload %s: %w", name, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, fmt.Errorf("workload %s: last line is not a result: %w", name, err)
	}
	return res, nil
}
