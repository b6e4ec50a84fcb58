// Command benchmark is the repository's benchmark: six workloads over
// the DArray reproduction, measured on two clocks (virtual ns = the
// modelled cluster, host ns/allocs = the real Go paths and the cost of
// simulating them), with every layer measured from outside the program.
// README.md in this directory is the manual; BENCHMARK.json at the
// repository root is the contract a driver runs it by.
//
//	bash benchmark/run.sh --workload kv_read --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh -all -seed 1 -runs 3 -out A.json
//	bash benchmark/run.sh -compare A.json B.json
//	bash benchmark/run.sh -spread 10 -seed 100
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload and print the driver's result line")
		seed         = flag.Int64("seed", 1, "seed every input is generated from")
		seconds      = flag.Float64("seconds", runSeconds, "how long one run measures (converted to a fixed rep count per workload)")
		traceRun     = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run and layer probes, per-layer metrics")
		all          = flag.Bool("all", false, "run every workload, untraced then traced, each in its own child process")
		runs         = flag.Int("runs", 1, "with -all: untraced runs per workload (a comparison wants at least 3)")
		spreadRuns   = flag.Int("spread", 0, "run every workload this many times, each on another seed, and print every end-to-end metric's run-to-run spread against its bound")
		out          = flag.String("out", "", "with -all or -spread: write the report as JSON to this file")
		compare      = flag.Bool("compare", false, "compare two -all reports: -compare A.json B.json")
		spec         = flag.Bool("spec", false, "print BENCHMARK.json")
		outdir       = flag.String("outdir", "out", "where traced runs and crashed children leave their files")
		scale        = flag.Float64("scale", 1, "shrink every workload (the tests use 0.01); results are only comparable at 1")
		inject       = flag.String("inject", "", "test hook: verify or panic")
	)
	flag.Parse()

	opts := func(w *workload, traced bool) childOpts {
		return childOpts{w: w, seed: *seed, seconds: *seconds, scale: *scale,
			traced: traced, inject: *inject, outdir: *outdir}
	}
	switch {
	case *spec:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(benchmarkSpec()); err != nil {
			fatal(err)
		}
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare wants two report files"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
	case *all:
		if !runAll(opts, *runs, *out) {
			os.Exit(1)
		}
	case *spreadRuns > 0:
		if !runSpread(opts, *spreadRuns, *out) {
			os.Exit(1)
		}
	case *workloadName != "":
		w := findWorkload(*workloadName)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *workloadName))
		}
		o := opts(w, *traceRun != 0)
		if os.Getenv(childEnv) != "" {
			childMain(o)
			return
		}
		res := supervise(o)
		if err := printDriverLine(res); err != nil {
			fatal(err)
		}
		if res.Reps == 0 {
			os.Exit(1) // nothing was measured: the line above carries no metrics, and stderr says why
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// printDriverLine prints the one JSON object a driver reads from the
// last line of stdout: every end-to-end metric for an untraced run,
// every per-layer metric for a traced one. A per-layer metric that does
// not apply to the workload reads -1.
func printDriverLine(res *runResult) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0 && res.Error == "", max(res.Attempted, 1), res.Failed, map[string]value{}}
	specs := endToEnd
	if res.Traced {
		specs = perLayer
	}
	for _, s := range specs {
		v, ok := res.Metrics[s.Name]
		if !ok || math.IsNaN(v) {
			v = -1
		}
		line.Metrics[s.Name] = value{v, s.Unit}
	}
	if res.Error != "" {
		fmt.Fprintln(os.Stderr, "benchmark:", res.Workload+":", res.Error)
	}
	return json.NewEncoder(os.Stdout).Encode(line)
}
