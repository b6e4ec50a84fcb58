// Command darray-bench regenerates the paper's evaluation tables and
// figures (§6). Each figure runs the real systems over the simulated
// RDMA fabric and reports virtual-time results from the calibrated cost
// model (see DESIGN.md for the methodology).
//
// Usage:
//
//	darray-bench -list
//	darray-bench -fig fig13
//	darray-bench -all
//	darray-bench -fig fig16 -graph-scale 16 -max-nodes 8
//	darray-bench -fig fig1 -metrics
//	darray-bench -all -metrics -metrics-addr :8080   # live /debug/metrics + pprof
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"darray/cmd/internal/clusterflags"
	"darray/internal/bench"
	"darray/internal/telemetry"
)

func main() {
	var (
		fig        = flag.String("fig", "", "experiment id to run (fig1, fig12..fig18, ablation)")
		all        = flag.Bool("all", false, "run every experiment")
		list       = flag.Bool("list", false, "list experiments")
		maxNodes   = flag.Int("max-nodes", 6, "largest simulated node count")
		words      = flag.Int64("words-per-node", 1<<16, "array words per node (weak scaling unit)")
		graphScale = flag.Int("graph-scale", 13, "R-MAT scale for fig16 (paper: 24)")
		prIters    = flag.Int("pr-iters", 5, "PageRank iterations")
		kvRecords  = flag.Int64("kv-records", 4096, "KVS record count")
		kvOps      = flag.Int("kv-ops", 2000, "KVS ops per thread")
		zipfOps    = flag.Int("zipf-ops", 20000, "fig14 ops per node")
		randomOps  = flag.Int("random-ops", 20000, "fig18 ops per node")
		threads    = flag.String("threads", "1,2,4,8", "thread sweep for fig12/fig17")
		metricsFmt = flag.String("metrics-format", "text", "final report format: text or json")
		metricAddr = flag.String("metrics-addr", "", "serve live metrics (expvar, /debug/metrics, pprof) on this address; implies -metrics")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file (inspect with go tool pprof)")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	cf := clusterflags.Register(flag.CommandLine)
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	fmt.Println("calibrating cost model on this host...")
	model := bench.DefaultModel()
	p := bench.DefaultParams(model)
	p.MaxNodes = *maxNodes
	p.WordsPerNode = *words
	p.GraphScale = *graphScale
	p.PRIters = *prIters
	p.KVRecords = *kvRecords
	p.KVOps = *kvOps
	p.ZipfOps = *zipfOps
	p.RandomOps = *randomOps
	p.Threads = parseInts(*threads)
	p.TxBurst = cf.TxBurst
	p.PipelineDepth = cf.Pipeline
	p.PrefetchAhead = cf.Prefetch
	p.NoCC = cf.NoCC
	p.Ship = cf.Ship
	p.Tracer = cf.Tracer()
	if cf.Metrics || *metricAddr != "" {
		reg := telemetry.New()
		reg.Enable()
		p.Telemetry = reg
		if *metricAddr != "" {
			// expvar under /debug/vars, the registry under /debug/metrics,
			// and net/http/pprof's handlers — all on the default mux.
			reg.Publish("darray")
			http.Handle("/debug/metrics", reg.Handler())
			go func() {
				if err := http.ListenAndServe(*metricAddr, nil); err != nil {
					fmt.Fprintf(os.Stderr, "metrics server: %v\n", err)
				}
			}()
			fmt.Printf("serving metrics on %s (/debug/metrics, /debug/vars, /debug/pprof)\n", *metricAddr)
		}
	}
	if cf.Chaos {
		p.Faults = cf.Plan
		fmt.Printf("chaos: fault injection on, seed=%d (replay with -chaos-seed %d)\n", cf.ChaosSeed, cf.ChaosSeed)
	}
	bench.PrintModel(os.Stdout, p)
	fmt.Println()

	run := func(e bench.Experiment) {
		start := time.Now()
		bench.RunAndPrint(os.Stdout, e, p)
		fmt.Printf("(%s completed in %v wall time)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}

	switch {
	case *all:
		for _, e := range bench.Experiments() {
			run(e)
		}
	case *fig != "":
		e, ok := bench.Find(*fig)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *fig)
			os.Exit(1)
		}
		run(e)
	default:
		flag.Usage()
		os.Exit(2)
	}

	if err := cf.WriteTrace(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if p.Telemetry != nil {
		snap := p.Telemetry.Snapshot().NonZero()
		if *metricsFmt == "json" {
			fmt.Println(snap.JSON())
		} else {
			fmt.Printf("# cumulative metrics (all experiments)\n%s", snap.Report())
		}
	}
	if cf.Chaos {
		fmt.Println(cf.ChaosSummary())
	}
}

func parseInts(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			fmt.Fprintf(os.Stderr, "bad thread list %q\n", s)
			os.Exit(2)
		}
		out = append(out, n)
	}
	return out
}
