// Command darray-graph runs the DArray graph analytics engine on a
// generated R-MAT graph or a SNAP-style edge-list file:
//
//	darray-graph -app pagerank -scale 14 -nodes 4 -threads 2
//	darray-graph -app cc -input graph.txt
//	darray-graph -app sssp -scale 12 -engine darray
//	darray-graph -app pagerank -engine gemini   # baseline engine
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"darray/cmd/internal/clusterflags"
	"darray/internal/cluster"
	"darray/internal/engine"
	"darray/internal/gemini"
	"darray/internal/graph"
)

func main() {
	var (
		app     = flag.String("app", "pagerank", "pagerank | cc | bfs | sssp")
		eng     = flag.String("engine", "darray", "darray | darray-pin | gemini")
		input   = flag.String("input", "", "edge-list file (default: generate R-MAT)")
		scale   = flag.Int("scale", 12, "R-MAT scale when generating")
		nodes   = flag.Int("nodes", 4, "simulated cluster nodes")
		threads = flag.Int("threads", 1, "application threads per node (darray engine)")
		iters   = flag.Int("iters", 10, "PageRank iterations")
		root    = flag.Int64("root", 0, "BFS/SSSP source vertex")
	)
	cf := clusterflags.Register(flag.CommandLine)
	flag.Parse()

	g := loadGraph(*input, *scale)
	fmt.Printf("graph: %d vertices, %d edges | engine=%s app=%s nodes=%d threads=%d\n",
		g.N, g.Edges(), *eng, *app, *nodes, *threads)

	if cf.Chaos {
		fmt.Printf("chaos: fault injection on, seed=%d\n", cf.ChaosSeed)
	}
	c := cluster.New(cf.Config(*nodes))
	defer c.Close()

	start := time.Now()
	summary := make(chan string, 1)
	c.Run(func(n *cluster.Node) {
		switch *eng {
		case "darray", "darray-pin":
			runDArray(c, n, g, *app, *eng == "darray-pin", *threads, *iters, *root, summary)
		case "gemini":
			runGemini(c, n, g, *app, *iters, summary)
		default:
			fmt.Fprintf(os.Stderr, "unknown engine %q\n", *eng)
			os.Exit(2)
		}
	})
	fmt.Printf("%s\nwall time: %v\n", <-summary, time.Since(start).Round(time.Millisecond))
	if cf.Metrics {
		fmt.Print(c.MetricsReport())
	}
	if err := cf.WriteTrace(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if cf.Chaos {
		fmt.Println(cf.ChaosSummary())
		if err := c.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "chaos: cluster degraded (seed=%d): %v\n", cf.ChaosSeed, err)
			os.Exit(1)
		}
	}
}

func loadGraph(path string, scale int) *graph.CSR {
	if path == "" {
		return graph.RMAT(graph.DefaultRMAT(scale))
	}
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer f.Close()
	g, err := graph.ReadEdgeList(f, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return g
}

func runDArray(c *cluster.Cluster, n *cluster.Node, g *graph.CSR, app string, pin bool, threads, iters int, root int64, summary chan<- string) {
	eg := engine.NewGraph(n, g)
	ctx := n.NewCtx(0)
	switch app {
	case "pagerank":
		var local []float64
		if threads > 1 {
			local = eg.PageRankMT(ctx, iters, threads, pin)
		} else {
			local = eg.PageRank(ctx, iters, pin)
		}
		mass := 0.0
		for _, r := range local {
			mass += r
		}
		total := c.AllReduceSum(ctx, mass)
		if n.ID() == 0 {
			summary <- fmt.Sprintf("pagerank: %d iterations, rank mass %.6f", iters, total)
		}
	case "cc":
		var labels []uint64
		var rounds int
		if threads > 1 {
			labels, rounds = eg.ConnectedComponentsMT(ctx, threads, pin)
		} else {
			labels, rounds = eg.ConnectedComponents(ctx, pin)
		}
		roots := 0.0
		lo, _ := eg.LocalRange()
		for i, l := range labels {
			if l == uint64(lo)+uint64(i) {
				roots++
			}
		}
		comps := c.AllReduceSum(ctx, roots)
		if n.ID() == 0 {
			summary <- fmt.Sprintf("cc: %d components in %d rounds", int(comps), rounds)
		}
	case "bfs":
		dist := eg.BFS(ctx, root)
		reach := 0.0
		for _, d := range dist {
			if d != ^uint64(0) {
				reach++
			}
		}
		total := c.AllReduceSum(ctx, reach)
		if n.ID() == 0 {
			summary <- fmt.Sprintf("bfs: %d vertices reachable from %d", int(total), root)
		}
	case "sssp":
		w := graph.RandomWeights(g, 1, 10, 42)
		dist := eg.SSSP(ctx, w, root)
		reach := 0.0
		for _, d := range dist {
			if d < 1e300 {
				reach++
			}
		}
		total := c.AllReduceSum(ctx, reach)
		if n.ID() == 0 {
			summary <- fmt.Sprintf("sssp: %d vertices reachable from %d (weights U[1,10))", int(total), root)
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown app %q\n", app)
		os.Exit(2)
	}
}

func runGemini(c *cluster.Cluster, n *cluster.Node, g *graph.CSR, app string, iters int, summary chan<- string) {
	e := gemini.New(n, g)
	ctx := n.NewCtx(0)
	switch app {
	case "pagerank":
		local := e.PageRank(ctx, iters)
		mass := 0.0
		for _, r := range local {
			mass += r
		}
		total := c.AllReduceSum(ctx, mass)
		if n.ID() == 0 {
			summary <- fmt.Sprintf("pagerank (gemini): %d iterations, rank mass %.6f", iters, total)
		}
	case "cc":
		labels, rounds := e.ConnectedComponents(ctx)
		lo, _ := e.LocalRange()
		roots := 0.0
		for i, l := range labels {
			if l == uint64(lo)+uint64(i) {
				roots++
			}
		}
		comps := c.AllReduceSum(ctx, roots)
		if n.ID() == 0 {
			summary <- fmt.Sprintf("cc (gemini): %d components in %d rounds", int(comps), rounds)
		}
	default:
		fmt.Fprintf(os.Stderr, "gemini engine supports pagerank and cc\n")
		os.Exit(2)
	}
}
