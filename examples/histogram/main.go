// Distributed histogram: every node scans a private shard of samples
// and builds one global histogram with the Operate interface. The
// write_add combiner turns what would be a contended scatter of remote
// atomic increments into local combining plus one merge per chunk —
// the paper's motivating pattern for the Operated coherence state.
package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"darray"
)

func main() {
	nodes := flag.Int("nodes", 4, "simulated cluster nodes")
	samples := flag.Int("samples", 200000, "samples per node")
	bins := flag.Int64("bins", 64, "histogram bins")
	flag.Parse()

	// Metrics turns on the node-wide combine counter printed below.
	c := darray.NewCluster(darray.Config{Nodes: *nodes, Metrics: true})
	defer c.Close()

	final := make([]uint64, *bins)
	c.Run(func(n *darray.Node) {
		hist := darray.New(n, *bins)
		add := hist.RegisterOp(darray.OpAddU64)
		ctx := n.NewCtx(0)
		c.Barrier(ctx)

		// Each node draws from a normal distribution (its private data
		// shard) and bins into the shared global histogram.
		rng := rand.New(rand.NewSource(int64(7 + n.ID())))
		for k := 0; k < *samples; k++ {
			x := rng.NormFloat64()*0.15 + 0.5 // mean .5, sd .15
			bin := int64(x * float64(*bins))
			if bin < 0 {
				bin = 0
			}
			if bin >= *bins {
				bin = *bins - 1
			}
			hist.Apply(ctx, add, bin, 1)
		}
		c.Barrier(ctx)

		if n.ID() == 0 {
			for b := int64(0); b < *bins; b++ {
				final[b] = hist.Get(ctx, b)
			}
			fmt.Printf("combines on node 0: %d (misses: %d)\n",
				hist.Metrics.Combines.Load(), ctx.Stats.Misses)
		}
		c.Barrier(ctx)
	})

	var total, peak uint64
	for _, v := range final {
		total += v
		if v > peak {
			peak = v
		}
	}
	fmt.Printf("global histogram: %d samples over %d bins\n", total, *bins)
	for b, v := range final {
		bar := strings.Repeat("#", int(math.Round(float64(v)/float64(peak)*50)))
		if b%4 == 0 { // print every 4th bin to keep the chart short
			fmt.Printf("bin %2d |%-50s| %d\n", b, bar, v)
		}
	}
	want := uint64(*nodes) * uint64(*samples)
	if total != want {
		fmt.Printf("ERROR: lost updates: %d != %d\n", total, want)
	} else {
		fmt.Printf("all %d increments accounted for — no lost updates\n", want)
	}
}
