package bench

import (
	"fmt"
	"sync"

	"darray/internal/cluster"
	"darray/internal/gamkvs"
	"darray/internal/kvs"
	"darray/internal/stats"
	"darray/internal/ycsb"
)

// Fig17 reproduces Figure 17: YCSB throughput (Kops/s) of the
// DArray-based KVS vs the GAM-based KVS on six nodes, sweeping threads
// per node and the get ratio (zipfian 0.99).
func Fig17(p Params) []stats.Table {
	ratios := []float64{1.0, 0.95, 0.5}
	nodes := min(6, p.MaxNodes)
	var out []stats.Table
	for _, ratio := range ratios {
		tbl := stats.Table{
			Title: fmt.Sprintf("Figure 17 (get ratio %.0f%%): KVS throughput (Kops/s) vs threads, %d nodes",
				ratio*100, nodes),
			XLabel: "threads",
			YFmt:   "%.1f",
		}
		for _, t := range p.Threads {
			tbl.Xs = append(tbl.Xs, itoa(t))
		}
		for _, sys := range []string{"darray-kvs", "gam-kvs"} {
			var ys []float64
			for _, t := range p.Threads {
				ys = append(ys, runKVS(p, sys, nodes, t, ratio)/1e3)
			}
			tbl.Series = append(tbl.Series, stats.Series{Label: sys, Ys: ys})
		}
		out = append(out, tbl)
	}
	return out
}

// runKVS returns total ops/s for one (system, threads, ratio) config.
func runKVS(p Params, system string, nodes, threads int, getRatio float64) float64 {
	c := p.cluster(nodes)
	defer c.Close()
	cfg := kvs.Config{
		Buckets:   p.KVRecords / 8,
		ByteWords: int64(nodes) * p.KVRecords * 64,
	}
	var mu sync.Mutex
	var totalOps int64
	var maxEnd, minStart int64
	minStart = 1 << 62

	c.Run(func(n *cluster.Node) {
		var store *kvs.Store
		switch system {
		case "darray-kvs":
			store = kvs.NewDArray(n, cfg)
		case "gam-kvs":
			store = gamkvs.New(n, cfg)
		}
		root := n.NewCtx(0)
		gen := ycsb.NewGenerator(ycsb.Config{Records: p.KVRecords, Seed: 9})
		// Preload: each node loads its 1/n slice of the key space.
		per := p.KVRecords / int64(c.Nodes())
		lo := int64(n.ID()) * per
		hi := lo + per
		if n.ID() == c.Nodes()-1 {
			hi = p.KVRecords
		}
		for r := lo; r < hi; r++ {
			if err := store.Put(root, ycsb.Key(r), gen.LoadValue(r)); err != nil {
				panic(err)
			}
		}
		c.Barrier(root)
		n.RunThreads(threads, func(ctx *cluster.Ctx) {
			g := ycsb.NewGenerator(ycsb.Config{
				Records:  p.KVRecords,
				GetRatio: getRatio,
				Seed:     int64(n.ID()*1000 + ctx.TID),
			})
			// A worker's clock starts where the preload ended. Left at zero,
			// its first touch of each bucket jumps it to that bucket's last
			// preload unlock, and at small op counts the figure measures the
			// preload's duration rather than the ops.
			ctx.Clock.AdvanceTo(root.Clock.Now())
			start := ctx.Clock.Now()
			for k := 0; k < p.KVOps; k++ {
				op := g.Next()
				switch op.Kind {
				case ycsb.OpGet:
					if _, err := store.Get(ctx, op.Key); err != nil {
						panic(fmt.Sprintf("kvs bench: get %s: %v", op.Key, err))
					}
				case ycsb.OpPut:
					if err := store.Put(ctx, op.Key, op.Val); err != nil {
						panic(err)
					}
				}
			}
			end := ctx.Clock.Now()
			mu.Lock()
			totalOps += int64(p.KVOps)
			if end > maxEnd {
				maxEnd = end
			}
			if start < minStart {
				minStart = start
			}
			mu.Unlock()
		})
		c.Barrier(root)
	})
	return stats.Throughput(totalOps, maxEnd-minStart)
}

var _ = cluster.Config{}
