package engine

import (
	"math"
	"sync"
	"testing"

	"darray/internal/cluster"
	"darray/internal/graph"
	"darray/internal/vtime"
)

// passCost is the virtual cost of one chunk-at-a-time pass over [0, n):
// per chunk piece, one acquisition hit (GetHit) and the copy of its words.
func passCost(m *vtime.Model, n, cw int64) int64 {
	var vt int64
	for lo := int64(0); lo < n; lo += cw {
		vt += m.GetHit + m.CopyCost(int(8*min(cw, n-lo)))
	}
	return vt
}

// TestChunkPassesAreExact pins the local passes' virtual cost. On one
// node every access is a home hit and no message is sent, so PageRank
// and CC advance the clock by closed forms in the model's CPU fields:
// scatter pays per edge (ApplyHit) and per vertex read (GetHit), and
// init, gather and read-back pay per chunk. The chunk size leaves the
// last chunk partial.
func TestChunkPassesAreExact(t *testing.T) {
	const (
		cw    = 96
		iters = 4
	)
	g := testGraph()
	m := vtime.Default()
	c := cluster.New(cluster.Config{Nodes: 1, ChunkWords: cw, CacheChunks: 64, Model: m})
	t.Cleanup(c.Close)
	nonDangling := int64(0)
	for u := int64(0); u < g.N; u++ {
		if g.OutDegree(u) > 0 {
			nonDangling++
		}
	}
	pass := passCost(m, g.N, cw)
	c.Run(func(n *cluster.Node) {
		eg := NewGraph(n, g)
		eg.reverse()
		ctx := n.NewCtx(0)

		t0 := ctx.Clock.Now()
		eg.PageRank(ctx, iters, false)
		want := 2*pass + iters*(g.Edges()*m.ApplyHit+nonDangling*m.GetHit+3*pass) + pass
		if got := ctx.Clock.Now() - t0; got != want {
			t.Errorf("PageRank advanced the clock %d vns, want %d", got, want)
		}

		t0 = ctx.Clock.Now()
		_, ccIters := eg.ConnectedComponents(ctx, false)
		// Scatter reads every label and pushes along out- and in-edges;
		// gather reads curr and next and writes both back.
		perIter := g.N*m.GetHit + 2*g.Edges()*m.ApplyHit + 4*pass
		want = 2*pass + int64(ccIters)*perIter + pass
		if got := ctx.Clock.Now() - t0; got != want {
			t.Errorf("ConnectedComponents (%d iterations) advanced the clock %d vns, want %d", ccIters, got, want)
		}
	})
}

// TestPageRankAutoShipNeverFlips: bulk-synchronous combining is the
// cached path's best case. Every collapse of a next chunk recalls
// dozens of operands per node, so the shipping estimator must not read
// the barrier's collapse churn as a hot chunk: 6-node rmat12 PageRank
// under ship=auto flips no chunk, in any of three runs, and the ranks
// stay exact.
func TestPageRankAutoShipNeverFlips(t *testing.T) {
	const (
		nodes = 6
		iters = 5
	)
	g := graph.RMAT(graph.DefaultRMAT(12))
	want := refPageRank(g, iters)
	for run := 0; run < 3; run++ {
		c := cluster.New(cluster.Config{Nodes: nodes, CacheChunks: 192,
			Model: vtime.Default(), Ship: "auto"})
		locals := make([][]float64, nodes)
		var bounds []int64
		var mu sync.Mutex
		var flips int64
		c.Run(func(n *cluster.Node) {
			eg := NewGraph(n, g)
			if n.ID() == 0 {
				bounds = eg.Bounds()
			}
			locals[n.ID()] = eg.PageRank(n.NewCtx(0), iters, false)
			mu.Lock()
			for _, a := range eg.StateArrays() {
				flips += a.Metrics.ShipFlips.Load()
			}
			mu.Unlock()
		})
		c.Close()
		if flips != 0 {
			t.Errorf("run %d: %d estimator flips to shipped on PageRank's combining", run, flips)
		}
		got := gatherF64(c, bounds, locals)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("run %d: rank[%d] = %g, want %g", run, i, got[i], want[i])
			}
		}
	}
}
