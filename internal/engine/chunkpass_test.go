package engine

import (
	"math"
	"sort"
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

// scatterCost is the virtual cost of combining along pl on one node: per
// destination block one acquisition (GetHit), per distinct destination
// of a block one pinned Apply (PinAccess + ApplyHit - GetHit), and per
// further operand for that destination one fold (PinAccess).
func scatterCost(m *vtime.Model, pl *pushList) int64 {
	distinct := int64(0)
	for k, v := range pl.dst {
		if k == 0 || v != pl.dst[k-1] {
			distinct++
		}
	}
	folded := int64(len(pl.dst)) - distinct
	return int64(len(pl.blocks)-1)*m.GetHit + distinct*(m.PinAccess+m.ApplyHit-m.GetHit) + folded*m.PinAccess
}

// TestChunkPassesAreExact pins the engine's virtual cost. On one node
// every access is a home hit and no message is sent, so PageRank and CC
// advance the clock by closed forms in the model's CPU fields: scatter
// pays per vertex read (GetHit) and scatterCost over the push list, and
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
		ctx := n.NewCtx(0)

		t0 := ctx.Clock.Now()
		eg.PageRank(ctx, iters, false)
		scatter := nonDangling*m.GetHit + scatterCost(m, eg.outList())
		want := 2*pass + iters*(scatter+3*pass) + pass
		if got := ctx.Clock.Now() - t0; got != want {
			t.Errorf("PageRank advanced the clock %d vns, want %d", got, want)
		}

		t0 = ctx.Clock.Now()
		_, ccIters := eg.ConnectedComponents(ctx, false)
		// Scatter reads every label and pushes along out- and in-edges;
		// gather reads curr and next and writes both back.
		scatter = g.N*m.GetHit + scatterCost(m, eg.undirectedList())
		want = 2*pass + int64(ccIters)*(scatter+4*pass) + pass
		if got := ctx.Clock.Now() - t0; got != want {
			t.Errorf("ConnectedComponents (%d iterations) advanced the clock %d vns, want %d", ccIters, got, want)
		}
	})
}

// TestPushListGroupsByChunk: the push list holds every local edge once,
// grouped into one block per non-empty destination chunk in chunk
// order; inside a block destinations ascend and each destination's
// edges keep the order of a per-vertex walk, so it receives its
// operands adjacent and in source order.
func TestPushListGroupsByChunk(t *testing.T) {
	const cw = 64
	g := testGraph()
	lo, hi := int64(37), g.N-101
	pl := newPushList(lo, hi, g.N, cw, nil, g, g.Reverse())
	var want [][2]int64 // (dst, src) in walk order, later sorted stably
	for u := lo; u < hi; u++ {
		for _, adj := range []*graph.CSR{g, g.Reverse()} {
			for _, v := range adj.Neighbors(u) {
				want = append(want, [2]int64{v, u})
			}
		}
	}
	sort.SliceStable(want, func(i, j int) bool { return want[i][0] < want[j][0] })
	if len(pl.dst) != len(want) {
		t.Fatalf("push list holds %d edges, want %d", len(pl.dst), len(want))
	}
	for k, e := range want {
		if pl.dst[k] != e[0] || lo+int64(pl.src[k]) != e[1] {
			t.Fatalf("edge %d is %d->%d, want %d->%d", k, lo+int64(pl.src[k]), pl.dst[k], e[1], e[0])
		}
	}
	for b := 0; b+1 < len(pl.blocks); b++ {
		s, e := pl.blocks[b], pl.blocks[b+1]
		if s >= e || pl.dst[s]/cw != pl.dst[e-1]/cw || (b > 0 && pl.dst[s-1]/cw >= pl.dst[s]/cw) {
			t.Fatalf("block %d [%d, %d) is not one whole destination chunk", b, s, e)
		}
	}
	if pl.blocks[0] != 0 || pl.blocks[len(pl.blocks)-1] != len(pl.dst) {
		t.Fatalf("blocks %v do not span the list", pl.blocks)
	}
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
