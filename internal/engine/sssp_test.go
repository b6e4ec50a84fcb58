package engine

import (
	"container/heap"
	"math"
	"testing"

	"darray/internal/cluster"
	"darray/internal/graph"
)

// refDijkstra is the sequential reference.
func refDijkstra(g *graph.WCSR, root int64) []float64 {
	dist := make([]float64, g.N)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[root] = 0
	pq := &distHeap{{root, 0}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(distItem)
		if it.d > dist[it.v] {
			continue
		}
		ws := g.EdgeWeights(it.v)
		for k, u := range g.Neighbors(it.v) {
			if nd := it.d + ws[k]; nd < dist[u] {
				dist[u] = nd
				heap.Push(pq, distItem{u, nd})
			}
		}
	}
	return dist
}

type distItem struct {
	v int64
	d float64
}
type distHeap []distItem

func (h distHeap) Len() int           { return len(h) }
func (h distHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x any)        { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() (x any)      { old := *h; n := len(old); x = old[n-1]; *h = old[:n-1]; return }

func TestSSSPMatchesDijkstra(t *testing.T) {
	base := graph.RMAT(graph.RMATConfig{Scale: 8, EdgeFactor: 6, A: 0.57, B: 0.19, C: 0.19, Seed: 11})
	w := graph.RandomWeights(base, 1, 10, 5)
	want := refDijkstra(w, 0)
	c := tc(t, 3)
	locals := make([][]float64, 3)
	var bounds []int64
	c.Run(func(n *cluster.Node) {
		eg := NewGraph(n, base)
		if n.ID() == 0 {
			bounds = eg.Bounds()
		}
		locals[n.ID()] = eg.SSSP(n.NewCtx(0), w, 0)
	})
	got := make([]float64, base.N)
	for p, l := range locals {
		copy(got[bounds[p]:], l)
	}
	for i := range want {
		if math.IsInf(want[i], 1) != math.IsInf(got[i], 1) {
			t.Fatalf("reachability mismatch at %d: %v vs %v", i, got[i], want[i])
		}
		if !math.IsInf(want[i], 1) && math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("dist[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestSSSPOffNodeZeroMatchesDijkstra roots SSSP on a vertex homed on
// node 1 of 3, so the first round pushes from outside node 0.
func TestSSSPOffNodeZeroMatchesDijkstra(t *testing.T) {
	base := graph.RMAT(graph.RMATConfig{Scale: 8, EdgeFactor: 6, A: 0.57, B: 0.19, C: 0.19, Seed: 11})
	w := graph.RandomWeights(base, 1, 10, 5)
	c := tc(t, 3)
	locals := make([][]float64, 3)
	var bounds []int64
	var root int64
	c.Run(func(n *cluster.Node) {
		eg := NewGraph(n, base)
		r := rootOn(base, eg.Bounds(), 1)
		if n.ID() == 0 {
			bounds, root = eg.Bounds(), r
		}
		locals[n.ID()] = eg.SSSP(n.NewCtx(0), w, r)
	})
	want := refDijkstra(w, root)
	unreached := 0
	for _, d := range want {
		if math.IsInf(d, 1) {
			unreached++
		}
	}
	if unreached == 0 || unreached >= len(want)-1 {
		t.Fatalf("root %d leaves %d of %d vertices unreached: the test needs some of each", root, unreached, len(want))
	}
	got := gatherF64(c, bounds, locals)
	for i := range want {
		if math.IsInf(want[i], 1) != math.IsInf(got[i], 1) {
			t.Fatalf("root %d: reachability mismatch at %d: %v vs %v", root, i, got[i], want[i])
		}
		if !math.IsInf(want[i], 1) && math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("root %d: dist[%d] = %v, want %v", root, i, got[i], want[i])
		}
	}
}

func TestSSSPOnWeightedPath(t *testing.T) {
	const n = 100
	srcs := make([]int64, n-1)
	dsts := make([]int64, n-1)
	ws := make([]float64, n-1)
	for i := int64(0); i < n-1; i++ {
		srcs[i], dsts[i], ws[i] = i, i+1, float64(i+1)
	}
	w := graph.FromWeightedEdgeList(n, srcs, dsts, ws)
	c := tc(t, 2)
	locals := make([][]float64, 2)
	var bounds []int64
	c.Run(func(nd *cluster.Node) {
		eg := NewGraph(nd, &w.CSR)
		if nd.ID() == 0 {
			bounds = eg.Bounds()
		}
		locals[nd.ID()] = eg.SSSP(nd.NewCtx(0), w, 0)
	})
	got := make([]float64, n)
	for p, l := range locals {
		copy(got[bounds[p]:], l)
	}
	acc := 0.0
	for i := int64(0); i < n; i++ {
		if math.Abs(got[i]-acc) > 1e-9 {
			t.Fatalf("dist[%d] = %v, want %v", i, got[i], acc)
		}
		acc += float64(i + 1)
	}
}

func TestSSSPMismatchedGraphPanics(t *testing.T) {
	g1 := graph.Path(64)
	g2 := graph.RandomWeights(graph.Path(128), 1, 2, 1)
	c := tc(t, 1)
	c.Run(func(n *cluster.Node) {
		eg := NewGraph(n, g1)
		defer func() {
			if recover() == nil {
				t.Error("expected panic for mismatched weighted view")
			}
		}()
		eg.SSSP(n.NewCtx(0), g2, 0)
	})
}
