package engine

import (
	"math"
	"testing"

	"darray/internal/cluster"
	"darray/internal/graph"
)

// refPageRank is a sequential reference implementation.
func refPageRank(g *graph.CSR, iters int) []float64 {
	n := g.N
	curr := make([]float64, n)
	next := make([]float64, n)
	for i := range curr {
		curr[i] = 1.0 / float64(n)
	}
	for it := 0; it < iters; it++ {
		for i := range next {
			next[i] = 0
		}
		for u := int64(0); u < n; u++ {
			deg := g.OutDegree(u)
			if deg == 0 {
				continue
			}
			c := curr[u] / float64(deg)
			for _, v := range g.Neighbors(u) {
				next[v] += c
			}
		}
		base := (1 - 0.85) / float64(n)
		for i := range curr {
			curr[i] = base + 0.85*next[i]
		}
	}
	return curr
}

// refCC is a sequential union-find reference for undirected components.
func refCC(g *graph.CSR) []uint64 {
	parent := make([]int64, g.N)
	for i := range parent {
		parent[i] = int64(i)
	}
	var find func(int64) int64
	find = func(x int64) int64 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int64) {
		ra, rb := find(a), find(b)
		if ra < rb {
			parent[rb] = ra
		} else if rb < ra {
			parent[ra] = rb
		}
	}
	for u := int64(0); u < g.N; u++ {
		for _, v := range g.Neighbors(u) {
			union(u, v)
		}
	}
	out := make([]uint64, g.N)
	for i := range out {
		out[i] = uint64(find(int64(i)))
	}
	// Min-label propagation converges to the minimum vertex id in each
	// component; normalize union-find roots to component minima.
	minOf := map[uint64]uint64{}
	for i, r := range out {
		if m, ok := minOf[r]; !ok || uint64(i) < m {
			minOf[r] = uint64(i)
		}
	}
	for i, r := range out {
		out[i] = minOf[r]
	}
	return out
}

func tc(t *testing.T, nodes int) *cluster.Cluster {
	t.Helper()
	c := cluster.New(cluster.Config{Nodes: nodes, ChunkWords: 64, CacheChunks: 256})
	t.Cleanup(c.Close)
	return c
}

func testGraph() *graph.CSR {
	return graph.RMAT(graph.RMATConfig{Scale: 9, EdgeFactor: 4, A: 0.57, B: 0.19, C: 0.19, Seed: 3})
}

func gatherF64(c *cluster.Cluster, bounds []int64, locals [][]float64) []float64 {
	out := make([]float64, bounds[len(bounds)-1])
	for p, l := range locals {
		copy(out[bounds[p]:], l)
	}
	return out
}

func TestPageRankMatchesReference(t *testing.T) {
	for _, usePin := range []bool{false, true} {
		g := testGraph()
		want := refPageRank(g, 5)
		c := tc(t, 3)
		locals := make([][]float64, 3)
		var bounds []int64
		c.Run(func(n *cluster.Node) {
			eg := NewGraph(n, g)
			if n.ID() == 0 {
				bounds = eg.Bounds()
			}
			locals[n.ID()] = eg.PageRank(n.NewCtx(0), 5, usePin)
		})
		got := gatherF64(c, bounds, locals)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("pin=%v: rank[%d] = %g, want %g", usePin, i, got[i], want[i])
			}
		}
	}
}

func TestPageRankRanksSumToOne(t *testing.T) {
	g := testGraph()
	c := tc(t, 2)
	var sum float64
	c.Run(func(n *cluster.Node) {
		eg := NewGraph(n, g)
		local := eg.PageRank(n.NewCtx(0), 3, false)
		s := 0.0
		for _, r := range local {
			s += r
		}
		_ = c.AllReduceSum(n.NewCtx(0), s)
		if n.ID() == 0 {
			sum = c.AllReduceSum(n.NewCtx(0), s)
		} else {
			c.AllReduceSum(n.NewCtx(0), s)
		}
	})
	// Dangling vertices leak rank mass, so the sum is <= 1 but must stay
	// in a sane band.
	if sum < 0.2 || sum > 1.0001 {
		t.Fatalf("rank mass = %v, want (0.2, 1]", sum)
	}
}

func TestConnectedComponentsMatchesReference(t *testing.T) {
	g := testGraph()
	want := refCC(g)
	for _, usePin := range []bool{false, true} {
		c := tc(t, 3)
		locals := make([][]uint64, 3)
		var bounds []int64
		c.Run(func(n *cluster.Node) {
			eg := NewGraph(n, g)
			if n.ID() == 0 {
				bounds = eg.Bounds()
			}
			labels, iters := eg.ConnectedComponents(n.NewCtx(0), usePin)
			if iters < 1 {
				t.Errorf("CC reported %d iterations", iters)
			}
			locals[n.ID()] = labels
		})
		got := make([]uint64, g.N)
		for p, l := range locals {
			copy(got[bounds[p]:], l)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("pin=%v: label[%d] = %d, want %d", usePin, i, got[i], want[i])
			}
		}
	}
}

func TestBFSOnPath(t *testing.T) {
	g := graph.Path(200)
	c := tc(t, 2)
	locals := make([][]uint64, 2)
	var bounds []int64
	c.Run(func(n *cluster.Node) {
		eg := NewGraph(n, g)
		if n.ID() == 0 {
			bounds = eg.Bounds()
		}
		locals[n.ID()] = eg.BFS(n.NewCtx(0), 0)
	})
	got := make([]uint64, g.N)
	for p, l := range locals {
		copy(got[bounds[p]:], l)
	}
	for i := range got {
		if got[i] != uint64(i) {
			t.Fatalf("dist[%d] = %d, want %d", i, got[i], i)
		}
	}
}

// TestBFSRootOutOfRange: a root no node homes reaches nothing.
func TestBFSRootOutOfRange(t *testing.T) {
	g := graph.Path(200)
	for _, root := range []int64{-1, g.N} {
		c := tc(t, 2)
		c.Run(func(n *cluster.Node) {
			for i, d := range NewGraph(n, g).BFS(n.NewCtx(0), root) {
				if d != ^uint64(0) {
					t.Errorf("root %d: node %d's local vertex %d at distance %d", root, n.ID(), i, d)
					return
				}
			}
		})
	}
}

// refBFS is the sequential reference: hop distances over out-edges,
// ^uint64(0) where root does not reach.
func refBFS(g *graph.CSR, root int64) []uint64 {
	dist := make([]uint64, g.N)
	for i := range dist {
		dist[i] = ^uint64(0)
	}
	dist[root] = 0
	for frontier := []int64{root}; len(frontier) > 0; {
		var nextF []int64
		for _, u := range frontier {
			for _, v := range g.Neighbors(u) {
				if dist[v] == ^uint64(0) {
					dist[v] = dist[u] + 1
					nextF = append(nextF, v)
				}
			}
		}
		frontier = nextF
	}
	return dist
}

// rootOn returns the first vertex homed on node p that has out-edges.
func rootOn(g *graph.CSR, bounds []int64, p int) int64 {
	for u := bounds[p]; u < bounds[p+1]; u++ {
		if g.OutDegree(u) > 0 {
			return u
		}
	}
	panic("engine test: node has no vertex with out-edges")
}

// TestBFSMatchesReference: on a 3-node R-MAT graph, BFS from a vertex
// homed on node 2 returns the sequential hop distances, including
// the unreachable vertices' ^uint64(0).
func TestBFSMatchesReference(t *testing.T) {
	g := testGraph()
	c := tc(t, 3)
	locals := make([][]uint64, 3)
	var bounds []int64
	var root int64
	c.Run(func(n *cluster.Node) {
		eg := NewGraph(n, g)
		r := rootOn(g, eg.Bounds(), 2)
		if n.ID() == 0 {
			bounds, root = eg.Bounds(), r
		}
		locals[n.ID()] = eg.BFS(n.NewCtx(0), r)
	})
	want := refBFS(g, root)
	unreached := 0
	for _, d := range want {
		if d == ^uint64(0) {
			unreached++
		}
	}
	if unreached == 0 || unreached >= len(want)-1 {
		t.Fatalf("root %d leaves %d of %d vertices unreached: the test needs some of each", root, unreached, len(want))
	}
	got := make([]uint64, g.N)
	for p, l := range locals {
		copy(got[bounds[p]:], l)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("root %d: dist[%d] = %d, want %d", root, i, got[i], want[i])
		}
	}
}

func TestGamPageRankMatchesReference(t *testing.T) {
	g := graph.RMAT(graph.RMATConfig{Scale: 7, EdgeFactor: 4, A: 0.57, B: 0.19, C: 0.19, Seed: 5})
	want := refPageRank(g, 3)
	c := tc(t, 2)
	locals := make([][]float64, 2)
	var bounds []int64
	c.Run(func(n *cluster.Node) {
		eg := NewGamGraph(n, g)
		lo, hi := eg.LocalRange()
		if n.ID() == 0 {
			bounds = []int64{0, hi, g.N}
			_ = lo
		}
		locals[n.ID()] = eg.PageRank(n.NewCtx(0), 3)
	})
	got := gatherF64(c, bounds, locals)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("gam rank[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestGamCCMatchesReference(t *testing.T) {
	g := graph.RMAT(graph.RMATConfig{Scale: 7, EdgeFactor: 4, A: 0.57, B: 0.19, C: 0.19, Seed: 5})
	want := refCC(g)
	c := tc(t, 2)
	locals := make([][]uint64, 2)
	var split int64
	c.Run(func(n *cluster.Node) {
		eg := NewGamGraph(n, g)
		_, hi := eg.LocalRange()
		if n.ID() == 0 {
			split = hi
		}
		labels, _ := eg.ConnectedComponents(n.NewCtx(0))
		locals[n.ID()] = labels
	})
	got := make([]uint64, g.N)
	copy(got, locals[0])
	copy(got[split:], locals[1])
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("gam label[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}
