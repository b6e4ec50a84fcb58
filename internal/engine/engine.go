// Package engine is the distributed graph analytics engine built on
// DArray (paper §5.1): a Polymer-style single-machine engine ported to
// the cluster by replacing its shared-memory arrays with DArrays. Vertex
// state lives in distributed arrays partitioned like the vertices; each
// node walks its local vertices' out-edges and pushes contributions to
// neighbor state through the Operate interface, which combines remote
// updates locally and merges them at the home node.
//
// The same algorithms are also provided over the GAM baseline (lock-based
// access path, exclusive atomics) for the Figure 16 comparison.
package engine

import (
	"math"

	"darray/internal/cluster"
	"darray/internal/core"
	"darray/internal/graph"
)

// Graph is one node's handle to a partitioned graph: the engine's
// topology is edge-balanced across nodes, with partition boundaries
// aligned to DArray chunks so vertex state arrays partition identically.
type Graph struct {
	node   *cluster.Node
	csr    *graph.CSR
	rev    *graph.CSR // transpose, built lazily for undirected traversals
	bounds []int64
	lo, hi int64 // local vertex range

	arrays []*core.Array // state arrays created by this handle

	// Scatter state, built on first use and reused by every later call
	// (push.go): the push lists, each local vertex's value to push, and
	// the operands of one scatter with, when only some vertices push,
	// their destinations.
	out, undirected *pushList
	vals, ops       []uint64
	dsts            []int64

	// Pass scratch: two buffers over the local vertex range, built on
	// first use (local) and shared by a team's threads, each on its own
	// share.
	bufA, bufB []uint64
}

// NewGraph collectively wraps csr for the cluster.
func NewGraph(node *cluster.Node, csr *graph.CSR) *Graph {
	c := node.Cluster()
	cw := int64(c.Config().ChunkWords)
	boundsAny := node.Collective(func() any {
		b := csr.Partition(c.Nodes())
		// Align to chunk boundaries so a DArray with PartitionOffset=b
		// homes vertex v's state exactly on v's owner.
		for i := 1; i < len(b)-1; i++ {
			b[i] = (b[i] + cw - 1) / cw * cw
			if b[i] > csr.N {
				b[i] = csr.N
			}
			if b[i] < b[i-1] {
				b[i] = b[i-1]
			}
		}
		return b
	})
	bounds := boundsAny.([]int64)
	return &Graph{
		node:   node,
		csr:    csr,
		bounds: bounds,
		lo:     bounds[node.ID()],
		hi:     bounds[node.ID()+1],
	}
}

// Bounds returns the vertex partition boundaries.
func (eg *Graph) Bounds() []int64 { return eg.bounds }

// LocalRange returns this node's vertex range [lo, hi).
func (eg *Graph) LocalRange() (int64, int64) { return eg.lo, eg.hi }

// CSR returns the topology.
func (eg *Graph) CSR() *graph.CSR { return eg.csr }

func (eg *Graph) chunkWords() int64 { return int64(eg.node.Cluster().Config().ChunkWords) }

func (eg *Graph) newStateArray() *core.Array {
	starts := eg.bounds[:len(eg.bounds)-1] // per-node start offsets
	a := core.New(eg.node, eg.csr.N, core.Options{PartitionOffset: starts})
	eg.arrays = append(eg.arrays, a)
	return a
}

// StateArrays returns the vertex-state arrays this handle has created,
// so harnesses (chaos testing) can run core.ValidateQuiesced on them
// after an algorithm completes.
func (eg *Graph) StateArrays() []*core.Array { return eg.arrays }

const (
	prDamping = 0.85
)

// PageRank runs iters rounds of synchronous PageRank and returns this
// node's local slice of the final ranks. Gather and read-back make one
// multi-chunk range call per thread over its share of the local vertex
// range, so the op-recall collapses of next's chunks overlap in the
// range pipeline; scatter makes one ApplyAt per thread over its blocks of
// the push list, so its Operated grants overlap the same way, and each
// destination's adjacent operands fold into one CAS (push.go). The fold
// keeps each destination's source order, so the ranks are the per-edge
// sums bit for bit. usePin selects the DArray-Pin variant (paper Figure
// 16's DArray-Pin series): scatter reads curr through one pinned chunk at
// a time instead of one Get per vertex; the combining is the same ApplyAt
// either way.
func (eg *Graph) PageRank(ctx *cluster.Ctx, iters int, usePin bool) []float64 {
	return eg.pageRank(eg.soloTeam(ctx), iters, usePin)
}

func (eg *Graph) pageRank(tm *team, iters int, usePin bool) []float64 {
	root := tm.root
	c := eg.node.Cluster()
	pl := eg.outList()
	curr := eg.newStateArray()
	next := eg.newStateArray()
	add := curr.RegisterOp(core.OpAddF64)
	_ = next.RegisterOp(core.OpAddF64) // same id on the other array

	curr.Fill(root, math.Float64bits(1.0/float64(eg.csr.N)))
	next.Fill(root, 0)
	buf := eg.local(&eg.bufA)
	c.Barrier(root)

	for it := 0; it < iters; it++ {
		eg.scatter(tm, curr, next, add, pl, usePin, nil)
		c.Barrier(root)
		tm.vertices(eg.lo, eg.hi, func(ctx *cluster.Ctx, _ int, lo, hi int64) {
			eg.gatherRanks(ctx, curr, next, lo, buf[lo-eg.lo:hi-eg.lo])
		})
		c.Barrier(root)
	}
	out := eg.readF64(root, curr)
	c.Barrier(root)
	return out
}

// gatherRanks folds damping into the ranks of the vertices from lo that
// buf covers: curr = base + d·next, and next is zeroed for the next
// scatter.
func (eg *Graph) gatherRanks(ctx *cluster.Ctx, curr, next *core.Array, lo int64, buf []uint64) {
	base := (1 - prDamping) / float64(eg.csr.N)
	next.GetRange(ctx, lo, buf)
	for k, v := range buf {
		buf[k] = math.Float64bits(base + prDamping*math.Float64frombits(v))
	}
	curr.SetRange(ctx, lo, buf)
	clear(buf)
	next.SetRange(ctx, lo, buf)
}

// local returns *s, a buffer over the local vertex range, made on first
// use. Teams call it before their threads start.
func (eg *Graph) local(s *[]uint64) []uint64 {
	if *s == nil {
		*s = make([]uint64, eg.hi-eg.lo)
	}
	return *s
}

// readF64 returns this node's slice of a as float64s, read with one
// GetRange.
func (eg *Graph) readF64(ctx *cluster.Ctx, a *core.Array) []float64 {
	b := eg.local(&eg.bufA)
	a.GetRange(ctx, eg.lo, b)
	out := make([]float64, len(b))
	for k, v := range b {
		out[k] = math.Float64frombits(v)
	}
	return out
}

// readU64 returns this node's slice of a, read with one GetRange.
func (eg *Graph) readU64(ctx *cluster.Ctx, a *core.Array) []uint64 {
	out := make([]uint64, eg.hi-eg.lo)
	a.GetRange(ctx, eg.lo, out)
	return out
}

// eachChunk calls fn on the pieces of [lo, hi) that each lie inside one
// chunk of cw words, in order: the unit a Pin covers.
func eachChunk(lo, hi, cw int64, fn func(lo, hi int64)) {
	for lo < hi {
		end := min(hi, (lo/cw+1)*cw)
		fn(lo, end)
		lo = end
	}
}

// reverse returns the transpose graph, built once per cluster and
// shared read-only by every node.
func (eg *Graph) reverse() *graph.CSR {
	if eg.rev == nil {
		eg.rev = eg.node.Collective(func() any { return eg.csr.Reverse() }).(*graph.CSR)
	}
	return eg.rev
}

// ConnectedComponents runs min-label propagation over the undirected
// view of the graph until a fixed point, returning this node's labels
// and the number of iterations: propagate with every vertex starting at
// its own id and pushing every round, along out- and in-edges. usePin
// reads curr through a pinned chunk in scatter.
func (eg *Graph) ConnectedComponents(ctx *cluster.Ctx, usePin bool) ([]uint64, int) {
	return eg.connectedComponents(eg.soloTeam(ctx), usePin)
}

func (eg *Graph) connectedComponents(tm *team, usePin bool) ([]uint64, int) {
	pl := eg.undirectedList() // collective on first use: before any timing
	return eg.propagate(tm, minProp{pl: pl, op: core.OpMinU64, labels: true}, usePin)
}

// BFS computes hop distances from root over out-edges (an extension
// beyond the paper's two applications): propagate under OpMinU64, where
// an edge carries its source's distance + 1. Unreachable vertices get
// ^uint64(0).
func (eg *Graph) BFS(ctx *cluster.Ctx, root int64) []uint64 {
	out, _ := eg.propagate(eg.soloTeam(ctx), minProp{pl: eg.outList(), op: core.OpMinU64, hop: 1, root: root}, false)
	return out
}

// SSSP computes single-source shortest paths over a weighted graph (an
// extension beyond the paper's two applications, exercising OpMinF64
// through the Operated state): propagate, where an edge carries its
// source's distance + its weight, along a push list built per call from
// w. Unreachable vertices get +Inf. All nodes must pass the same weighted
// view of the engine's topology.
func (eg *Graph) SSSP(ctx *cluster.Ctx, w *graph.WCSR, root int64) []float64 {
	if w.N != eg.csr.N {
		panic("engine: weighted view does not match the engine's graph")
	}
	pl := newPushList(eg.lo, eg.hi, w.N, eg.chunkWords(), w.Weights, &w.CSR)
	bits, _ := eg.propagate(eg.soloTeam(ctx), minProp{pl: pl, op: core.OpMinF64, root: root}, false)
	out := make([]float64, len(bits))
	for k, b := range bits {
		out[k] = math.Float64frombits(b)
	}
	return out
}

// minProp is one min-propagation to a fixed point. CC, BFS and SSSP are
// the same loop, propagate, over different minProps.
type minProp struct {
	pl  *pushList // the edges values move along; a weighted list adds each edge's weight
	op  core.Op   // core.OpMinU64, or core.OpMinF64 over float64 bits
	hop uint64    // an unweighted edge carries its source's value + hop

	// labels starts every vertex at its own id and has it push every
	// round (CC). Otherwise root starts at 0 and every other vertex at
	// op's identity, and a vertex pushes only in the round after its
	// value fell (the root in the first).
	labels bool
	root   int64

	// pending marks the local vertices that push this round, or is nil:
	// every one. propagate sets it.
	pending []bool
}

// pushes reports whether local vertex k pushes this round.
func (p *minProp) pushes(k int64) bool { return p.pending == nil || p.pending[k] }

// propagate runs p to a fixed point and returns this node's values and
// the number of rounds. Like PageRank it initializes, gathers and reads
// back with one range call per thread share and scatters with one
// ApplyAt per thread; a round's scatter pushes the pending vertices'
// values along p.pl into next, and its gather lowers curr to next and
// reports which values fell. The rounds stop when none did anywhere.
func (eg *Graph) propagate(tm *team, p minProp, usePin bool) ([]uint64, int) {
	root := tm.root
	c := eg.node.Cluster()
	curr := eg.newStateArray()
	next := eg.newStateArray()
	op := curr.RegisterOp(p.op)
	_ = next.RegisterOp(p.op)

	cb, nb := eg.local(&eg.bufA), eg.local(&eg.bufB)
	fell := make([]bool, len(cb))
	if p.labels {
		for k := range cb {
			cb[k] = uint64(eg.lo) + uint64(k)
		}
	} else {
		p.pending = fell
		for k := range cb {
			cb[k] = p.op.Identity
		}
		if p.root >= eg.lo && p.root < eg.hi {
			cb[p.root-eg.lo], fell[p.root-eg.lo] = 0, true
		}
	}
	curr.SetRange(root, eg.lo, cb)
	next.Fill(root, p.op.Identity)
	c.Barrier(root)

	changed := make([]bool, len(tm.ctxs))
	iters := 0
	for {
		iters++
		eg.scatter(tm, curr, next, op, p.pl, usePin, &p)
		c.Barrier(root)
		tm.vertices(eg.lo, eg.hi, func(ctx *cluster.Ctx, k int, lo, hi int64) {
			l, h := lo-eg.lo, hi-eg.lo
			changed[k] = gatherMin(ctx, curr, next, &p.op, lo, cb[l:h], nb[l:h], fell[l:h])
		})
		if c.AllReduceSum(root, anyChanged(changed)) == 0 {
			break
		}
		c.Barrier(root)
	}
	out := eg.readU64(root, curr)
	c.Barrier(root)
	return out, iters
}

// anyChanged is 1 when any thread's gather lowered a value, else 0.
func anyChanged(changed []bool) float64 {
	for _, ch := range changed {
		if ch {
			return 1
		}
	}
	return 0
}

// gatherMin lowers curr to next's combined minimum under op over the
// vertices from lo that cb and nb cover, marks in fell the ones whose
// value fell, and resets next to op's identity. It reports whether any
// value fell.
func gatherMin(ctx *cluster.Ctx, curr, next *core.Array, op *core.Op, lo int64, cb, nb []uint64, fell []bool) bool {
	curr.GetRange(ctx, lo, cb)
	next.GetRange(ctx, lo, nb)
	changed := false
	for k, v := range nb {
		m := op.Fn(cb[k], v)
		fell[k] = m != cb[k]
		changed = changed || fell[k]
		cb[k], nb[k] = m, op.Identity
	}
	curr.SetRange(ctx, lo, cb)
	next.SetRange(ctx, lo, nb)
	return changed
}
