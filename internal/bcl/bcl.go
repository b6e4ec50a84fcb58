// Package bcl implements the BCL baseline (Brock et al., ICPP 2019): a
// PGAS distributed array without a cache. Every access to a remote
// partition maps directly to a one-sided RMA operation, so remote
// latency is a full network round trip regardless of locality — the
// defining property the paper's Figures 1, 12, 13 and 18 exercise.
package bcl

import (
	"fmt"
	"sync/atomic"

	"darray/internal/cluster"
	"darray/internal/fabric"
	"darray/internal/vtime"
)

type shared struct {
	id     uint32
	n      int64
	starts []int64 // starts[v] = first element homed on node v
	insts  []*Array
}

// Array is one node's handle to a BCL-style distributed array.
type Array struct {
	sh    *shared
	node  *cluster.Node
	ep    *fabric.Endpoint
	model *vtime.Model
	local []uint64
}

// New collectively creates a BCL array of n words, evenly partitioned.
func New(node *cluster.Node, n int64) *Array {
	if n <= 0 {
		panic("bcl: array length must be positive")
	}
	c := node.Cluster()
	shAny := node.Collective(func() any {
		sh := &shared{id: c.NextArrayID(), n: n}
		nodes := int64(c.Nodes())
		per := (n + nodes - 1) / nodes
		sh.starts = make([]int64, nodes+1)
		for v := int64(0); v <= nodes; v++ {
			s := v * per
			if s > n {
				s = n
			}
			sh.starts[v] = s
		}
		sh.insts = make([]*Array, nodes)
		for v := int64(0); v < nodes; v++ {
			nd := c.Node(int(v))
			a := &Array{sh: sh, node: nd, ep: nd.Endpoint(), model: c.Model()}
			a.local = make([]uint64, sh.starts[v+1]-sh.starts[v])
			nd.Endpoint().RegisterMR(sh.id, a.local)
			sh.insts[v] = a
		}
		return sh
	})
	sh := shAny.(*shared)
	a := sh.insts[node.ID()]
	c.Barrier(nil)
	return a
}

// Len returns the global element count.
func (a *Array) Len() int64 { return a.sh.n }

// Node returns this handle's node.
func (a *Array) Node() *cluster.Node { return a.node }

// LocalRange returns the element range homed on this node.
func (a *Array) LocalRange() (lo, hi int64) {
	v := a.node.ID()
	return a.sh.starts[v], a.sh.starts[v+1]
}

// HomeOf returns the node homing element i.
func (a *Array) HomeOf(i int64) int {
	if i < 0 || i >= a.sh.n {
		panic(fmt.Sprintf("bcl: index %d out of range [0,%d)", i, a.sh.n))
	}
	s := a.sh.starts
	lo, hi := 0, len(s)-1
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if s[mid] <= i {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

func (a *Array) chargeLocal(ctx *cluster.Ctx) {
	if a.model != nil {
		ctx.Clock.Advance(a.model.BclLocal)
	}
}

// Get reads element i: a direct load locally, a one-sided READ remotely.
func (a *Array) Get(ctx *cluster.Ctx, i int64) uint64 {
	home := a.HomeOf(i)
	off := i - a.sh.starts[home]
	if home == a.node.ID() {
		a.chargeLocal(ctx)
		return atomic.LoadUint64(&a.local[off])
	}
	v, err := a.ep.ReadWord(&ctx.Clock, home, a.sh.id, off)
	if err != nil {
		ctx.Fail(err)
		return 0
	}
	return v
}

// Set writes element i: a direct store locally, a one-sided WRITE
// remotely.
func (a *Array) Set(ctx *cluster.Ctx, i int64, v uint64) {
	home := a.HomeOf(i)
	off := i - a.sh.starts[home]
	if home == a.node.ID() {
		a.chargeLocal(ctx)
		atomic.StoreUint64(&a.local[off], v)
		return
	}
	if err := a.ep.WriteWord(&ctx.Clock, home, a.sh.id, off, v); err != nil {
		ctx.Fail(err)
	}
}

// FetchAdd atomically adds v to element i using remote atomics (one CAS
// round trip per retry), the way BCL maps read-modify-write to RMA.
func (a *Array) FetchAdd(ctx *cluster.Ctx, i int64, v uint64) uint64 {
	home := a.HomeOf(i)
	off := i - a.sh.starts[home]
	if home == a.node.ID() {
		a.chargeLocal(ctx)
		return atomic.AddUint64(&a.local[off], v) - v
	}
	for {
		old, err := a.ep.ReadWord(&ctx.Clock, home, a.sh.id, off)
		if err != nil {
			ctx.Fail(err)
			return 0
		}
		ok, err := a.ep.CompareAndSwap(&ctx.Clock, home, a.sh.id, off, old, old+v)
		if err != nil {
			ctx.Fail(err)
			return 0
		}
		if ok {
			return old
		}
	}
}

// GetBulk reads n consecutive elements starting at i into dst with as
// few RMA operations as partition boundaries allow.
func (a *Array) GetBulk(ctx *cluster.Ctx, i int64, dst []uint64) {
	for len(dst) > 0 {
		home := a.HomeOf(i)
		off := i - a.sh.starts[home]
		avail := a.sh.starts[home+1] - i
		n := int64(len(dst))
		if n > avail {
			n = avail
		}
		if home == a.node.ID() {
			for k := int64(0); k < n; k++ {
				dst[k] = atomic.LoadUint64(&a.local[off+k])
			}
			a.chargeLocal(ctx)
		} else {
			if err := a.ep.ReadWords(&ctx.Clock, home, a.sh.id, off, dst[:n]); err != nil {
				ctx.Fail(err)
				return
			}
		}
		dst = dst[n:]
		i += n
	}
}
