// Quickstart: the DArray API tour — construction, Read/Write, the
// Operate interface, distributed locks, and the Pin hint, on a
// four-node simulated cluster.
package main

import (
	"fmt"

	"darray"
)

func main() {
	c := darray.NewCluster(darray.Config{Nodes: 4})
	defer c.Close()

	c.Run(func(n *darray.Node) {
		// Collective creation: a global array of 64Ki 8-byte objects,
		// evenly partitioned across the four nodes.
		arr := darray.New(n, 1<<16)
		add := arr.RegisterOp(darray.OpAddU64)
		ctx := n.NewCtx(0)

		// Each node writes its own partition (local, no network).
		lo, hi := arr.LocalRange()
		for i := lo; i < hi; i++ {
			arr.Set(ctx, i, uint64(i))
		}
		c.Barrier(ctx)

		// Remote reads are absorbed by the coherent cache: the first
		// access to a chunk fetches it, the rest hit locally.
		var sum uint64
		for i := int64(0); i < 1024; i++ {
			sum += arr.Get(ctx, i)
		}
		if n.ID() == 1 {
			fmt.Printf("node %d: sum of first 1024 elements = %d (%d of the 1024 reads missed)\n",
				n.ID(), sum, ctx.Stats.Misses)
		}
		c.Barrier(ctx)

		// Operate: all four nodes increment the same element
		// concurrently; operands combine locally and merge at the home
		// node — no exclusive ownership, no lock.
		for k := 0; k < 1000; k++ {
			arr.Apply(ctx, add, 42, 1)
		}
		c.Barrier(ctx)
		if n.ID() == 0 {
			fmt.Printf("element 42 after 4x1000 concurrent adds: %d (started at 42)\n",
				arr.Get(ctx, 42))
		}
		c.Barrier(ctx)

		// Distributed reader/writer locks for non-commutative updates.
		arr.WLock(ctx, 7)
		arr.Set(ctx, 7, arr.Get(ctx, 7)*2)
		arr.Unlock(ctx, 7)
		c.Barrier(ctx)
		if n.ID() == 0 {
			fmt.Printf("element 7 after 4 locked doublings: %d (started at 7)\n",
				arr.Get(ctx, 7))
		}
		c.Barrier(ctx)

		// Pin: hold a chunk's reference explicitly so sequential access
		// skips the fast path's atomics entirely.
		p := arr.PinRead(ctx, lo)
		var local uint64
		for i := p.First(); i < p.Limit(); i++ {
			local += p.Get(ctx, i)
		}
		p.Unpin(ctx)
		if n.ID() == 0 {
			fmt.Printf("node %d: pinned scan of chunk [%d,%d) sum = %d\n",
				n.ID(), lo, lo+arr.ChunkWords(), local)
		}
	})
}
