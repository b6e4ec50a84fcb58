package core

import (
	"runtime"
	"sync/atomic"
	"testing"

	"darray/internal/cluster"
)

// Two application threads of one node hammer the lock-free entry points
// on a chunk homed at the other node — plain Sets, and write pins with a
// Set through them — while the home keeps reading the chunk back (every
// such read recalls the Dirty copy: a demotion to Invalid that frees the
// line) and a cache of two lines per runtime evicts it from under them.
// A thread whose announce slipped between the runtime's drain check and
// its state store used to go on with a permission — or a line — that was
// already gone: `Set through a pin without write permission`, or `index
// out of range` on the freed line, within a few hundred recalls. With the
// re-check in dentry.enter every store lands, and each thread finds the
// last value it stored.
func TestAnnounceRecheckUnderDemoteAndEvict(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 4 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	}
	const threads = 2
	pulls := int64(2500)
	if testing.Short() {
		pulls = 250
	}
	c := tc(t, 2, func(cfg *cluster.Config) { cfg.CacheChunks = 2 })
	var stop atomic.Bool
	var last [threads]uint64
	c.Run(func(n *cluster.Node) {
		a := New(n, 2*8*64) // chunks 0..7 are homed on node 0; 0, 2 and 4 share a runtime
		root := n.NewCtx(0)
		c.Barrier(root)
		switch n.ID() {
		case 0:
			// A home read hits until the other node's next write takes the
			// chunk away, so count recalls by this thread's misses.
			for root.Stats.Misses < pulls {
				a.Get(root, 5)
			}
			stop.Store(true)
		case 1:
			n.RunThreads(threads, func(ctx *cluster.Ctx) {
				i := int64(ctx.TID) // this thread's word of the hot chunk
				r := uint64(0)
				for !stop.Load() {
					r++
					a.Set(ctx, i, r)
					if r%4 == 0 {
						p := a.PinWrite(ctx, i)
						p.Set(ctx, i, r)
						p.Unpin(ctx)
					}
					if r%256 == 0 {
						a.Get(ctx, int64(2+r/256%2*2)*64) // a third line for the hot chunk's runtime: evicts
					}
				}
				last[ctx.TID] = r
			})
		}
		c.Barrier(root)
		if n.ID() == 0 {
			for tid, want := range last {
				if got := a.Get(root, int64(tid)); got != want {
					t.Errorf("word %d = %d, want the last value its thread stored, %d", tid, got, want)
				}
			}
		}
		c.Barrier(root)
	})
}
