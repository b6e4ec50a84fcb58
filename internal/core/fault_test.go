package core

import (
	"errors"
	"runtime"
	"testing"

	"darray/internal/cluster"
	"darray/internal/fabric"
	"darray/internal/fault"
	"darray/internal/vtime"
)

// faultyCluster builds a cluster whose fabric sits on a permanently
// partitioned link (every message between A and B exceeds its retry
// budget). No vtime model, so all traversals carry vt=0 and the window
// [0, 1<<60) is always active.
func faultyCluster(t *testing.T, nodes, a, b int, opts ...func(*cluster.Config)) *cluster.Cluster {
	t.Helper()
	plan := fault.New(fault.Config{
		Seed: 1, Nodes: nodes, RetryBudget: 3,
		Partitions: []fault.Partition{{A: a, B: b, Start: 0, End: 1 << 60}},
	})
	cfg := cluster.Config{Nodes: nodes, ChunkWords: 64, CacheChunks: 64, Faults: plan}
	for _, o := range opts {
		o(&cfg)
	}
	c := cluster.New(cfg)
	t.Cleanup(c.Close)
	return c
}

// A remote Get across a dead link must not deadlock: the Tx thread's
// retry budget runs out, the cluster degrades, the blocked thread
// unblocks with ErrRetryExceeded on its Ctx, and Get returns zero.
func TestRemoteGetSurfacesRetryExceeded(t *testing.T) {
	c := faultyCluster(t, 2, 0, 1)
	done := make(chan error, 1)
	c.Run(func(n *cluster.Node) {
		ctx := n.NewCtx(0)
		a := New(n, 256)
		c.Barrier(ctx)
		if n.ID() == 1 {
			// Element 0 is homed on node 0, across the dead link.
			v := a.Get(ctx, 0)
			if v != 0 {
				t.Errorf("degraded Get returned %d, want 0", v)
			}
			done <- ctx.Err()
		}
		// No trailing barrier: with the link dead the healthy node
		// cannot learn of the failure in-band; Run just joins.
	})
	err := <-done
	if !errors.Is(err, fabric.ErrRetryExceeded) {
		t.Fatalf("ctx.Err() = %v, want ErrRetryExceeded", err)
	}
	if !errors.Is(c.Err(), fabric.ErrRetryExceeded) {
		t.Fatalf("cluster.Err() = %v, want ErrRetryExceeded", c.Err())
	}
}

// Set, Apply, pins, locks, the range verbs and shipped ops all degrade
// the same way: zero values and recorded errors, no hangs, no panics —
// including the Unlock that pairs a failed lock acquisition. Each verb
// runs on a cluster of its own, so it is the one whose request meets the
// dead link, and then once more on the failed ctx.
func TestAllVerbsDegradeAfterFailure(t *testing.T) {
	verbs := []struct {
		name string
		ship string
		op   func(t *testing.T, a *Array, ctx *cluster.Ctx, add OpID)
	}{
		{"Set", "off", func(t *testing.T, a *Array, ctx *cluster.Ctx, _ OpID) { a.Set(ctx, 0, 42) }},
		{"Apply", "off", func(t *testing.T, a *Array, ctx *cluster.Ctx, add OpID) { a.Apply(ctx, add, 0, 1) }},
		{"PinRead", "off", func(t *testing.T, a *Array, ctx *cluster.Ctx, _ OpID) {
			if p := a.PinRead(ctx, 0); p != nil {
				t.Error("PinRead across a dead link returned a pin")
			}
		}},
		{"WLock", "off", func(t *testing.T, a *Array, ctx *cluster.Ctx, _ OpID) {
			a.WLock(ctx, 7)
			a.Unlock(ctx, 7) // must not panic "unlock of a lock not held"
		}},
		{"ShippedApply", "on", func(t *testing.T, a *Array, ctx *cluster.Ctx, add OpID) { a.Apply(ctx, add, 0, 1) }},
		{"ShippedApplyRange", "on", func(t *testing.T, a *Array, ctx *cluster.Ctx, add OpID) {
			a.ApplyRange(ctx, add, 0, make([]uint64, 128))
		}},
		{"ApplyAt", "on", func(t *testing.T, a *Array, ctx *cluster.Ctx, add OpID) {
			a.ApplyAt(ctx, add, []int64{0, 1, 64, 65}, []uint64{1, 1, 1, 1})
		}},
		{"GetRange", "on", func(t *testing.T, a *Array, ctx *cluster.Ctx, _ OpID) {
			a.GetRange(ctx, 0, make([]uint64, 128))
		}},
		{"SetRange", "on", func(t *testing.T, a *Array, ctx *cluster.Ctx, _ OpID) {
			a.SetRange(ctx, 0, make([]uint64, 128))
		}},
	}
	for _, v := range verbs {
		t.Run(v.name, func(t *testing.T) {
			c := faultyCluster(t, 2, 0, 1, func(cfg *cluster.Config) { cfg.Ship = v.ship })
			c.Run(func(n *cluster.Node) {
				ctx := n.NewCtx(0)
				a := New(n, 256) // chunks 0 and 1 homed on node 0, across the dead link
				add := a.RegisterOp(OpAddU64)
				c.Barrier(ctx)
				if n.ID() != 1 {
					return
				}
				v.op(t, a, ctx, add)
				if ctx.Err() == nil {
					t.Error("ctx.Err() nil after a degraded operation")
				}
				v.op(t, a, ctx, add) // again, on a ctx that has already failed
				// Local elements this node homes stay accessible.
				lo, _ := a.LocalRange()
				a.Set(ctx, lo, 7)
				if got := a.Get(ctx, lo); got != 7 {
					t.Errorf("local access after degradation: got %d, want 7", got)
				}
			})
		})
	}
}

// A lease is out when the link to its lessee dies: the writer's recall
// is undeliverable, the cluster degrades, and every lock verb on both
// nodes returns instead of hanging on the release or panicking on the
// mismatched tables.
func TestLeaseRecallAcrossDeadLinkDegrades(t *testing.T) {
	const idx, cut = 3, 1_000_000
	plan := fault.New(fault.Config{
		Seed: 1, Nodes: 2, RetryBudget: 3,
		Partitions: []fault.Partition{{A: 0, B: 1, Start: cut, End: 1 << 60}},
	})
	c := cluster.New(cluster.Config{Nodes: 2, ChunkWords: 64, CacheChunks: 64,
		Faults: plan, Model: vtime.Default()})
	defer c.Close()
	c.Run(func(n *cluster.Node) {
		ctx := n.NewCtx(0)
		a := New(n, 2*64)
		c.Barrier(ctx)
		if n.ID() == 1 {
			readPairs(a, ctx, idx, leaseRunMin)
			a.RLock(ctx, idx) // a lease hit: inside when the link dies
			if !holdsLease(a, idx) {
				t.Error("no lease before the cut")
			}
		}
		c.Barrier(ctx)
		ctx.Clock.AdvanceTo(2 * cut)
		if n.ID() == 0 {
			a.WLock(ctx, idx) // its recall exhausts the retry budget
			if !errors.Is(ctx.Err(), fabric.ErrRetryExceeded) {
				t.Errorf("writer's ctx.Err() = %v, want ErrRetryExceeded", ctx.Err())
			}
			a.Unlock(ctx, idx)
			return
		}
		for !c.Failed() {
			runtime.Gosched()
		}
		a.Unlock(ctx, idx) // the lease reader leaves through the gate
		// The recall never arrived, so the gate is still open and a pair
		// through it needs nothing of the dead cluster.
		a.RLock(ctx, idx)
		a.Unlock(ctx, idx)
		// Off the gate the degraded thread acquires nothing, and its unlock
		// finds nothing to release.
		a.RLock(ctx, idx+1)
		a.Unlock(ctx, idx+1)
	})
}

// Healthy links keep working while a disjoint pair is partitioned: the
// failure only poisons threads that depend on the dead link.
func TestHealthyTrafficUnaffectedBeforeFailure(t *testing.T) {
	plan := fault.New(fault.Config{Seed: 5, Nodes: 3, DropProb: 0.05})
	c := cluster.New(cluster.Config{Nodes: 3, ChunkWords: 64, CacheChunks: 64, Faults: plan})
	defer c.Close()
	c.Run(func(n *cluster.Node) {
		ctx := n.NewCtx(0)
		a := New(n, 3*64*4)
		c.Barrier(ctx)
		lo, hi := a.LocalRange()
		for i := lo; i < hi; i++ {
			a.Set(ctx, i, uint64(i)+1)
		}
		c.Barrier(ctx)
		// Every node reads the whole array through 5% loss: the RC layer
		// must hide all of it.
		for i := int64(0); i < 3*64*4; i++ {
			if v := a.Get(ctx, i); v != uint64(i)+1 {
				t.Errorf("node %d: a[%d] = %d, want %d", n.ID(), i, v, i+1)
				break
			}
		}
		c.Barrier(ctx)
		if err := ctx.Err(); err != nil {
			t.Errorf("node %d: unexpected degradation: %v", n.ID(), err)
		}
	})
	if s := plan.Stats(); s.Drops == 0 {
		t.Fatalf("plan injected no drops: %+v", s)
	}
}
