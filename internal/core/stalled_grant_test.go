package core

import (
	"runtime"
	"testing"
	"time"

	"darray/internal/cluster"
)

// A grant whose installation has to wait — for a pin on the line it
// replaces, or for a free line — leaves a window in which the home's
// next command for the chunk arrives, per-QP FIFO, behind it. The home
// already counts the grant as delivered, so that command is about the
// state being installed, not the one still published. Each test below
// opens the window with held pins, lets one command through it, closes
// it, and then requires what the command asked for to have happened.
//
// Nothing here sleeps to order events: a stalled installation shows as a
// reference-drain stall or as the grant in the node's protocol event
// ring, and a command's arrival as its own event in that ring.

const stalledGrantBound = 10 * time.Second

// runBounded is c.Run with a bound: a lost coherence command parks an
// application thread for good, which should fail this test rather than
// the package's timeout.
func runBounded(t *testing.T, c *cluster.Cluster, fn func(n *cluster.Node)) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Run(fn)
	}()
	select {
	case <-done:
	case <-time.After(stalledGrantBound):
		t.Fatalf("threads still blocked after %v: a command that arrived during a stalled grant installation was lost", stalledGrantBound)
	}
}

// await yields until cond holds. A condition that never comes true shows
// as runBounded's failure.
func await(cond func() bool) {
	for !cond() {
		runtime.Gosched()
	}
}

// sawEvent reports whether a's protocol event ring holds kind for chunk ci.
func sawEvent(a *Array, kind string, ci int64) bool {
	for _, e := range a.TraceEvents() {
		if e.Kind == kind && e.Chunk == ci {
			return true
		}
	}
	return false
}

// stalledOnPin runs the shape three of the four cases share. Node 1
// holds a PinRead on chunk 0 (homed on node 0, Shared); its second
// thread runs upgrade, whose grant then stalls draining that pin;
// trigger, on node `from`, makes the home send node 1 the command named
// cmd; the pin is dropped only once that command has arrived. Everything
// must then complete, and the final contents must be want at element 0.
func stalledOnPin(t *testing.T, nodes, from int, cmd string, want uint64,
	setup func(a *Array) OpID,
	upgrade func(a *Array, ctx *cluster.Ctx, op OpID),
	trigger func(a *Array, ctx *cluster.Ctx)) {
	c := tc(t, nodes)
	pinned := make(chan struct{})
	stalled := make(chan struct{})
	runBounded(t, c, func(n *cluster.Node) {
		a := New(n, int64(nodes)*64)
		op := setup(a)
		a.EnableTrace(256)
		root := n.NewCtx(0)
		c.Barrier(root)
		switch n.ID() {
		case 1:
			n.RunThreads(2, func(ctx *cluster.Ctx) {
				if ctx.TID == 0 {
					p := a.PinRead(ctx, 0)
					close(pinned)
					await(func() bool { return a.Metrics.RefDrainStalls.Load() > 0 })
					close(stalled)
					await(func() bool { return sawEvent(a, cmd, 0) })
					p.Unpin(ctx)
					return
				}
				<-pinned
				upgrade(a, ctx, op)
			})
		case from:
			<-stalled
			trigger(a, root)
		}
		validateAll(t, c, a, root)
		if got := a.Get(root, 0); got != want {
			t.Errorf("node %d reads %d at element 0, want %d", n.ID(), got, want)
		}
		c.Barrier(root)
	})
}

func noOp(*Array) OpID { return 0 }

func setSeven(a *Array, ctx *cluster.Ctx, _ OpID) { a.Set(ctx, 0, 7) }

func getZero(a *Array, ctx *cluster.Ctx) { a.Get(ctx, 0) }

// The home reads a chunk whose RW grant is still draining a pin on the
// owner: its recall must wait for the installation, not be taken for one
// that crossed a voluntary writeback.
func TestStalledGrantDefersRecall(t *testing.T) {
	stalledOnPin(t, 2, 0, "recall", 7, noOp, setSeven, getZero)
}

// The same with a third node reading: the home downgrades the owner.
func TestStalledGrantDefersDowngrade(t *testing.T) {
	stalledOnPin(t, 3, 2, "downgrade", 7, noOp, setSeven, getZero)
}

// An Operated grant draining a pin, then the home reads: the op-recall
// must find the combine buffer it is about.
func TestStalledOpGrantDefersOpRecall(t *testing.T) {
	stalledOnPin(t, 2, 0, "op-recall", 1,
		func(a *Array) OpID { return a.RegisterOp(OpAddU64) },
		func(a *Array, ctx *cluster.Ctx, op OpID) { a.Apply(ctx, op, 0, 1) },
		getZero)
}

// A Read grant waiting for a free line (every line of the runtime's
// cache is pinned), then the home writes: the invalidation must not be
// acked for a copy that is about to exist. Acked early, the home goes
// Unshared while node 1 installs a Shared copy of the old words — no
// hang, a stale sharer, which ValidateQuiesced names.
func TestStalledGrantDefersInvalidate(t *testing.T) {
	c := tc(t, 2, func(cfg *cluster.Config) { cfg.RuntimeThreads, cfg.CacheChunks, cfg.PrefetchAhead = 1, 2, -1 })
	pinned := make(chan struct{})
	stalled := make(chan struct{})
	const third = 2 * 64 // first element of chunk 2, homed on node 0
	runBounded(t, c, func(n *cluster.Node) {
		a := New(n, 2*4*64)
		a.EnableTrace(256)
		root := n.NewCtx(0)
		c.Barrier(root)
		if n.ID() == 1 {
			n.RunThreads(2, func(ctx *cluster.Ctx) {
				if ctx.TID == 0 {
					p0, p1 := a.PinRead(ctx, 0), a.PinRead(ctx, 64)
					close(pinned)
					await(func() bool { return sawEvent(a, "data-resp", 2) })
					close(stalled)
					await(func() bool { return sawEvent(a, "invalidate", 2) })
					p0.Unpin(ctx)
					p1.Unpin(ctx)
					return
				}
				<-pinned
				a.Get(ctx, third) // either the old word or the home's: both are linearizable
			})
		} else {
			<-stalled
			a.Set(root, third, 9)
		}
		validateAll(t, c, a, root)
		if got := a.Get(root, third); got != 9 {
			t.Errorf("node %d reads %d after the home's write, want 9", n.ID(), got)
		}
		c.Barrier(root)
	})
}
