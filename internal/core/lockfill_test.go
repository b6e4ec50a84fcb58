package core

import (
	"testing"

	"darray/internal/cluster"
)

// A remote lock grant carries the element's chunk — with RW for a
// writer, Read for a reader — when the chunk is idle on the requester's
// node and lacks that permission, and the home can grant the lock on
// arrival; a request that queues has its fill declined at once. Every test here orders its events by
// waiting on observable state, never by sleeping, and runs under
// runBounded's 10 s bound, so a lost grant or a deadlock fails it.

// fillCounts reads the home's writer-fill and decline counters (element
// homes are node 0 in every test below).
func fillCounts(a *Array) (fills, declines int64) {
	m := &a.Instances()[0].Metrics
	return m.WriterFills.Load(), m.FillDeclines.Load()
}

// readerFills reads the home's reader-fill counter.
func readerFills(a *Array) int64 {
	return a.Instances()[0].Metrics.ReaderFills.Load()
}

// missesAndMsgs runs fn and reports the slow-path misses it took on ctx
// and the fabric messages the cluster sent meanwhile.
func missesAndMsgs(c *cluster.Cluster, ctx *cluster.Ctx, fn func()) (misses, msgs int64) {
	m0, s0 := ctx.Stats.Misses, msgsSent(c)
	fn()
	return ctx.Stats.Misses - m0, msgsSent(c) - s0
}

// An uncontended remote WLock is one lock-req and one combined reply,
// and the element is then read and written with no miss and no message.
func TestLockFillUncontendedWriter(t *testing.T) {
	const idx = 3 // homed on node 0
	c := tc(t, 2)
	runBounded(t, c, func(n *cluster.Node) {
		a := New(n, 2*64)
		ctx := n.NewCtx(0)
		c.Barrier(ctx)
		if n.ID() == 1 {
			if _, msgs := missesAndMsgs(c, ctx, func() { a.WLock(ctx, idx) }); msgs != 2 {
				t.Errorf("uncontended remote WLock sent %d messages, want 2 (lock-req, data-resp)", msgs)
			}
			if f, d := fillCounts(a); f != 1 || d != 0 {
				t.Errorf("fills %d declines %d, want 1 and 0", f, d)
			}
			misses, msgs := missesAndMsgs(c, ctx, func() {
				a.Set(ctx, idx, a.Get(ctx, idx)+5)
			})
			if misses != 0 || msgs != 0 {
				t.Errorf("Get+Set under a filled grant: %d misses, %d messages, want 0 and 0", misses, msgs)
			}
			a.Unlock(ctx, idx)
		}
		validateAll(t, c, a, ctx)
		if got := a.Get(ctx, idx); got != 5 {
			t.Errorf("node %d reads %d, want 5", n.ID(), got)
		}
		c.Barrier(ctx)
	})
}

// A writer whose node already holds the chunk Dirty asks for no fill:
// the grant is a plain lock-grant, and the home never sees its owner
// re-request ownership.
func TestLockFillRequesterAlreadyDirty(t *testing.T) {
	const idx = 3
	c := tc(t, 2)
	runBounded(t, c, func(n *cluster.Node) {
		a := New(n, 2*64)
		ctx := n.NewCtx(0)
		c.Barrier(ctx)
		if n.ID() == 1 {
			a.Set(ctx, idx+1, 9) // the chunk is Dirty here
			if _, msgs := missesAndMsgs(c, ctx, func() { a.WLock(ctx, idx) }); msgs != 2 {
				t.Errorf("WLock on a Dirty chunk sent %d messages, want 2 (lock-req, lock-grant)", msgs)
			}
			if f, d := fillCounts(a); f != 0 || d != 0 {
				t.Errorf("fills %d declines %d, want none", f, d)
			}
			if misses, _ := missesAndMsgs(c, ctx, func() { a.Set(ctx, idx, 1) }); misses != 0 {
				t.Errorf("Set on the Dirty chunk missed %d times", misses)
			}
			a.Unlock(ctx, idx)
		}
		validateAll(t, c, a, ctx)
		if got := a.Get(ctx, idx); got != 1 {
			t.Errorf("node %d reads %d, want 1", n.ID(), got)
		}
		c.Barrier(ctx)
	})
}

// A writer that finds the lock held is declined at once: the chunk is
// not pending on its node while it waits, another thread's miss on the
// chunk is served meanwhile, and its grant comes later as a plain one.
func TestLockFillContendedWriterDeclined(t *testing.T) {
	const idx = 3
	c := tc(t, 2)
	held := make(chan struct{})
	runBounded(t, c, func(n *cluster.Node) {
		a := New(n, 2*64)
		ctx := n.NewCtx(0)
		c.Barrier(ctx)
		switch n.ID() {
		case 0:
			a.WLock(ctx, idx)
			close(held)
			await(func() bool { _, d := fillCounts(a); return d == 1 })
			a.Set(ctx, idx, 2)
			a.Unlock(ctx, idx)
		case 1:
			<-held
			done := make(chan struct{})
			go func() {
				defer close(done)
				wctx := n.NewCtx(1)
				a.WLock(wctx, idx)
				a.Set(wctx, idx, a.Get(wctx, idx)*10)
				a.Unlock(wctx, idx)
			}()
			await(func() bool { _, d := fillCounts(a); return d == 1 })
			await(func() bool { return !a.snapshotViews()[0].pending })
			a.Get(ctx, idx+1) // a data miss on the chunk, while the lock is held elsewhere
			<-done
			if f, _ := fillCounts(a); f != 0 {
				t.Errorf("%d fills for a writer that queued, want 0", f)
			}
		}
		validateAll(t, c, a, ctx)
		if got := a.Get(ctx, idx); got != 20 {
			t.Errorf("node %d reads %d, want 20", n.ID(), got)
		}
		c.Barrier(ctx)
	})
}

// Thread C holds L2 and misses on chunk X; a fill for L1, an element of
// X, must not keep X pending on C's node while L1's holder H waits for
// L2. Were the fill queued behind H, C would wait for the fill, the fill
// for H and H for C.
func TestLockFillDeadlockFree(t *testing.T) {
	const l1, l2, x = 3, 64 + 5, 10 // l1 and x in chunk 0, l2 in chunk 1: all homed on node 0
	c := tc(t, 2)
	hHolds, cHolds := make(chan struct{}), make(chan struct{})
	runBounded(t, c, func(n *cluster.Node) {
		a := New(n, 2*2*64)
		ctx := n.NewCtx(0)
		home := a.Instances()[0]
		queued := func(idx int64, k int) func() bool {
			return func() bool { _, _, q := lockCounts(home, idx); return q == k }
		}
		c.Barrier(ctx)
		switch n.ID() {
		case 0: // H
			a.WLock(ctx, l1)
			close(hHolds)
			<-cHolds
			await(queued(l1, 1)) // W's request is in
			a.WLock(ctx, l2)     // waits for C
			a.Unlock(ctx, l2)
			a.Unlock(ctx, l1)
		case 1:
			<-hHolds
			a.WLock(ctx, l2) // C
			close(cHolds)
			done := make(chan struct{})
			go func() {
				defer close(done)
				wctx := n.NewCtx(1) // W
				a.WLock(wctx, l1)
				a.Set(wctx, l1, 1)
				a.Unlock(wctx, l1)
			}()
			await(queued(l1, 1))
			await(queued(l2, 1)) // H waits for C
			a.Get(ctx, x)        // C misses on chunk X
			a.Unlock(ctx, l2)
			<-done
		}
		validateAll(t, c, a, ctx)
		if got := a.Get(ctx, l1); got != 1 {
			t.Errorf("node %d reads %d, want 1", n.ID(), got)
		}
		c.Barrier(ctx)
	})
}

// The chunk is Dirty on a third node, then Operated, when the writer's
// grant is made: the grant's transaction recalls the owner or collapses
// the combiners first, and every node then reads what was written.
func TestLockFillThreeNodes(t *testing.T) {
	const idx, opIdx = 3, 5 // chunk 0, homed on node 0
	c := tc(t, 3)
	runBounded(t, c, func(n *cluster.Node) {
		a := New(n, 3*64)
		add := a.RegisterOp(OpAddU64)
		ctx := n.NewCtx(0)
		home := &a.Instances()[0].Metrics
		c.Barrier(ctx)

		if n.ID() == 2 {
			a.Set(ctx, idx, 7) // Dirty on node 2
		}
		c.Barrier(ctx)
		if n.ID() == 1 {
			recalls := home.Recalls.Load()
			a.WLock(ctx, idx)
			if r := home.Recalls.Load() - recalls; r != 1 {
				t.Errorf("filled grant from Dirty recalled %d times, want 1", r)
			}
			misses, _ := missesAndMsgs(c, ctx, func() {
				if v := a.Get(ctx, idx); v != 7 {
					t.Errorf("writer reads %d under its grant, want the owner's 7", v)
				}
				a.Set(ctx, idx, 8)
			})
			if misses != 0 {
				t.Errorf("writer missed %d times under a filled grant", misses)
			}
			a.Unlock(ctx, idx)
		}
		validateAll(t, c, a, ctx)
		if got := a.Get(ctx, idx); got != 8 {
			t.Errorf("node %d reads %d after the Dirty case, want 8", n.ID(), got)
		}
		validateAll(t, c, a, ctx)

		if n.ID() != 1 {
			a.Apply(ctx, add, opIdx, 1) // Operated at the home and on node 2
		}
		c.Barrier(ctx)
		if n.ID() == 1 {
			a.WLock(ctx, idx)
			misses, _ := missesAndMsgs(c, ctx, func() {
				if v := a.Get(ctx, opIdx); v != 2 {
					t.Errorf("writer reads %d under its grant, want the merged 2", v)
				}
				a.Set(ctx, opIdx, 12)
			})
			if misses != 0 {
				t.Errorf("writer missed %d times under a grant filled from Operated", misses)
			}
			a.Unlock(ctx, idx)
			if f, d := fillCounts(a); f != 2 || d != 0 {
				t.Errorf("fills %d declines %d, want 2 and 0", f, d)
			}
		}
		validateAll(t, c, a, ctx)
		if got := a.Get(ctx, opIdx); got != 12 {
			t.Errorf("node %d reads %d after the Operated case, want 12", n.ID(), got)
		}
		c.Barrier(ctx)
	})
}

// A writer on a lessee node with no reader inside returns the lease on
// its own lock-req and asks for the chunk on the same request: the lock
// is then free on arrival, so the grant is filled and no recall is sent.
// The lease's own grant was filled too, with the chunk readable: the
// writer's fill is the second, for RW.
func TestLockFillLesseeWriter(t *testing.T) {
	const idx = 7
	c := tc(t, 2)
	runBounded(t, c, func(n *cluster.Node) {
		a := New(n, 2*64)
		ctx := n.NewCtx(0)
		home := &a.Instances()[0].Metrics
		c.Barrier(ctx)
		if n.ID() == 1 {
			readPairs(a, ctx, idx, 2) // the first grant leases, the second pair is a hit
			settle(t, a)
			if !holdsLease(a, idx) {
				t.Error("no lease after the read run")
			}
			a.WLock(ctx, idx)
			if f, d := fillCounts(a); f != 1 || readerFills(a) != 1 || d != 0 {
				t.Errorf("reader fills %d writer fills %d declines %d, want 1, 1 and 0", readerFills(a), f, d)
			}
			if misses, _ := missesAndMsgs(c, ctx, func() { a.Set(ctx, idx, 4) }); misses != 0 {
				t.Errorf("Set under the filled grant missed %d times", misses)
			}
			a.Unlock(ctx, idx)
			settle(t, a)
			// One hit does not pay for a lease: it ends at the writer.
			if holdsLease(a, idx) || home.LeaseRecalls.Load() != 0 {
				t.Errorf("lease held %v, %d recalls, want returned on the lock-req and none", holdsLease(a, idx), home.LeaseRecalls.Load())
			}
		}
		validateAll(t, c, a, ctx)
		if got := a.Get(ctx, idx); got != 4 {
			t.Errorf("node %d reads %d, want 4", n.ID(), got)
		}
		c.Barrier(ctx)
	})
}

// A remote reader whose chunk is not readable asks for it on the lock-req:
// granted on arrival, the grant is one data-resp carrying the chunk and
// the lease, whose gate opens with the grantee inside, and the reader's
// bucket read then misses nothing. Queued behind a writer, the same
// request is declined at once and its grant is a plain lock-grant.
func TestLockFillReader(t *testing.T) {
	const idx, qidx = 3, 64 + 3 // chunks 0 and 1, both homed on node 0
	c := tc(t, 3)
	homeHolds, writerQueued := make(chan struct{}), make(chan struct{})
	runBounded(t, c, func(n *cluster.Node) {
		a := New(n, 3*2*64)
		ctx := n.NewCtx(0)
		home := a.Instances()[0]
		c.Barrier(ctx)
		if n.ID() == 1 {
			stats, homeStats := n.Endpoint().Stats(), c.Node(0).Endpoint().Stats()
			reads, resps := stats.KindCount(msgReadReq), homeStats.KindCount(msgDataResp)
			if _, msgs := missesAndMsgs(c, ctx, func() { a.RLock(ctx, idx) }); msgs != 2 {
				t.Errorf("remote RLock on an invalid chunk sent %d messages, want 2 (lock-req, data-resp)", msgs)
			}
			if d := homeStats.KindCount(msgDataResp) - resps; d != 1 {
				t.Errorf("%d data-resps, want the one grant", d)
			}
			if rf, f := readerFills(a), home.Metrics.LeaseGrants.Load(); rf != 1 || f != 1 {
				t.Errorf("reader fills %d lease grants %d, want 1 and 1", rf, f)
			}
			if w := a.gateOf(idx).word.Load(); w&gateOpen == 0 || gateCount(w) != 1 {
				t.Errorf("gate word %#x after a leased filled grant, want open with the grantee inside", w)
			}
			bucket := make([]uint64, 8)
			if misses, _ := missesAndMsgs(c, ctx, func() { a.GetRange(ctx, idx-3, bucket) }); misses != 0 {
				t.Errorf("bucket read under the filled grant missed %d times", misses)
			}
			if d := stats.KindCount(msgReadReq) - reads; d != 0 {
				t.Errorf("%d read-reqs, want none", d)
			}
			a.Unlock(ctx, idx)
		}
		c.Barrier(ctx)

		// Queued: the home reads, a writer waits for it, then the reader
		// comes. The home lets go only once the reader has queued too, so
		// the writer is still waiting when the reader's lock-req arrives.
		switch n.ID() {
		case 0:
			a.RLock(ctx, qidx)
			close(homeHolds)
			<-writerQueued
			await(func() bool { _, _, q := lockCounts(home, qidx); return q == 2 })
			a.Unlock(ctx, qidx)
		case 2:
			<-homeHolds
			done := make(chan struct{})
			go func() {
				defer close(done)
				wctx := n.NewCtx(1)
				a.WLock(wctx, qidx)
				a.Set(wctx, qidx, 6)
				a.Unlock(wctx, qidx)
			}()
			await(func() bool { _, _, q := lockCounts(home, qidx); return q == 1 })
			close(writerQueued)
			<-done
		case 1:
			<-writerQueued
			declines := home.Metrics.FillDeclines.Load()
			a.RLock(ctx, qidx)
			if d := home.Metrics.FillDeclines.Load() - declines; d != 1 {
				t.Errorf("%d fill declines for a reader queued behind a writer, want 1", d)
			}
			if rf := readerFills(a); rf != 1 {
				t.Errorf("reader fills %d, want still 1", rf)
			}
			if got := a.Get(ctx, qidx); got != 6 {
				t.Errorf("reader after the writer reads %d, want 6", got)
			}
			a.Unlock(ctx, qidx)
		}
		validateAll(t, c, a, ctx)
		c.Barrier(ctx)
	})
}

// A filled reader grant whose transaction waits — here the downgrade of
// a Dirty owner draining a pin — while a writer queues at the home: the
// grant leaves unleased. Its lease is decided as the chunk leaves, so no
// lease-recall can overtake it; leased when the table granted the lock,
// the writer's recall would reach the reader's node before the grant,
// find no lease and be dropped, and the writer would wait for good.
func TestLockFillReaderWriterQueuesDuringTransaction(t *testing.T) {
	const idx = 3 // chunk 0, homed on node 0
	c := tc(t, 3)
	pinned, draining, queued := make(chan struct{}), make(chan struct{}), make(chan struct{})
	runBounded(t, c, func(n *cluster.Node) {
		a := New(n, 3*64)
		ctx := n.NewCtx(0)
		home := a.Instances()[0]
		c.Barrier(ctx)
		switch n.ID() {
		case 2:
			p := a.PinWrite(ctx, idx+1) // Dirty here, and pinned
			close(pinned)
			await(func() bool { return a.Metrics.RefDrainStalls.Load() > 0 })
			close(draining)
			<-queued
			p.Unpin(ctx)
		case 1:
			<-pinned
			a.RLock(ctx, idx) // filled: the home downgrades node 2 for it
			if rf, g := readerFills(a), home.Metrics.LeaseGrants.Load(); rf != 1 || g != 0 {
				t.Errorf("reader fills %d lease grants %d, want 1 and 0: a writer was queued when the chunk left", rf, g)
			}
			a.Unlock(ctx, idx)
		case 0:
			<-draining
			done := make(chan struct{})
			go func() {
				defer close(done)
				wctx := n.NewCtx(1)
				a.WLock(wctx, idx)
				a.Set(wctx, idx, 5)
				a.Unlock(wctx, idx)
			}()
			await(func() bool { _, _, q := lockCounts(home, idx); return q == 1 })
			close(queued)
			<-done
		}
		validateAll(t, c, a, ctx)
		if got := a.Get(ctx, idx); got != 5 {
			t.Errorf("node %d reads %d, want 5", n.ID(), got)
		}
		c.Barrier(ctx)
	})
}
