package core

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"darray/internal/cluster"
)

// settle waits until every lock table is at rest and consistent across
// nodes. Unlock is asynchronous, so the last releases may still be on
// the wire when the threads that sent them reach a barrier. Call it from
// one goroutine while no thread is inside a lock operation; it reports
// with Errorf because that goroutine is a node's, not the test's.
func settle(t *testing.T, a *Array) {
	t.Helper()
	var err error
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if err = ValidateQuiesced(a.Instances()); err == nil {
			return
		}
	}
	t.Errorf("lock tables did not settle: %v", err)
}

// msgsSent is the cluster-wide count of fabric messages sent so far.
func msgsSent(c *cluster.Cluster) int64 {
	var n int64
	for v := 0; v < c.Nodes(); v++ {
		n += c.Node(v).Endpoint().Stats().MsgsSent.Load()
	}
	return n
}

// holdsLease reports whether a's node has a lease on element idx.
func holdsLease(a *Array, idx int64) bool {
	return a.snapshotLocks().leases[idx]
}

// readPairs takes and drops element idx's read lock k times.
func readPairs(a *Array, ctx *cluster.Ctx, idx int64, k int) {
	for ; k > 0; k-- {
		a.RLock(ctx, idx)
		a.Unlock(ctx, idx)
	}
}

// waitFor polls an atomic counter other goroutines advance.
func waitFor(t *testing.T, what string, v *atomic.Int64, want int64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); v.Load() < want; time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Errorf("timed out waiting for %s >= %d (at %d)", what, want, v.Load())
			return
		}
	}
}

func TestLeasePolicy(t *testing.T) {
	var o lockObs
	for k := 1; k < leaseRunMin; k++ {
		o.readerGrant()
		if o.leasable() {
			t.Fatalf("leasable after %d reader grants, want %d", k, leaseRunMin)
		}
	}
	o.readerGrant()
	if !o.leasable() {
		t.Fatalf("not leasable after %d reader grants", leaseRunMin)
	}
	o.writerGrant()
	if o.leasable() {
		t.Fatal("leasable right after a writer grant")
	}
	// Leases that return without paying double the requirement up to the
	// ceiling; paying ones halve it back down to the floor.
	for want := int32(2 * leaseRunMin); want <= leaseRunMax; want *= 2 {
		o.returned(leasePayoff - 1)
		if o.required() != want {
			t.Fatalf("required = %d after a poor lease, want %d", o.required(), want)
		}
	}
	o.returned(0)
	if o.required() != leaseRunMax {
		t.Fatalf("required = %d, want the ceiling %d", o.required(), leaseRunMax)
	}
	for k := int32(0); k < leaseRunMax; k++ {
		o.readerGrant()
	}
	if !o.leasable() {
		t.Fatal("a run at the ceiling must still lease: back-off may not disable leasing for good")
	}
	for want := int32(leaseRunMax / 2); want >= leaseRunMin; want /= 2 {
		o.returned(leasePayoff)
		if o.required() != want {
			t.Fatalf("required = %d after a paying lease, want %d", o.required(), want)
		}
	}
	o.returned(100)
	if o.required() != leaseRunMin {
		t.Fatalf("required = %d, want the floor %d", o.required(), leaseRunMin)
	}
}

// The home leases only once the chunk has shown the read run, and from
// then on the lessee's RLock/Unlock pairs send nothing.
func TestLeaseGrantedAfterReadRunThenHitsStayLocal(t *testing.T) {
	const idx, pairs = 3, 100
	c := tc(t, 2)
	c.Run(func(n *cluster.Node) {
		a := New(n, 2*64) // element 3 is homed on node 0
		ctx := n.NewCtx(0)
		home := &a.Instances()[0].Metrics
		c.Barrier(ctx)
		if n.ID() == 1 {
			readPairs(a, ctx, idx, leaseRunMin-1)
			if g := home.LeaseGrants.Load(); g != 0 {
				t.Errorf("%d leases granted after %d reader grants, want none before %d", g, leaseRunMin-1, leaseRunMin)
			}
			if holdsLease(a, idx) {
				t.Error("lessee table has an entry before the read run completed")
			}
			readPairs(a, ctx, idx, 1)
			if g := home.LeaseGrants.Load(); g != 1 {
				t.Errorf("%d leases granted by reader grant %d, want 1", g, leaseRunMin)
			}
			settle(t, a) // the unleased readers' unlocks have landed; the masks agree
			if !holdsLease(a, idx) {
				t.Error("no lease entry after the leasing grant")
			}
			before := msgsSent(c)
			readPairs(a, ctx, idx, pairs)
			settle(t, a)
			if d := msgsSent(c) - before; d != 0 {
				t.Errorf("%d lease-hit pairs sent %d fabric messages, want 0", pairs, d)
			}
			if h := a.Metrics.LeaseHits.Load(); h != pairs {
				t.Errorf("lease hits = %d, want %d", h, pairs)
			}
		}
		c.Barrier(ctx)
	})
}

// A writer at the home recalls the lease and is granted only after the
// reader that was inside under it has left.
func TestLeaseRecalledByHomeWriter(t *testing.T) {
	const idx = 5
	c := tc(t, 2)
	var guarded int // plain: the race detector checks the lock orders the accesses
	var readerIn atomic.Bool
	c.Run(func(n *cluster.Node) {
		a := New(n, 2*64)
		ctx := n.NewCtx(0)
		home := &a.Instances()[0].Metrics
		c.Barrier(ctx)
		if n.ID() == 1 {
			readPairs(a, ctx, idx, leaseRunMin)
			a.RLock(ctx, idx) // a lease hit
			readerIn.Store(true)
		}
		c.Barrier(ctx)
		switch n.ID() {
		case 0:
			a.WLock(ctx, idx)
			if readerIn.Load() {
				t.Error("writer granted while a lease reader was inside")
			}
			guarded++
			a.Unlock(ctx, idx)
		case 1:
			// Stay inside until the home has sent the recall, so the writer
			// is provably queued behind this read section.
			waitFor(t, "lease recalls", &home.LeaseRecalls, 1)
			if guarded != 0 {
				t.Error("reader saw the writer's update from inside its section")
			}
			readerIn.Store(false)
			a.Unlock(ctx, idx)
		}
		c.Barrier(ctx)
		if n.ID() == 0 {
			settle(t, a)
			if holdsLease(a.Instances()[1], idx) {
				t.Error("lessee kept its entry after the recall")
			}
			if g, r := home.LeaseGrants.Load(), home.LeaseRecalls.Load(); g != 1 || r != 1 {
				t.Errorf("grants %d recalls %d, want 1 and 1", g, r)
			}
		}
		c.Barrier(ctx)
	})
}

// A writer on the lessee node returns the lease on its own lock-req when
// no reader is inside (no recall message), and waits for the home's
// recall to drain the node's readers when one is.
func TestLeaseReturnedByLesseeWriter(t *testing.T) {
	const idx = 7
	c := tc(t, 2)
	var guarded int
	var readerIn atomic.Bool
	c.Run(func(n *cluster.Node) {
		a := New(n, 2*64)
		ctx := n.NewCtx(0)
		home := &a.Instances()[0].Metrics
		c.Barrier(ctx)
		if n.ID() == 1 {
			// No reader inside: the lock-req carries the lease back.
			readPairs(a, ctx, idx, leaseRunMin+3)
			settle(t, a)
			if !holdsLease(a, idx) {
				t.Error("no lease after the read run")
			}
			a.WLock(ctx, idx)
			guarded++
			if holdsLease(a, idx) {
				t.Error("lessee kept its entry while its own writer holds the lock")
			}
			a.Unlock(ctx, idx)
			settle(t, a)
			if r := home.LeaseRecalls.Load(); r != 0 {
				t.Errorf("%d recall messages for a lease its own node's writer returned, want 0", r)
			}

			// A reader inside: the writer's request goes home, the home
			// recalls this node, and the grant waits for the reader.
			readPairs(a, ctx, idx, leaseRunMin)
			settle(t, a)
			if !holdsLease(a, idx) {
				t.Error("no lease after the second read run")
			}
			var wg sync.WaitGroup
			wg.Add(1)
			a.RLock(ctx, idx)
			readerIn.Store(true)
			go func() {
				defer wg.Done()
				wctx := n.NewCtx(1)
				a.WLock(wctx, idx)
				if readerIn.Load() {
					t.Error("lessee-node writer granted while a lease reader was inside")
				}
				guarded++
				a.Unlock(wctx, idx)
			}()
			waitFor(t, "lease recalls", &home.LeaseRecalls, 1)
			if guarded != 1 {
				t.Errorf("guarded = %d inside the read section, want 1", guarded)
			}
			readerIn.Store(false)
			a.Unlock(ctx, idx)
			wg.Wait()
			settle(t, a)
			if guarded != 2 {
				t.Errorf("guarded = %d, want 2", guarded)
			}
		}
		c.Barrier(ctx)
	})
}

// Readers streaming through a lease cannot starve a writer: the recall
// stops the lessee admitting them, and those that follow queue behind
// the writer at the home.
func TestLeaseWriterNotStarved(t *testing.T) {
	const idx, readers = 9, 3
	c := tc(t, 2)
	var stop atomic.Bool
	c.Run(func(n *cluster.Node) {
		a := New(n, 2*64)
		ctx := n.NewCtx(0)
		c.Barrier(ctx)
		switch n.ID() {
		case 0:
			// Wait until the readers are streaming lease hits.
			waitFor(t, "lease hits", &a.Instances()[1].Metrics.LeaseHits, 200)
			a.WLock(ctx, idx)
			stop.Store(true)
			a.Unlock(ctx, idx)
		case 1:
			n.RunThreads(readers, func(ctx *cluster.Ctx) {
				for !stop.Load() {
					a.RLock(ctx, idx)
					runtime.Gosched() // overlap the sections so the lease is rarely empty
					a.Unlock(ctx, idx)
				}
			})
		}
		c.Barrier(ctx)
		if n.ID() == 0 {
			settle(t, a)
		}
		c.Barrier(ctx)
	})
}

// Under an even read/write mix the policy stops leasing: each lease
// comes back having served next to nothing, and the required run doubles
// out of the mix's reach.
func TestLeaseBacksOffUnderEvenMix(t *testing.T) {
	const ops = 4000
	c := tc(t, 2)
	c.Run(func(n *cluster.Node) {
		a := New(n, 2*64)
		ctx := n.NewCtx(0)
		c.Barrier(ctx)
		if n.ID() == 1 {
			// One thread, so the home sees exactly this sequence. Eight
			// elements of one chunk share the chunk's record.
			rng := rand.New(rand.NewSource(1))
			for k := 0; k < ops; k++ {
				idx := int64(rng.Intn(8))
				if rng.Intn(2) == 0 {
					a.RLock(ctx, idx)
				} else {
					a.WLock(ctx, idx)
				}
				a.Unlock(ctx, idx)
			}
			settle(t, a)
			// Without back-off a run of leaseRunMin reads, and so a lease,
			// comes about every 2^leaseRunMin ops: ~250 here.
			grants := a.Instances()[0].Metrics.LeaseGrants.Load()
			if grants > 16 {
				t.Errorf("%d leases granted over %d ops of a 50/50 mix: the policy ping-pongs", grants, ops)
			}
			t.Logf("50/50 mix: %d leases over %d ops, %d hits", grants, ops, a.Metrics.LeaseHits.Load())
		}
		c.Barrier(ctx)
	})
}

// Mixed RLock/WLock from three nodes guard plain counters; the race
// detector and the counters' totals check that no writer ever coexists
// with a reader or another writer, leases and recalls included.
func TestLeaseStress(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 4 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	}
	const nodes, threads, ops, elems = 3, 2, 400, 6
	c := tc(t, nodes)
	var guarded [elems]int // plain on purpose
	var wrote [elems]atomic.Int64
	c.Run(func(n *cluster.Node) {
		a := New(n, nodes*64)
		root := n.NewCtx(0)
		c.Barrier(root)
		n.RunThreads(threads, func(ctx *cluster.Ctx) {
			rng := rand.New(rand.NewSource(int64(n.ID()*threads + ctx.TID + 1)))
			for k := 0; k < ops; k++ {
				e := rng.Intn(elems)
				idx := int64(e%nodes)*64 + int64(e) // two elements per home
				if rng.Intn(10) < 8 {
					a.RLock(ctx, idx)
					v := guarded[e]
					runtime.Gosched()
					if guarded[e] != v {
						t.Errorf("element %d changed under a read lock", e)
					}
				} else {
					a.WLock(ctx, idx)
					guarded[e]++
					wrote[e].Add(1)
				}
				a.Unlock(ctx, idx)
			}
		})
		c.Barrier(root)
		if n.ID() == 0 {
			settle(t, a)
			var grants, hits, recalls int64
			for _, inst := range a.Instances() {
				grants += inst.Metrics.LeaseGrants.Load()
				hits += inst.Metrics.LeaseHits.Load()
				recalls += inst.Metrics.LeaseRecalls.Load()
			}
			if grants == 0 || hits == 0 || recalls == 0 {
				t.Errorf("stress did not exercise leases: %d grants, %d hits, %d recalls", grants, hits, recalls)
			}
			for e := range guarded {
				if int64(guarded[e]) != wrote[e].Load() {
					t.Errorf("element %d: counter %d after %d write sections", e, guarded[e], wrote[e].Load())
				}
			}
		}
		c.Barrier(root)
	})
}
