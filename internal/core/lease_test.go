package core

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"darray/internal/cluster"
	"darray/internal/vtime"
)

// settle waits until every lock table is at rest and consistent across
// nodes (AwaitQuiesced). It reports with Errorf because the calling
// goroutine is a node's, not the test's.
func settle(t *testing.T, a *Array) {
	t.Helper()
	if err := AwaitQuiesced(a.Instances()); err != nil {
		t.Errorf("lock tables did not settle: %v", err)
	}
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

// leaseOf reads a's node's lease record of element idx from the runtime
// goroutine that owns it: whether there is one, and whether a local
// writer has it suspended.
func leaseOf(a *Array, idx int64) (held, suspended bool) {
	done := make(chan struct{})
	a.rtOf(idx / a.sh.chunkWords).Submit(func(rt *cluster.Runtime) {
		defer close(done)
		if le := a.rstate(rt).leases[idx]; le != nil {
			held, suspended = true, le.suspended
		}
	})
	<-done
	return held, suspended
}

// readPairs takes and drops element idx's read lock k times.
func readPairs(a *Array, ctx *cluster.Ctx, idx int64, k int) {
	for ; k > 0; k-- {
		a.RLock(ctx, idx)
		a.Unlock(ctx, idx)
	}
}

// waitFor polls a counter other goroutines advance.
func waitFor(t *testing.T, what string, get func() int64, want int64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); get() < want; time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Errorf("timed out waiting for %s >= %d (at %d)", what, want, get())
			return
		}
	}
}

// leaseHits is the RLocks a's node has served under a lease.
func leaseHits(a *Array) int64 {
	_, leased := a.GateHits()
	return leased
}

// localServed is how many local requests node n's runtime goroutines have
// run: what its application threads have put on the local-request queues.
func localServed(n *cluster.Node) int64 {
	var sum int64
	for r := 0; r < n.Runtimes(); r++ {
		sum += n.Runtime(r).LocalServed()
	}
	return sum
}

// lockCounts reads element idx's lock on a's node from the runtime
// goroutine that owns it: the readers inside the gate, and — at the home —
// the readers the lock table counts and the requests it has queued.
func lockCounts(a *Array, idx int64) (inGate int64, inTable, queued int) {
	done := make(chan struct{})
	a.rtOf(idx / a.sh.chunkWords).Submit(func(rt *cluster.Runtime) {
		defer close(done)
		if g := a.gateOf(idx); g != nil {
			inGate = gateCount(g.word.Load())
		}
		if ls := a.rstate(rt).locks[idx]; ls != nil {
			inTable, queued = ls.readers, len(ls.queue)
		}
	})
	<-done
	return inGate, inTable, queued
}

// withModel gives a test cluster the default cost model, so clocks move.
func withModel(cfg *cluster.Config) { cfg.Model = vtime.Default() }

// The gate word's transitions, one goroutine: open, admit, shut, drain,
// and the single last-out report.
func TestGateWord(t *testing.T) {
	var g gate
	if g.admit() {
		t.Fatal("a gate that was never opened admitted a reader")
	}
	if left, _ := g.leave(1); left || g.word.Load() != 0 || g.freeVT.Load() != 0 {
		t.Fatalf("leave on an empty gate: left %v, word %#x, freeVT %d", left, g.word.Load(), g.freeVT.Load())
	}

	g.open(10, 0)
	for k := 1; k <= 3; k++ {
		if !g.admit() {
			t.Fatalf("open gate refused reader %d", k)
		}
	}
	if w := g.word.Load(); w&gateOpen == 0 || gateCount(w) != 3 || gateHits(w) != 3 || g.sinceVT.Load() != 10 {
		t.Fatalf("after 3 admits: word %#x (count %d, hits %d), sinceVT %d", w, gateCount(w), gateHits(w), g.sinceVT.Load())
	}
	if g.open(99, 5); g.sinceVT.Load() != 10 || gateCount(g.word.Load()) != 3 {
		t.Fatalf("opening an open gate changed it: sinceVT %d, count %d", g.sinceVT.Load(), gateCount(g.word.Load()))
	}
	if _, ok := g.shut(true); ok || g.word.Load()&gateOpen == 0 {
		t.Fatal("shut(ifEmpty) shut a gate with readers inside")
	}
	if left, last := g.leave(40); !left || last {
		t.Fatalf("leave from an open gate: left %v last %v", left, last)
	}
	if !g.admit() { // back to 3 inside, 4 hits
		t.Fatal("open gate refused a reader after a leave")
	}

	w, ok := g.shut(false)
	if !ok || w&gateOpen == 0 || gateCount(w) != 3 {
		t.Fatalf("shut returned word %#x ok %v, want the open word with 3 inside", w, ok)
	}
	before := g.word.Load()
	if g.admit() || g.word.Load() != before {
		t.Fatalf("admit on a shut gate: word %#x -> %#x", before, g.word.Load())
	}
	if w, ok := g.shut(false); !ok || w != before {
		t.Fatalf("shutting a shut gate: word %#x ok %v, want %#x unchanged", w, ok, before)
	}
	lasts := 0
	for k, vt := range []int64{70, 50, 60} {
		left, last := g.leave(vt)
		if !left {
			t.Fatalf("leave %d from a draining gate did nothing", k)
		}
		if last {
			lasts++
			if k != 2 {
				t.Fatalf("leave %d of 3 reported last", k)
			}
		}
	}
	if lasts != 1 {
		t.Fatalf("%d last-out reports from one drain, want exactly 1", lasts)
	}
	if left, last := g.leave(80); left || last {
		t.Fatal("leave on a drained gate did something")
	}
	if f := g.freeVT.Load(); f != 70 {
		t.Fatalf("freeVT = %d, want the latest release 70", f)
	}
	if w := g.word.Load(); w&gateOpen != 0 || gateCount(w) != 0 || gateHits(w) != 4 {
		t.Fatalf("drained gate: word %#x, want shut, empty, 4 hits kept", w)
	}

	// The runtime takes the hits once the opening is over; reopening starts
	// from the readers given.
	if hits := g.takeHits(); hits != 4 || g.word.Load() != 0 {
		t.Fatalf("takeHits = %d leaving word %#x, want 4 and an empty word", hits, g.word.Load())
	}
	g.open(100, 1)
	if w := g.word.Load(); w&gateOpen == 0 || gateCount(w) != 1 || gateHits(w) != 0 || g.sinceVT.Load() != 100 {
		t.Fatalf("reopened gate: word %#x, sinceVT %d", w, g.sinceVT.Load())
	}
	if left, last := g.leave(110); !left || last {
		t.Fatalf("last reader out of an open gate: left %v last %v, want no report", left, last)
	}
	if _, ok := g.shut(true); !ok || g.word.Load()&gateOpen != 0 {
		t.Fatal("shut(ifEmpty) left an empty gate open")
	}

	// Hits saturate instead of carrying into the open bit.
	g.word.Store(gateOpen | gateHitMax<<gateHitShift)
	if !g.admit() {
		t.Fatal("saturated gate refused a reader")
	}
	if w := g.word.Load(); w&gateOpen == 0 || gateHits(w) != gateHitMax || gateCount(w) != 1 {
		t.Fatalf("saturated gate after admit: word %#x", w)
	}
}

func TestLeasePolicy(t *testing.T) {
	var o lockObs
	o.writerGrant()
	if o.leasable(0) {
		t.Fatal("leasable right after a writer grant, before any reader grant")
	}
	// The floor is the grant being made: the first reader grant after a
	// writer's leases.
	o.readerGrant()
	if o.required() != 1 || !o.leasable(0) {
		t.Fatalf("required = %d, leasable %v at the first reader grant, want 1 and true", o.required(), o.leasable(0))
	}
	// Leases that return without paying double the requirement up to the
	// ceiling; paying ones halve it back down to the floor.
	for want := int32(2); want <= leaseRunMax; want *= 2 {
		o.returned(leasePayoff - 1)
		if o.required() != want {
			t.Fatalf("required = %d after a poor lease, want %d", o.required(), want)
		}
	}
	// Once backed off, the run counts again from the last writer grant, and
	// readers through the home's gate extend it.
	o.writerGrant()
	for k := int32(1); k < leaseRunMax; k++ {
		o.readerGrant()
		if o.leasable(0) {
			t.Fatalf("leasable after %d reader grants, want %d", k, leaseRunMax)
		}
	}
	if !o.leasable(1) {
		t.Fatalf("not leasable after %d reader grants and one through the home's gate", leaseRunMax-1)
	}
	o.returned(0)
	if o.required() != leaseRunMax {
		t.Fatalf("required = %d, want the ceiling %d", o.required(), leaseRunMax)
	}
	for k := int32(0); k < leaseRunMax; k++ {
		o.readerGrant()
	}
	if !o.leasable(0) {
		t.Fatal("a run at the ceiling must still lease: back-off may not disable leasing for good")
	}
	for want := int32(leaseRunMax / 2); want >= 1; want /= 2 {
		o.returned(leasePayoff)
		if o.required() != want {
			t.Fatalf("required = %d after a paying lease, want %d", o.required(), want)
		}
	}
	o.returned(100)
	if o.required() != 1 {
		t.Fatalf("required = %d, want the floor 1", o.required())
	}
}

// The home leases at the first remote reader grant, and from then on the
// lessee's RLock/Unlock pairs send nothing and submit nothing: neither
// the fabric nor the node's own runtime goroutines see them. The same
// holds at the home once a first reader has opened the gate.
func TestLeaseGrantedAtFirstReaderGrantThenHitsStayLocal(t *testing.T) {
	const idx, pairs = 3, 1000
	c := tc(t, 2)
	c.Run(func(n *cluster.Node) {
		a := New(n, 2*64) // element 3 is homed on node 0
		ctx := n.NewCtx(0)
		home := &a.Instances()[0].Metrics
		c.Barrier(ctx)
		if n.ID() == 1 {
			if holdsLease(a, idx) {
				t.Error("lessee table has an entry before any reader grant")
			}
			readPairs(a, ctx, idx, 1)
			if g := home.LeaseGrants.Load(); g != 1 {
				t.Errorf("%d leases granted by the first reader grant, want 1", g)
			}
			settle(t, a) // the lessee and the home agree on the masks
			if !holdsLease(a, idx) {
				t.Error("no lease entry after the leasing grant")
			}
			before, served := msgsSent(c), localServed(n)
			readPairs(a, ctx, idx, pairs)
			if d := localServed(n) - served; d != 0 {
				t.Errorf("%d lease-hit pairs put %d requests on the runtime's local queue, want 0", pairs, d)
			}
			settle(t, a)
			if d := msgsSent(c) - before; d != 0 {
				t.Errorf("%d lease-hit pairs sent %d fabric messages, want 0", pairs, d)
			}
			if h := leaseHits(a); h != pairs {
				t.Errorf("lease hits = %d, want %d", h, pairs)
			}
		}
		c.Barrier(ctx)
		if n.ID() == 0 {
			// At the home the first pair goes through the table and opens the
			// gate (the lessee's lease does not close it: only a writer does).
			readPairs(a, ctx, idx, 1)
			settle(t, a)
			before, served := msgsSent(c), localServed(n)
			hits, leased := a.GateHits()
			readPairs(a, ctx, idx, pairs)
			if d := localServed(n) - served; d != 0 {
				t.Errorf("%d home-local pairs put %d requests on the runtime's local queue, want 0", pairs, d)
			}
			if d := msgsSent(c) - before; d != 0 {
				t.Errorf("%d home-local pairs sent %d fabric messages, want 0", pairs, d)
			}
			if h, l := a.GateHits(); h-hits != pairs || l != leased {
				t.Errorf("home gate hits +%d (leased +%d), want +%d and none leased", h-hits, l-leased, pairs)
			}
			settle(t, a)
		}
		c.Barrier(ctx)
	})
}

// A writer that arrives while k readers are inside the home's gate is
// granted only after all k have left, and the runtime hears about the
// drain once: from the last one out.
func TestGateWriterWaitsForFastReaders(t *testing.T) {
	const idx, k = 6, 3
	c := tc(t, 2)
	var inside, leaveNow sync.WaitGroup
	var granted atomic.Bool
	var leaving, left atomic.Int32 // readers that have begun, and finished, their Unlock
	inside.Add(k)
	leaveNow.Add(1)
	c.Run(func(n *cluster.Node) {
		a := New(n, 2*64) // element 6 is homed on node 0
		ctx := n.NewCtx(0)
		home := &a.Instances()[0].Metrics
		c.Barrier(ctx)
		switch n.ID() {
		case 0:
			readPairs(a, ctx, idx, 1) // opens the gate
			settle(t, a)
			served := localServed(n)
			var readers sync.WaitGroup
			for tid := 1; tid <= k; tid++ {
				readers.Add(1)
				go func(rctx *cluster.Ctx) {
					defer readers.Done()
					a.RLock(rctx, idx)
					inside.Done()
					leaveNow.Wait()
					// Leave one at a time, so "the last one" is well defined.
					for int(left.Load()) != rctx.TID-1 {
						runtime.Gosched()
					}
					if rctx.TID == k {
						if granted.Load() {
							t.Error("writer granted while a gate reader was still inside")
						}
						if d := home.GateDrains.Load(); d != 0 {
							t.Errorf("%d drain reports before the last reader left, want 0", d)
						}
					}
					leaving.Add(1)
					a.Unlock(rctx, idx)
					left.Add(1)
				}(n.NewCtx(tid))
			}
			inside.Wait()
			if d := localServed(n) - served; d != 0 {
				t.Errorf("%d gate admissions submitted %d local requests, want 0", k, d)
			}
			if in, _, _ := lockCounts(a, idx); in != k {
				t.Errorf("gate holds %d readers, want %d", in, k)
			}
			c.Barrier(ctx) // readers are inside: the writer may go
			waitFor(t, "gate closes", home.GateCloses.Load, 1)
			if _, _, q := lockCounts(a, idx); q != 1 {
				t.Errorf("%d requests queued at the home, want the writer", q)
			}
			leaveNow.Done()
			readers.Wait()
		case 1:
			c.Barrier(ctx)
			a.WLock(ctx, idx)
			granted.Store(true)
			if l := leaving.Load(); l != k {
				t.Errorf("writer granted when only %d of %d gate readers had gone", l, k)
			}
			a.Unlock(ctx, idx)
		}
		c.Barrier(ctx)
		if n.ID() == 0 {
			settle(t, a)
			if cl, dr := home.GateCloses.Load(), home.GateDrains.Load(); cl != 1 || dr != 1 {
				t.Errorf("gate closes %d drains %d, want 1 and 1", cl, dr)
			}
		}
		c.Barrier(ctx)
	})
}

// Readers that came through the table and readers that came through the
// gate are interchangeable: whichever order they unlock in, the gate's
// count plus the table's always equals the threads inside.
func TestGateMixedReadersConserveCount(t *testing.T) {
	const idx = 2
	c := tc(t, 2)
	c.Run(func(n *cluster.Node) {
		a := New(n, 4*64) // chunks 0 and 1 are homed on node 0
		ctx := n.NewCtx(0)
		c.Barrier(ctx)
		if n.ID() == 0 {
			ctxs := []*cluster.Ctx{ctx, n.NewCtx(1), n.NewCtx(2)}
			check := func(when string, inside int64, wantGate int64) {
				t.Helper()
				g, tb, _ := lockCounts(a, idx)
				if g+int64(tb) != inside || g != wantGate {
					t.Errorf("%s: gate %d + table %d, want %d inside with %d in the gate", when, g, tb, inside, wantGate)
				}
			}
			// Thread 0 finds the gate shut and is admitted by the table, which
			// opens the gate; threads 1 and 2 come in through it.
			for _, rctx := range ctxs {
				a.RLock(rctx, idx)
			}
			check("three inside", 3, 2)
			// The table's reader leaves first and consumes a gate reader.
			a.Unlock(ctxs[0], idx)
			check("after the table reader's unlock", 2, 1)
			a.Unlock(ctxs[1], idx)
			check("after a gate reader's unlock", 1, 0)
			// The last one finds the gate empty and releases the table's grant.
			a.Unlock(ctxs[2], idx)
			settle(t, a)
			check("all out", 0, 0)
			// Interleaved with a fourth admission in the middle.
			a.RLock(ctxs[0], idx)
			a.RLock(ctxs[1], idx)
			a.Unlock(ctxs[0], idx)
			a.RLock(ctxs[2], idx)
			check("two inside after an interleaved leave", 2, 2)
			a.Unlock(ctxs[2], idx)
			a.Unlock(ctxs[1], idx)
			settle(t, a)
			check("all out again", 0, 0)
		}
		c.Barrier(ctx)
		if n.ID() == 1 {
			// On a lessee: an unleased reader is inside when the lease arrives,
			// and the home's count for the node plus the node's gate is the
			// threads inside throughout.
			const ridx = 64 + 2 // chunk 1: a read run of its own
			homeInst := a.Instances()[0]
			homeReaders := func() int64 {
				_, tb, _ := lockCounts(homeInst, ridx)
				return int64(tb)
			}
			counts := func() (int64, int64) {
				g, _, _ := lockCounts(a, ridx)
				return g, homeReaders()
			}
			held := n.NewCtx(1)
			// A lease that comes back unpaid makes the chunk show a read run
			// of two before its next one: the first reader grant after it
			// is unleased, the second leases.
			readPairs(a, ctx, ridx, 1) // leased at the first grant, no hit
			a.WLock(ctx, ridx)         // returns it unpaid on the lock-req
			a.Unlock(ctx, ridx)
			a.RLock(held, ridx) // unleased: counted at the home
			readPairs(a, ctx, ridx, 1)
			if !holdsLease(a, ridx) {
				t.Error("no lease after the read run")
			}
			// Unlocks are asynchronous: let them land, so the home counts
			// only the reader still inside.
			waitFor(t, "unleased unlocks to land", func() int64 {
				if homeReaders() > 1 {
					return 0
				}
				return 1
			}, 1)
			a.RLock(ctx, ridx) // through the lease's gate
			if g, tb := counts(); g != 1 || tb != 1 {
				t.Errorf("lessee gate %d + home table %d, want 1 + 1", g, tb)
			}
			a.Unlock(held, ridx) // the unleased reader consumes the gate's
			if g, tb := counts(); g != 0 || tb != 1 {
				t.Errorf("after the unleased reader left: gate %d + table %d, want 0 + 1", g, tb)
			}
			a.Unlock(ctx, ridx) // and the gate reader releases the home's grant
			settle(t, a)
			if g, tb := counts(); g != 0 || tb != 0 {
				t.Errorf("all out: gate %d + table %d, want 0 + 0", g, tb)
			}
		}
		c.Barrier(ctx)
	})
}

// Virtual time chains through the gate in both directions: a reader the
// gate admits after a writer's release starts no earlier than it, and a
// writer starts no earlier than the latest release through the gate.
func TestGateVirtualTimeCausality(t *testing.T) {
	const idx = 4
	c := tc(t, 2, withModel)
	c.Run(func(n *cluster.Node) {
		a := New(n, 2*64) // element 4 is homed on node 0
		ctx := n.NewCtx(0)
		c.Barrier(ctx)
		if n.ID() == 0 {
			w, r1, r2, w2 := ctx, n.NewCtx(1), n.NewCtx(2), n.NewCtx(3)
			w.Clock.AdvanceTo(1_000_000)
			a.WLock(w, idx)
			done := make(chan struct{})
			go func() {
				defer close(done)
				a.RLock(r1, idx) // queues behind the writer
			}()
			for {
				if _, _, q := lockCounts(a, idx); q == 1 {
					break
				}
				runtime.Gosched()
			}
			released := w.Clock.Now()
			a.Unlock(w, idx)
			<-done
			if r1.Clock.Now() < released {
				t.Errorf("queued reader granted at %d, before the writer's release at %d", r1.Clock.Now(), released)
			}
			// r1's grant opened the gate; r2 comes through it from clock 0.
			served := localServed(n)
			a.RLock(r2, idx)
			if d := localServed(n) - served; d != 0 {
				t.Errorf("second reader went through the runtime (%d local requests)", d)
			}
			if r2.Clock.Now() < released {
				t.Errorf("gate reader admitted at %d, before the writer's release at %d", r2.Clock.Now(), released)
			}
			// r2 leaves through the gate late; the next writer follows it.
			r2.Clock.AdvanceTo(5_000_000)
			a.Unlock(r2, idx)
			gateRelease := r2.Clock.Now()
			a.Unlock(r1, idx)
			a.WLock(w2, idx)
			if w2.Clock.Now() < gateRelease {
				t.Errorf("writer granted at %d, before the gate release at %d", w2.Clock.Now(), gateRelease)
			}
			a.Unlock(w2, idx)
			settle(t, a)
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
			readPairs(a, ctx, idx, 1) // leased at the first grant
			a.RLock(ctx, idx)         // a lease hit
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
			waitFor(t, "lease recalls", home.LeaseRecalls.Load, 1)
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
// recall to drain the node's readers when one is. A returned lease that
// paid is suspended while that writer holds the lock and resumes at its
// unlock, so the node's next reader is a gate hit again.
func TestLeaseReturnedByLesseeWriter(t *testing.T) {
	const idx = 7
	c := tc(t, 2)
	var guarded int
	var readerIn atomic.Bool
	c.Run(func(n *cluster.Node) {
		a := New(n, 2*64)
		ctx := n.NewCtx(0)
		home := &a.Instances()[0].Metrics
		stats := n.Endpoint().Stats()
		c.Barrier(ctx)
		if n.ID() == 1 {
			// No reader inside: the lock-req carries the lease back.
			readPairs(a, ctx, idx, 4) // a lease and three hits: it pays
			settle(t, a)
			if !holdsLease(a, idx) {
				t.Error("no lease after the read run")
			}
			a.WLock(ctx, idx)
			guarded++
			if held, suspended := leaseOf(a, idx); !held || !suspended {
				t.Errorf("while its own writer holds the lock: lease held %v suspended %v, want both", held, suspended)
			}
			if g := a.gateOf(idx); g.word.Load()&gateOpen != 0 {
				t.Error("lessee gate open while its own writer holds the lock")
			}
			a.Unlock(ctx, idx)
			settle(t, a)
			if held, suspended := leaseOf(a, idx); !held || suspended {
				t.Errorf("after the writer's unlock: lease held %v suspended %v, want it resumed", held, suspended)
			}
			if r := home.LeaseResumes.Load(); r != 1 {
				t.Errorf("%d lease resumes, want 1", r)
			}
			reqs := stats.KindCount(msgLockReq)
			readPairs(a, ctx, idx, 1)
			if d := stats.KindCount(msgLockReq) - reqs; d != 0 {
				t.Errorf("the next reader sent %d lock-reqs, want 0: a gate hit under the resumed lease", d)
			}
			settle(t, a)
			if r := home.LeaseRecalls.Load(); r != 0 {
				t.Errorf("%d recall messages for a lease its own node's writer returned, want 0", r)
			}

			// A reader inside: the writer's request goes home, the home
			// recalls this node, and the grant waits for the reader.
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
			waitFor(t, "lease recalls", home.LeaseRecalls.Load, 1)
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

// Readers streaming through a gate on three threads cannot starve a
// writer: its request shuts the gate — at the home directly, on a lessee
// by the recall — and the readers that follow queue behind it at the home.
func TestLeaseWriterNotStarved(t *testing.T) {
	const idx, readers = 9, 3 // element 9 is homed on node 0
	for _, tt := range []struct {
		name          string
		rnode, wnode  int
		underTheLease bool
	}{
		{"lessee-readers", 1, 0, true},
		{"home-readers", 0, 1, false},
	} {
		t.Run(tt.name, func(t *testing.T) {
			c := tc(t, 2)
			var stop atomic.Bool
			c.Run(func(n *cluster.Node) {
				a := New(n, 2*64)
				ctx := n.NewCtx(0)
				c.Barrier(ctx)
				switch n.ID() {
				case tt.wnode:
					// Wait until the readers are streaming through the gate.
					waitFor(t, "gate hits", func() int64 {
						all, leased := a.Instances()[tt.rnode].GateHits()
						if tt.underTheLease {
							return leased
						}
						return all
					}, 200)
					a.WLock(ctx, idx)
					stop.Store(true)
					a.Unlock(ctx, idx)
				case tt.rnode:
					n.RunThreads(readers, func(ctx *cluster.Ctx) {
						for !stop.Load() {
							a.RLock(ctx, idx)
							runtime.Gosched() // overlap the sections so the gate is rarely empty
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
		})
	}
}

// A read-mostly element's remote reader pays one lock round trip per
// write: the first reader grant after each home-side writer leases, so of
// the reader's pairs between two writers one sends a lock-req and the
// rest are gate hits, and every lease comes back paid.
func TestLeaseOneRoundTripPerWrite(t *testing.T) {
	const idx, writes, pairs = 5, 16, 8 // element 5 is homed on node 0
	c := tc(t, 2)
	c.Run(func(n *cluster.Node) {
		a := New(n, 2*64)
		ctx := n.NewCtx(0)
		stats := n.Endpoint().Stats()
		c.Barrier(ctx)
		reqs, hits := stats.KindCount(msgLockReq), leaseHits(a)
		for w := 0; w < writes; w++ {
			if n.ID() == 1 {
				readPairs(a, ctx, idx, pairs)
			}
			c.Barrier(ctx)
			if n.ID() == 0 {
				a.WLock(ctx, idx) // recalls node 1's lease
				a.Unlock(ctx, idx)
			}
			c.Barrier(ctx)
		}
		if n.ID() == 1 {
			if d := stats.KindCount(msgLockReq) - reqs; d != writes {
				t.Errorf("%d lock-reqs over %d write cycles of %d read pairs, want one per cycle", d, writes, pairs)
			}
			if h := leaseHits(a) - hits; h != writes*(pairs-1) {
				t.Errorf("%d gate hits, want %d: every pair but the leasing one", h, writes*(pairs-1))
			}
		}
		c.Barrier(ctx)
		if n.ID() == 0 {
			settle(t, a)
			if g, r := a.Metrics.LeaseGrants.Load(), a.Metrics.LeaseRecalls.Load(); g != writes || r != writes {
				t.Errorf("lease grants %d recalls %d, want %d and %d", g, r, writes, writes)
			}
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
			// Without back-off every reader grant that follows a writer's
			// would lease: about one op in four, ~1000 here.
			grants := a.Instances()[0].Metrics.LeaseGrants.Load()
			if grants > 16 {
				t.Errorf("%d leases granted over %d ops of a 50/50 mix: the policy ping-pongs", grants, ops)
			}
			t.Logf("50/50 mix: %d leases over %d ops, %d hits", grants, ops, leaseHits(a))
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
	const nodes, threads, ops, elems = 3, 3, 300, 6
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
				hits += leaseHits(inst)
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

// A home writer's recall crosses a lessee writer's lock-req that returns
// the lease, which paid and so stays suspended on the lessee: the recall
// reaches the suspended record and is stale — the home took the lease
// back on the lock-req — so it is ignored, not answered with a release
// the home could not match to a lessee. The lessee's runtime goroutine is
// held while both are in flight; its local queue is served before its
// messages, so the writer's request runs first.
func TestLeaseRecallCrossesSuspend(t *testing.T) {
	const idx = 5 // homed on node 0
	c := tc(t, 2)
	posted := make(chan struct{})
	runBounded(t, c, func(n *cluster.Node) {
		a := New(n, 2*64)
		ctx := n.NewCtx(0)
		home := &a.Instances()[0].Metrics
		c.Barrier(ctx)
		if n.ID() == 1 {
			readPairs(a, ctx, idx, 4) // a lease and three hits: it pays
			settle(t, a)
		}
		c.Barrier(ctx)
		switch n.ID() {
		case 0:
			done := make(chan struct{})
			go func() {
				defer close(done)
				wctx := n.NewCtx(1)
				a.WLock(wctx, idx) // recalls node 1's lease
				a.Unlock(wctx, idx)
			}()
			await(func() bool { return n.Endpoint().Stats().KindCount(msgLeaseRecall) == 1 })
			close(posted)
			<-done
		case 1:
			held, release := make(chan struct{}), make(chan struct{})
			d := &a.dents[idx/a.sh.chunkWords]
			a.rtOf(d.ci).Submit(func(*cluster.Runtime) {
				close(held)
				<-release
			})
			<-held
			w := a.getWaiter()
			w.want, w.idx = wantWLock, idx
			tok := a.request(ctx, d, w, 0) // queued behind the hold
			<-posted
			close(release)
			if _, ok := a.await(ctx, tok); !ok {
				t.Fatal("lessee writer's WLock failed")
			}
			if held, suspended := leaseOf(a, idx); !held || !suspended {
				t.Errorf("under the lessee's own writer: lease held %v suspended %v, want both", held, suspended)
			}
			a.Unlock(ctx, idx)
			settle(t, a)
			if held, suspended := leaseOf(a, idx); !held || suspended {
				t.Errorf("after the writer's unlock: lease held %v suspended %v, want it resumed", held, suspended)
			}
			if r := n.Endpoint().Stats().KindCount(msgLeaseRelease); r != 0 {
				t.Errorf("the lessee answered the stale recall with %d lease-releases, want 0", r)
			}
			if !sawEvent(a, msgLeaseRecall, d.ci) {
				t.Error("the recall never reached the lessee")
			}
			if r, m := home.LeaseRecalls.Load(), home.LeaseResumes.Load(); r != 1 || m != 1 {
				t.Errorf("recalls %d resumes %d, want 1 and 1", r, m)
			}
		}
		validateAll(t, c, a, ctx)
		c.Barrier(ctx)
	})
}
