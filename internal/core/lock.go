package core

import (
	"runtime"
	"slices"
	"sync/atomic"

	"darray/internal/cluster"
	"darray/internal/fabric"
	"darray/internal/trace"
)

// Distributed reader/writer locks with element granularity (paper Fig. 3
// lines 5–7). Each element's lock lives at its home node, managed by the
// runtime goroutine that owns the element's chunk; requests and grants
// travel as protocol messages. Lock hold times chain through the lock's
// virtual free-time, which is what makes exclusive WLock+Read+Write
// serialize in the Fig. 14 experiment while Operate does not. They chain
// only while the lock's table entry lives: tryGrant drops an idle entry
// and its free-time with it, so a request that finds the lock idle is
// granted from its own clock, however late the last holder released.
//
// Reader leases keep read-mostly locks on the reading node. An
// uncontended reader grant to a remote node carries a lease unless
// leases on the element's chunk have stopped paying (lockObs): from then
// on that node admits and releases readers of the element itself, with
// no message. A writer pays to collect the leases:
// its request makes the home send lease-recall to every lessee, each
// stops admitting readers, waits for the ones inside to leave and
// answers lease-release; the writer is granted when the home's own
// reader counts and its lessee mask are all empty. A writer on a lessee
// node with no reader inside returns the lease on its own lock-req
// instead. Requests that reach the home behind a queued writer queue
// behind it, leased node or not, so FIFO order and writer progress are
// those of the unleased protocol.
//
// A remote grant can carry the element's chunk. The lock and the chunk
// share a home and a runtime goroutine, so a requester whose chunk is
// idle on its node and lacks the permission the lock mode needs — Read
// for RLock, RW for WLock — asks for it on the lock-req. If the home can
// grant the lock on arrival it runs an ordinary read or write transaction
// on the requester's behalf and the data-resp is the grant, carrying a
// reader's lease when the grant leases; otherwise it declines the fill at
// once and the later grant is a plain lock-grant. A data miss therefore
// never waits on a lock.
//
// A lessee's own writer does not end a lease that paid: it returns it on
// its lock-req as before, keeps the record suspended with the gate shut,
// and reopens the gate at its table Unlock, whose unlock message tells
// the home to list the node as lessee again.
//
// Wherever a node may admit a reader without a message — at the home
// while no writer holds or waits, on a lessee while the lease is held and
// not recalled — it does so without its runtime goroutine either: the
// element's reader gate (below) is open, and RLock/Unlock are a CAS on
// its word each (Unlock stamps its release time first) on the application
// thread. The lock table is the slow path behind the gate, exactly as the
// directory is the slow path behind delay/refcnt/state. PROTOCOL.md §Locks
// has the ordering argument.

// lockState is the home's record of one element's lock.
type lockState struct {
	writerHeld bool
	readers    int   // readers the table admitted: local slow-path grants and unleased remote grants
	freeVT     int64 // virtual time the lock was last released through the table
	queue      []lockReq
	lessees    uint64 // nodes holding a reader lease
	recalled   uint64 // lessees already sent lease-recall (subset of lessees)
}

func (ls *lockState) idle() bool {
	return !ls.writerHeld && ls.readers == 0 && len(ls.queue) == 0 && ls.lessees == 0
}

type lockReq struct {
	from   int
	writer bool
	recall bool    // writer whose wait includes collecting leases
	fill   bool    // remote requester asking for the chunk, not declined: its grant carries it
	w      *waiter // non-nil for local requests
	vt     int64
	tc     trace.Ctx // requester's causal-trace chain (zero when untraced)
}

// lease is a lessee node's record of one reader lease, owned by the
// runtime goroutine of the element's chunk on that node. The readers it
// admitted and the hits it served live in the element's gate, which the
// lease opened on arrival.
type lease struct {
	recalled  bool  // the home wants it back: the gate is shut, release once it drains
	suspended bool  // returned on a local writer's lock-req: the gate is shut until the node's next table Unlock
	recallVT  int64 // virtual time the recall was served here
	tc        trace.Ctx
}

// gate is one element's lock-free reader entrance on one node: a word
// holding {open, hits, readers} that application threads CAS, and two
// virtual-time stamps. The runtime goroutine owning the element's chunk
// opens it when a reader may be admitted here with no message and shuts
// it the moment that stops being true; everything else about the lock
// stays in the tables that goroutine owns. Keeping the whole state in
// one word is what makes admission safe: a CAS that increments the count
// succeeds only against a word whose open bit it has just read, so there
// is no window between "saw it open" and "counted myself in" for a shut
// to fall into, and a shut that reads count 0 knows nobody is inside or
// can get inside.
//
// Readers are anonymous. A node's threads inside the lock are the gate's
// count plus the readers the lock table granted this node (ls.readers at
// the home, unleased grants on a lessee), and an Unlock removes one from
// whichever is non-zero, gate first — which thread "really" came in
// which way does not matter, only that the sum is the number inside.
type gate struct {
	word    atomic.Uint64
	sinceVT atomic.Int64 // virtual time of the grant that opened it: floor of every admission
	freeVT  atomic.Int64 // latest release through the gate; a writer's grant follows it
}

const (
	gateOpen      = uint64(1) << 63
	gateHitShift  = 32
	gateHitMax    = 1<<31 - 1 // hits saturate here
	gateCountMask = uint64(1)<<gateHitShift - 1
)

func gateCount(w uint64) int64 { return int64(w & gateCountMask) }
func gateHits(w uint64) int64  { return int64(w>>gateHitShift) & gateHitMax }

// admit counts the calling thread in as a reader if the gate is open. It
// fails closed: the only retry is against another thread's admit or
// leave, never against a shut. Application threads call it.
func (g *gate) admit() bool {
	for {
		w := g.word.Load()
		if w&gateOpen == 0 {
			return false
		}
		n := w + 1
		if gateHits(w) < gateHitMax {
			n += 1 << gateHitShift
		}
		if g.word.CompareAndSwap(w, n) {
			return true
		}
	}
}

// leave removes one reader from the gate if it holds any, stamping the
// release time vt first so that whoever reads count 0 also reads every
// release before it. last reports that this was the final reader out of
// a shut gate: the runtime is waiting for exactly that, and the caller
// must tell it. Application threads call it.
func (g *gate) leave(vt int64) (left, last bool) {
	for {
		w := g.word.Load()
		if w&gateCountMask == 0 {
			return false, false
		}
		for {
			f := g.freeVT.Load()
			if f >= vt || g.freeVT.CompareAndSwap(f, vt) {
				break
			}
		}
		if g.word.CompareAndSwap(w, w-1) {
			return true, w&^(gateHitMax<<gateHitShift) == 1
		}
	}
}

// open lets readers in from virtual time vt on, with inside of them
// already counted (a leasing grant admits its requester). A gate that is
// already open stays as it is. Runtime only.
func (g *gate) open(vt int64, inside uint64) {
	w := g.word.Load()
	if w&gateOpen != 0 {
		return
	}
	g.sinceVT.Store(vt)
	// Shut, so only leaves move the word under us.
	for !g.word.CompareAndSwap(w, w+gateOpen+inside) {
		w = g.word.Load()
	}
}

// shut stops admissions and returns the word as it was: its count is the
// readers still inside, whose last one out will report (see leave).
// With ifEmpty set it shuts only a gate nobody is inside and reports
// whether it did. Runtime only.
func (g *gate) shut(ifEmpty bool) (w uint64, ok bool) {
	for {
		w = g.word.Load()
		if ifEmpty && w&gateCountMask != 0 {
			return w, false
		}
		if w&gateOpen == 0 || g.word.CompareAndSwap(w, w&^gateOpen) {
			return w, true
		}
	}
}

// takeHits zeroes the hit count and returns it: the admissions since the
// gate was opened, taken by the runtime once the opening is over (a
// writer's request at the home, the lease's return on a lessee).
func (g *gate) takeHits() int64 {
	for {
		w := g.word.Load()
		if g.word.CompareAndSwap(w, w&^(gateHitMax<<gateHitShift)) {
			return gateHits(w)
		}
	}
}

// gateAt returns the gate of the element at offset off of chunk d, or
// nil when the chunk has none yet. Any goroutine may call it.
func gateAt(d *dentry, off int64) *gate {
	if gs := d.gates.Load(); gs != nil {
		return &(*gs)[off]
	}
	return nil
}

// gateOf returns element idx's gate on this node, or nil when its chunk
// has none yet.
func (a *Array) gateOf(idx int64) *gate {
	return gateAt(&a.dents[idx/a.sh.chunkWords], idx%a.sh.chunkWords)
}

// openGate opens element idx's gate on this node at virtual time vt. The
// chunk's gate array is allocated on its first use, so only chunks whose
// locks were ever read-held here carry one. Runtime only.
func (a *Array) openGate(idx, vt int64, inside uint64) {
	d := &a.dents[idx/a.sh.chunkWords]
	gs := d.gates.Load()
	if gs == nil {
		s := make([]gate, a.sh.chunkWords)
		gs = &s
		d.gates.Store(gs)
	}
	(*gs)[idx%a.sh.chunkWords].open(vt, inside)
}

// endGate takes the hits of g's finished opening into the node's
// counters and returns them; leased says the opening was a lease's.
func (a *Array) endGate(g *gate, leased bool) int64 {
	hits := g.takeHits()
	a.Metrics.gateHits.Add(hits)
	if leased {
		a.Metrics.leaseHits.Add(hits)
	}
	return hits
}

// GateHits returns how many RLocks this node's gates have admitted: all
// of them, and those admitted under a lease (gates of elements homed
// elsewhere). It may be called from any goroutine; a call that races the
// end of a gate's opening can miss that opening's hits until the next call.
func (a *Array) GateHits() (all, leased int64) {
	all, leased = a.Metrics.gateHits.Load(), a.Metrics.leaseHits.Load()
	for ci := range a.dents {
		gs := a.dents[ci].gates.Load()
		if gs == nil {
			continue
		}
		var live int64
		for k := range *gs {
			live += gateHits((*gs)[k].word.Load())
		}
		all += live
		if live != 0 && a.homeOfChunk(int64(ci)) != a.self() {
			leased += live
		}
	}
	return all, leased
}

// shutGate shuts element idx's gate on this node if it has one, counting
// the close when it was open. It returns the gate (nil if none) and the
// readers still inside it; ok is false only when ifEmpty kept a gate
// with readers inside open.
func (a *Array) shutGate(idx int64, ifEmpty bool) (g *gate, inside int64, ok bool) {
	g = a.gateOf(idx)
	if g == nil {
		return nil, 0, true
	}
	w, ok := g.shut(ifEmpty)
	if ok && w&gateOpen != 0 {
		a.Metrics.GateCloses.Add(1)
	}
	return g, gateCount(w), ok
}

// Lease policy. The home leases at the first uncontended remote reader
// grant (an unleased pair costs a round trip, a leased one a gate CAS),
// and learns from every lease that comes back whether leasing the chunk
// pays: each one that does not doubles the read run required first.
const (
	leaseRunMax = 64 // ceiling of the backed-off requirement
	leasePayoff = 2  // local hits a returned lease must have served to be worth its recall
)

// lockObs is the lock half of the per-chunk observation record.
type lockObs struct {
	readRun int32 // reader grants by the table on the chunk since its last writer grant, capped at leaseRunMax
	need    int32 // read run required before leasing; 0 means 1, the grant being made
}

func (o *lockObs) required() int32 { return max(o.need, 1) }

func (o *lockObs) readerGrant() {
	if o.readRun < leaseRunMax {
		o.readRun++
	}
}

func (o *lockObs) writerGrant() { o.readRun = 0 }

// leasable reports whether the chunk's read run, extended by extra reader
// admissions the run did not see, meets the requirement.
func (o *lockObs) leasable(extra int64) bool { return int64(o.readRun)+extra >= int64(o.required()) }

// returned scores a lease that came back having served hits local
// RLocks: too few doubles the run the chunk must show before its next
// lease, enough halves it.
func (o *lockObs) returned(hits int64) {
	if hits < leasePayoff {
		o.need = min(2*o.required(), leaseRunMax)
	} else {
		o.need = max(o.required()/2, 1)
	}
}

// popFront removes q's head in place: the backing array is reused, where
// an ever-advancing q[1:] would pin it and reallocate on every wrap.
func popFront[T any](q []T) []T {
	n := copy(q, q[1:])
	var zero T
	q[n] = zero
	return q[:n]
}

// RLock acquires element i's lock in shared mode, blocking until granted.
// Through an open gate that is one CAS on the calling thread, charged
// like a lock-free Get hit; otherwise the request goes to the lock table.
func (a *Array) RLock(ctx *cluster.Ctx, i int64) {
	ci, off := a.locate(i)
	if g := gateAt(&a.dents[ci], off); g != nil && g.admit() {
		if m := a.model; m != nil {
			ctx.Clock.Advance(m.GetHit)
		}
		var tc trace.Ctx
		var t0 int64
		if a.trc != nil {
			tc, t0 = a.rootSpan(ctx)
		}
		// The read section follows whatever the gate's opening followed:
		// the writer before it, or the lease's trip from the home.
		ctx.Clock.AdvanceTo(g.sinceVT.Load())
		if tc.Trace != 0 {
			a.child(tc, a.self(), trace.StageQueue, "lock-wait", i, t0, ctx.Clock.Now())
			a.endRoot(ctx, tc, "RLock", ci, t0)
		}
		return
	}
	a.lock(ctx, ci, i, wantRLock)
}

// WLock acquires element i's lock exclusively, blocking until granted.
func (a *Array) WLock(ctx *cluster.Ctx, i int64) {
	ci, _ := a.locate(i)
	a.lock(ctx, ci, i, wantWLock)
}

// Lock-table requests an application thread submits to the runtime
// owning the element's chunk, carried in waiter.want beside the data
// path's wants (a pooled waiter's kept closure tells them apart, so the
// lock slow path allocates nothing on the requester either).
const (
	wantRLock   uint8 = 32 + iota
	wantWLock         // blocks until granted, like wantRLock
	wantUnlock        // asynchronous: no completion
	wantDrained       // the last reader left a shut gate: re-examine the lock
)

// lock takes element i (of chunk ci) through the lock table: want is
// wantRLock or wantWLock.
func (a *Array) lock(ctx *cluster.Ctx, ci, i int64, want uint8) {
	var tc trace.Ctx
	var t0 int64
	if a.trc != nil {
		tc, t0 = a.rootSpan(ctx)
	}
	w := a.getWaiter()
	w.want, w.idx, w.tc = want, i, tc
	if _, ok := a.await(ctx, a.request(ctx, &a.dents[ci], w, 0)); !ok {
		return // degraded: the lock is not acquired (see ctx.Err)
	}
	if tc.Trace != 0 {
		name := "RLock"
		if want == wantWLock {
			name = "WLock"
		}
		a.endRoot(ctx, tc, name, ci, t0)
	}
}

// handleLockLocal is the runtime-side entry for an application thread's
// lock-table request (see submitLocal).
func (a *Array) handleLockLocal(rt *cluster.Runtime, w *waiter) {
	idx, ci := w.idx, w.d.ci
	home := a.homeOfChunk(ci)
	switch w.want {
	case wantUnlock:
		vt := w.vt
		a.putWaiter(w)
		if home == a.self() {
			a.unlockRequest(rt, idx, home, vt, false)
			return
		}
		// The writer that suspended this node's lease is done with the
		// lock: readers here may come in through the gate again, and the
		// unlock tells the home so.
		le := a.rstate(rt).leases[idx]
		resume := le != nil && le.suspended
		if resume {
			le.suspended = false
			a.openGate(idx, vt, 0)
		}
		a.send(&fMsg{to: home, kind: msgUnlock, chunk: ci, idx: idx, flag: resume, vt: vt})
	case wantDrained:
		a.putWaiter(w)
		a.Metrics.GateDrains.Add(1)
		s := a.rstate(rt)
		if home == a.self() {
			if ls := s.locks[idx]; ls != nil {
				a.tryGrant(rt, idx, ls)
			}
		} else if le := s.leases[idx]; le != nil && le.recalled {
			a.releaseLease(s, home, idx, le)
		}
	default:
		start, svt := a.charge2(rt, w.vt)
		wtc := w.tc
		if wtc.Valid() && a.traceOn() {
			wtc = a.child(wtc, a.self(), trace.StageQueue, "rt-queue", ci, w.vt, start)
			wtc = a.child(wtc, a.self(), trace.StageService, "lock-req", ci, start, svt)
		}
		r := lockReq{from: a.self(), writer: w.want == wantWLock, w: w, vt: svt, tc: wtc}
		if home == a.self() {
			a.lockRequest(rt, idx, r, 0)
		} else {
			a.lockRemote(rt, home, idx, r)
		}
	}
}

// A lock-req's Val: leaseReturned says it carries the sender's lease
// back, with the lease's hit count in the bits from reqHitShift up;
// fillWanted says the requester asks for its element's chunk with the
// grant.
const (
	leaseReturned = 1
	fillWanted    = 2
	reqHitShift   = 2
)

// grantsLock, above the permission in a data-resp's Val, makes the grant
// also the lock on element Idx, in the mode the permission names (Read
// or RW); grantsLease adds a reader lease to a Read one.
const (
	grantsLock  = 1 << 32
	grantsLease = 1 << 33
)

// lockRemote sends a local thread's request for a lock homed elsewhere to
// the home. It runs on the runtime goroutine owning the element's chunk.
// A reader gets here only past a gate that was not open when it looked —
// no lease, or a recalled or suspended one — and queues at the home like
// any other, behind the writer that caused the recall if there is one. A
// writer on a lessee node with no reader inside takes the lease back with
// it; a lease that paid stays here suspended, to resume at the node's
// next table Unlock.
//
// A request asks for the chunk when it is idle here and lacks the
// permission the mode needs: nothing outstanding (pending), nothing being
// installed or evicted (busy), not readable for a reader, not RW for a
// writer. The fill then holds the chunk's pending slot, so it is the one
// request this node has outstanding for the chunk, until the home answers
// with the chunk or with a decline.
func (a *Array) lockRemote(rt *cluster.Runtime, home int, idx int64, r lockReq) {
	s := a.rstate(rt)
	ci := idx / a.sh.chunkWords
	var ret uint64
	if le := s.leases[idx]; r.writer && le != nil && !le.suspended {
		// Shut the gate only if nobody is inside: then the writer's own
		// request returns the lease and the home needs no recall round trip
		// to this node. With readers inside the lease stays as it is and
		// the writer waits for the home to recall them.
		if g, _, ok := a.shutGate(idx, true); ok {
			hits := a.endGate(g, true)
			ret = leaseReturned | uint64(hits)<<reqHitShift
			r.vt = maxi64(r.vt, g.freeVT.Load())
			if hits >= leasePayoff {
				le.recalled, le.suspended = false, true
			} else {
				delete(s.leases, idx)
			}
		}
	}
	want := wantRead
	if r.writer {
		want = wantWrite
	}
	if d := &a.dents[ci]; !d.pending && !d.busy && !satisfies(d.state.Load(), want, 0) {
		d.pending = true
		ret |= fillWanted
	}
	s.lockWaiters[idx] = append(s.lockWaiters[idx], r.w)
	a.send(&fMsg{to: home, kind: msgLockReq, chunk: ci, idx: idx,
		flag: r.writer, val: ret, vt: r.vt, tc: r.tc})
}

// takeLockWaiter removes and returns the local thread that a grant of
// element idx from its home is for: the oldest one waiting, since the
// home grants each node's requests in the order it sent them.
func (a *Array) takeLockWaiter(s *rtState, idx int64) *waiter {
	q := s.lockWaiters[idx]
	if len(q) == 0 {
		s.panicChunk(idx/a.sh.chunkWords, "core: lock grant with no local waiter")
	}
	w := q[0]
	if len(q) == 1 {
		delete(s.lockWaiters, idx)
	} else {
		s.lockWaiters[idx] = popFront(q)
	}
	return w
}

// lockServed is the virtual time a lock-table operation that starts at
// base completes.
func (a *Array) lockServed(base int64) int64 {
	if a.model == nil {
		return base
	}
	return base + a.model.LockService
}

// grantWaiter completes a local thread's lock request at virtual time vt.
func (a *Array) grantWaiter(w *waiter, vt int64) {
	tok := w.tok
	a.putWaiter(w)
	tok.Complete(cluster.Resp{VT: vt, Val: 1})
}

// Unlock releases element i's lock (reader or writer — the lock knows
// which mode is held). A reader inside a gate leaves with one CAS; any
// other release is asynchronous, like a one-sided RDMA write of the lock
// word.
func (a *Array) Unlock(ctx *cluster.Ctx, i int64) {
	ci, off := a.locate(i)
	d := &a.dents[ci]
	vt := ctx.Clock.Now()
	m := a.model
	if g := gateAt(d, off); g != nil {
		hit := vt
		if m != nil {
			hit += m.GetHit
		}
		if left, last := g.leave(hit); left {
			ctx.Clock.AdvanceTo(hit)
			if last {
				a.submitLock(d, wantDrained, i, hit)
			}
			return
		}
	}
	if m != nil {
		ctx.Clock.Advance(m.SendCost())
	}
	a.submitLock(d, wantUnlock, i, vt)
}

// submitLock hands the runtime owning d a lock-table request that has no
// completion, and yields the processor once. Nothing here waits for the
// request, but somebody else may — the next holder, for this release or
// drain report. The runtime goroutine just readied sits in this
// processor's run-next slot and runs when this thread next blocks, which
// used to be at its next lock and may now be a long run of gate hits
// away; on a host with no idle processor to steal it, that is how long
// the lock would stay taken after its holder let go.
func (a *Array) submitLock(d *dentry, want uint8, idx, vt int64) {
	w := a.getWaiter()
	w.want, w.idx, w.vt = want, idx, vt
	a.submitLocal(d, w)
	runtime.Gosched()
}

// handleLockMsg processes lock traffic on the home (or requester, for
// grants and recalls) runtime goroutine: handleMsg's lock kinds, served
// at svt with the causal chain tc.
func (a *Array) handleLockMsg(rt *cluster.Runtime, m *fabric.Message, svt int64, tc trace.Ctx) {
	s := a.rstate(rt)
	switch m.Kind {
	case msgLockReq:
		a.lockRequest(rt, m.Idx, lockReq{from: m.From, writer: m.Flag, fill: m.Val&fillWanted != 0,
			vt: svt, tc: tc}, m.Val)
	case msgUnlock:
		a.unlockRequest(rt, m.Idx, m.From, svt, m.Flag)
	case msgFillDecline:
		// The lock-req queued at the home, so its grant will be a plain
		// lock-grant: the chunk's pending slot is free again, and the data
		// misses that queued behind the fill go out on their own.
		d := &a.dents[m.Chunk]
		d.pending = false
		d.tvt = maxi64(d.tvt, svt)
		if len(d.waiters) > 0 && !d.busy {
			a.issueRequest(rt, d)
		}
	case msgLockGrant:
		w := a.takeLockWaiter(s, m.Idx)
		if m.Val&grantsLease != 0 {
			a.leaseArrived(s, m.Idx, svt)
		}
		a.grantWaiter(w, svt)
	case msgLeaseRecall:
		le := s.leases[m.Idx]
		if le == nil || le.suspended {
			// Already returned on a local writer's lock-req, which the home
			// reads before anything this node sends from now on; a suspended
			// lease is listed again only by that writer's unlock, after it.
			return
		}
		le.recalled, le.recallVT, le.tc = true, svt, tc
		if _, inside, _ := a.shutGate(m.Idx, false); inside == 0 {
			a.releaseLease(s, m.From, m.Idx, le)
		}
	case msgLeaseRelease:
		if ls := s.locks[m.Idx]; a.returnLease(s, m.Idx, ls, m.From, int64(m.Val), svt) {
			a.tryGrant(rt, m.Idx, ls)
		}
	}
}

// leaseArrived installs the reader lease on element idx that a grant
// arriving at virtual time vt carries: the gate opens with the thread the
// grant admits counted inside, as the lease's first reader. A data-resp
// installs it on arrival, before its chunk, so that a recall the home
// sends after the grant finds it even while the installation stalls.
func (a *Array) leaseArrived(s *rtState, idx, vt int64) {
	if s.leases[idx] != nil {
		s.panicChunk(idx/a.sh.chunkWords, "core: lease granted to a node that holds it")
	}
	s.leases[idx] = &lease{}
	a.openGate(idx, vt, 1)
}

// releaseLease answers a recall once the shut gate has drained — at the
// recall if nobody was inside, else when the last reader out says so. The
// release is stamped no earlier than the last of them, so the writer it
// unblocks starts after every read section the lease admitted.
func (a *Array) releaseLease(s *rtState, home int, idx int64, le *lease) {
	g := a.gateOf(idx)
	vt := maxi64(le.recallVT, g.freeVT.Load())
	tc := a.child(le.tc, a.self(), trace.StageQueue, "lease-drain", idx, le.recallVT, vt)
	delete(s.leases, idx)
	a.send(&fMsg{to: home, kind: msgLeaseRelease, chunk: idx / a.sh.chunkWords, idx: idx,
		val: uint64(a.endGate(g, true)), vt: vt, tc: tc})
}

// returnLease takes node from's lease on element idx back at virtual
// time vt and scores the hits it served for the chunk's policy. It
// reports false, changing nothing, when the node holds no lease — which
// only a failed cluster's stray messages may cause.
func (a *Array) returnLease(s *rtState, idx int64, ls *lockState, from int, hits, vt int64) bool {
	bit := uint64(1) << uint(from)
	if ls == nil || ls.lessees&bit == 0 {
		if a.node.Cluster().Failed() {
			return false
		}
		s.panicChunk(idx/a.sh.chunkWords, "core: lease returned by a node that holds none")
	}
	ls.lessees &^= bit
	ls.recalled &^= bit
	ls.freeVT = maxi64(ls.freeVT, vt)
	a.dents[idx/a.sh.chunkWords].obs.lock.returned(hits)
	return true
}

// lockRequest queues one request at the home. ret is a remote lock-req's
// Val: a writer on a lessee node may return its lease with the request.
// A writer's fill is granted only on arrival; a request that has to queue
// has it declined at once, so the requester's chunk is not held pending
// behind another holder of the lock.
func (a *Array) lockRequest(rt *cluster.Runtime, idx int64, r lockReq, ret uint64) {
	s := a.rstate(rt)
	ls := s.locks[idx]
	if ret&leaseReturned != 0 {
		a.returnLease(s, idx, ls, r.from, int64(ret>>reqHitShift), r.vt)
	}
	if ls == nil {
		ls = &lockState{}
		s.locks[idx] = ls
	}
	if r.writer {
		// From here on every local reader comes through the table too, and
		// queues behind this writer; the ones already inside the gate are
		// waited for in tryGrant.
		if g, _, _ := a.shutGate(idx, false); g != nil {
			a.endGate(g, false)
		}
	}
	if r.writer && ls.lessees != 0 {
		// Recall as soon as the writer is known, not when it reaches the
		// head: leases drain while it waits its turn. No lease is granted
		// while anything is queued, so this set is final for this writer
		// unless a suspended one resumes (unlockRequest).
		a.recallLeases(ls, idx, &r, r.vt)
	}
	if r.fill && (len(ls.queue) != 0 || ls.blocks(r, a.gateOf(idx))) {
		r.fill = false
		a.Metrics.FillDeclines.Add(1)
		a.send(&fMsg{to: r.from, kind: msgFillDecline, chunk: idx / a.sh.chunkWords, idx: idx, vt: r.vt})
	}
	ls.queue = append(ls.queue, r)
	a.tryGrant(rt, idx, ls)
}

// recallLeases makes writer h wait for element idx's leases and sends
// lease-recall, at virtual time vt, to every lessee not yet recalled: all
// of them when h arrives (lockRequest), or the one whose suspended lease
// resumed while h waited (unlockRequest).
func (a *Array) recallLeases(ls *lockState, idx int64, h *lockReq, vt int64) {
	h.recall = true
	mask := ls.lessees &^ ls.recalled
	for v, m := 0, mask; m != 0; v, m = v+1, m>>1 {
		if m&1 != 0 {
			a.Metrics.LeaseRecalls.Add(1)
			a.send(&fMsg{to: v, kind: msgLeaseRecall, chunk: idx / a.sh.chunkWords, idx: idx, vt: vt, tc: h.tc})
		}
	}
	ls.recalled |= mask
}

// unlockRequest releases one holder of element idx's lock at virtual time
// vt, for node from. resume says from's suspended lease resumes: the node
// has reopened its gate, so it is listed as lessee before anything is
// granted, and recalled at once if a writer is waiting.
func (a *Array) unlockRequest(rt *cluster.Runtime, idx int64, from int, vt int64, resume bool) {
	s := a.rstate(rt)
	ls := s.locks[idx]
	if ls == nil || (!ls.writerHeld && ls.readers == 0) {
		if a.node.Cluster().Failed() {
			// Degraded mode: a thread whose lock acquisition died with a
			// fabric error may still pair it with an Unlock on the way
			// out. Tolerate the mismatch instead of crashing the report.
			return
		}
		s.panicChunk(idx/a.sh.chunkWords, "core: unlock of a lock not held")
	}
	if ls.writerHeld {
		ls.writerHeld = false
	} else {
		ls.readers--
	}
	ls.freeVT = maxi64(ls.freeVT, vt)
	if resume {
		ls.lessees |= 1 << uint(from)
		a.Metrics.LeaseResumes.Add(1)
		if k := slices.IndexFunc(ls.queue, func(h lockReq) bool { return h.writer }); k >= 0 {
			a.recallLeases(ls, idx, &ls.queue[k], vt)
		}
	}
	a.tryGrant(rt, idx, ls)
}

// leaseGrant decides, as a grant leaves the home for remote node from,
// whether it carries a lease, and returns the grant's lease bit. Only a
// reader's can: the table counted it unleased when it granted it, and a
// lease moves it to the lessee mask. It leases when nothing else waits on
// the lock (waiting == 0: a queued writer would recall it at once), the
// node holds none and the chunk's policy allows. Deciding as the grant
// leaves keeps a recall behind its grant on the wire, also when a filled
// grant's transaction ran while a writer queued. The home's own readers
// of the element since its last writer went through the gate, not the
// table: they extend the read run all the same.
func (a *Array) leaseGrant(ls *lockState, idx int64, reader bool, from, waiting int) uint64 {
	bit := uint64(1) << uint(from)
	var local int64
	if g := a.gateOf(idx); g != nil {
		local = gateHits(g.word.Load())
	}
	if !reader || waiting != 0 || ls.lessees&bit != 0 || !a.dents[idx/a.sh.chunkWords].obs.lock.leasable(local) {
		return 0
	}
	ls.lessees |= bit
	ls.readers--
	a.Metrics.LeaseGrants.Add(1)
	return grantsLease
}

// blocks reports whether the lock's state keeps request h from being
// granted now: a writer holds it, or h is a writer and readers are in —
// through the table, under a lease, or inside the home's gate g.
func (ls *lockState) blocks(h lockReq, g *gate) bool {
	return ls.writerHeld || (h.writer && (ls.readers > 0 || ls.lessees != 0 ||
		(g != nil && gateCount(g.word.Load()) > 0)))
}

// tryGrant grants from the head of the queue while the lock's state
// allows, and drops the entry once nothing holds, waits for or leases
// the lock (the table stays sparse; history lives in the chunk's obs).
// A writer also waits for the readers inside the home's own gate, which
// its request shut; a pass that drains the queue on reader grants opens
// that gate for the readers after them, before it wakes the local ones,
// so a thread that follows one of them in finds it open. A fill starts
// the chunk's read or write transaction on the requester's behalf once
// the queue is trimmed: the data-resp is its grant. A fill is granted
// only on arrival, alone in the queue, so a pass grants at most one.
func (a *Array) tryGrant(rt *cluster.Runtime, idx int64, ls *lockState) {
	ci := idx / a.sh.chunkWords
	obs := &a.dents[ci].obs.lock
	g := a.gateOf(idx)
	openVT := int64(-1) // grant time of the last local reader admitted in this pass
	var fill homeReq    // the pass's fill, if fill.lock
	n := 0              // the pass has granted ls.queue[:n]; a local entry's vt is now its grant's
	for n < len(ls.queue) {
		h := &ls.queue[n]
		if ls.blocks(*h, g) {
			break
		}
		n++
		base := maxi64(h.vt, ls.freeVT)
		if h.writer {
			ls.writerHeld = true
			obs.writerGrant()
			if g != nil {
				base = maxi64(base, g.freeVT.Load())
			}
		} else {
			obs.readerGrant()
			ls.readers++ // until a remote grant leaves leased (leaseGrant)
		}
		gvt := a.lockServed(base)
		tc := h.tc
		if tc.Valid() {
			if h.recall {
				// The writer waited for its recalls' releases (and any
				// holder before them): one fan-out span, as for invalidations.
				tc = a.child(tc, a.self(), trace.StageFanout, "lease-fanout", idx, h.vt, base)
			} else {
				// Contended: the request waited for the holder's release.
				tc = a.child(tc, a.self(), trace.StageQueue, "lock-wait", idx, h.vt, base)
			}
			tc = a.child(tc, a.self(), trace.StageService, "lock-grant", idx, base, gvt)
		}
		switch {
		case h.w != nil:
			h.vt = gvt // woken below
			if !h.writer {
				openVT = gvt
			}
		case h.fill:
			fill = homeReq{from: h.from, want: wantRead, vt: gvt, tc: tc, lock: true, idx: idx}
			if h.writer {
				fill.want = wantWrite
			}
		default:
			val := a.leaseGrant(ls, idx, !h.writer, h.from, len(ls.queue)-n)
			a.send(&fMsg{to: h.from, kind: msgLockGrant, chunk: ci, idx: idx, val: val, vt: gvt, tc: tc})
		}
		if h.writer {
			break
		}
	}
	if openVT >= 0 && n == len(ls.queue) {
		// The queue drained on reader grants: no writer holds or waits, so
		// this node's next readers need neither the table nor this goroutine.
		a.openGate(idx, openVT, 0)
	}
	for _, h := range ls.queue[:n] {
		if h.w != nil {
			a.grantWaiter(h.w, h.vt)
		}
	}
	rest := copy(ls.queue, ls.queue[n:])
	clear(ls.queue[rest:])
	ls.queue = ls.queue[:rest]
	if ls.idle() {
		delete(a.rstate(rt).locks, idx)
	}
	if fill.lock {
		if fill.want == wantRead {
			a.Metrics.ReaderFills.Add(1)
		} else {
			a.Metrics.WriterFills.Add(1)
		}
		a.serveHome(rt, &a.dents[ci], fill)
	}
}
