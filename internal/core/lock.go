package core

import (
	"darray/internal/cluster"
	"darray/internal/fabric"
	"darray/internal/trace"
)

// Distributed reader/writer locks with element granularity (paper Fig. 3
// lines 5–7). Each element's lock lives at its home node, managed by the
// runtime goroutine that owns the element's chunk; requests and grants
// travel as protocol messages. Lock hold times chain through the lock's
// virtual free-time, which is what makes exclusive WLock+Read+Write
// serialize in the Fig. 14 experiment while Operate does not.
//
// Reader leases keep read-mostly locks on the reading node. Once the
// home has seen an element's chunk take a run of reader grants with no
// writer in between (lockObs), a reader grant to a remote node carries a
// lease: from then on that node's own runtime goroutine admits and
// releases readers of the element in its lease table, with no message.
// A writer pays to collect the leases: its request makes the home send
// lease-recall to every lessee, each stops admitting readers, waits for
// the ones inside to leave and answers lease-release; the writer is
// granted when the home's own reader count and its lessee mask are both
// empty. A writer on a lessee node with no reader inside returns the
// lease on its own lock-req instead. Requests that reach the home behind
// a queued writer queue behind it, leased node or not, so FIFO order and
// writer progress are those of the unleased protocol. PROTOCOL.md §Locks
// has the ordering argument.

// lockState is the home's record of one element's lock.
type lockState struct {
	writerHeld bool
	readers    int   // readers the home counts: its own threads and unleased remote grants
	freeVT     int64 // virtual time the lock was last released
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
	w      *waiter // non-nil for local requests
	vt     int64
	tc     trace.Ctx // requester's causal-trace chain (zero when untraced)
}

// lease is a lessee node's record of one reader lease, owned by the
// runtime goroutine of the element's chunk on that node. Readers are
// anonymous, so a node's holders are interchangeable: an Unlock consumes
// a lease reader while there is one and an unleased grant (a message to
// the home) otherwise, and the two counts together always equal the
// node's threads inside the lock.
type lease struct {
	readers  int   // local threads inside a read section admitted under the lease
	hits     int64 // RLocks served locally, reported to the home with the return
	recalled bool  // the home wants it back: admit nobody, release once readers drain
	sinceVT  int64 // virtual time the lease arrived: the floor of every local grant
	freeVT   int64 // virtual time of the latest local release
	recallVT int64 // virtual time the recall was served here
	tc       trace.Ctx
}

// Lease policy. The home leases an element only while its chunk looks
// read-mostly, and learns from every lease that comes back whether
// leasing that chunk pays.
const (
	leaseRunMin = 4  // reader grants since the chunk's last writer grant before a lease goes out
	leaseRunMax = 64 // ceiling of the backed-off requirement
	leasePayoff = 2  // local hits a returned lease must have served to be worth its recall
)

// lockObs is the lock half of the per-chunk observation record.
type lockObs struct {
	readRun int32 // reader grants on the chunk since its last writer grant, capped at leaseRunMax
	need    int32 // read run required before leasing; 0 means leaseRunMin
}

func (o *lockObs) required() int32 { return max(o.need, leaseRunMin) }

func (o *lockObs) readerGrant() {
	if o.readRun < leaseRunMax {
		o.readRun++
	}
}

func (o *lockObs) writerGrant() { o.readRun = 0 }

func (o *lockObs) leasable() bool { return o.readRun >= o.required() }

// returned scores a lease that came back having served hits local
// RLocks: too few doubles the run the chunk must show before its next
// lease, enough halves it.
func (o *lockObs) returned(hits int64) {
	if hits < leasePayoff {
		o.need = min(2*o.required(), leaseRunMax)
	} else {
		o.need = max(o.required()/2, leaseRunMin)
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
func (a *Array) RLock(ctx *cluster.Ctx, i int64) { a.lock(ctx, i, false) }

// WLock acquires element i's lock exclusively, blocking until granted.
func (a *Array) WLock(ctx *cluster.Ctx, i int64) { a.lock(ctx, i, true) }

func (a *Array) lock(ctx *cluster.Ctx, i int64, writer bool) {
	if ctx.Err() != nil {
		return // degraded: the lock is not acquired
	}
	ci, _ := a.locate(i)
	ctx.Stats.LockOps++
	ctx.Stats.Ops++
	home := a.homeOfChunk(ci)
	rt := a.rtOf(ci)
	var tc trace.Ctx
	var t0 int64
	if a.trc != nil {
		tc, t0 = a.rootSpan(ctx)
	}
	w := a.getWaiter()
	w.ctx, w.vt = ctx, ctx.Clock.Now()
	if m := a.model; m != nil {
		w.vt += m.SlowFixed
	}
	if tc.Trace != 0 {
		w.tc = a.trc.Child(tc, int32(a.self()), trace.StageService, "submit", ci, ctx.Clock.Now(), w.vt)
	}
	rt.Submit(func(rt *cluster.Runtime) {
		start, svt := a.charge2(rt, w.vt)
		wtc := w.tc
		if wtc.Valid() && a.traceOn() {
			wtc = a.child(wtc, a.self(), trace.StageQueue, "rt-queue", ci, w.vt, start)
			wtc = a.child(wtc, a.self(), trace.StageService, "lock-req", ci, start, svt)
		}
		r := lockReq{from: a.self(), writer: writer, w: w, vt: svt, tc: wtc}
		if home == a.self() {
			a.lockRequest(rt, i, r, 0)
			return
		}
		a.lockRemote(rt, home, i, r)
	})
	resp := ctx.WaitResp()
	if resp.Err != nil {
		return // cluster failed; the lock is not held (see ctx.Err)
	}
	ctx.Clock.AdvanceTo(resp.VT)
	if tc.Trace != 0 {
		name := "RLock"
		if writer {
			name = "WLock"
		}
		a.endRoot(ctx, tc, name, ci, t0)
	}
}

// leaseReturned flags a lock-req's Val as carrying the sender's lease
// back; the hit count rides in the bits above it.
const leaseReturned = 1

// lockRemote serves a local thread's request for a lock homed elsewhere:
// from this node's lease if it holds one, by a lock-req to the home if
// not. It runs on the runtime goroutine owning the element's chunk.
func (a *Array) lockRemote(rt *cluster.Runtime, home int, idx int64, r lockReq) {
	s := a.rstate(rt)
	ci := idx / a.sh.chunkWords
	var ret uint64
	if le := s.leases[idx]; le != nil {
		switch {
		case !r.writer && !le.recalled:
			le.readers++
			le.hits++
			a.Metrics.LeaseHits.Add(1)
			base := maxi64(r.vt, le.sinceVT)
			gvt := a.lockServed(base)
			if r.tc.Valid() {
				tc := a.child(r.tc, a.self(), trace.StageQueue, "lock-wait", idx, r.vt, base)
				a.child(tc, a.self(), trace.StageService, "lease-hit", idx, base, gvt)
			}
			a.grantWaiter(r.w, gvt)
			return
		case r.writer && le.readers == 0:
			// Nobody is reading under the lease, so the writer's own request
			// returns it: the home needs no recall round trip to this node.
			ret = leaseReturned | uint64(le.hits)<<1
			r.vt = maxi64(r.vt, le.freeVT)
			delete(s.leases, idx)
		}
		// Otherwise the request goes home like any other: a reader behind
		// a recall queues behind the writer that caused it, and a writer
		// with local readers inside waits for the home to recall them.
	}
	s.lockWaiters[idx] = append(s.lockWaiters[idx], r.w)
	a.send(&fMsg{to: home, kind: msgLockReq, chunk: ci, idx: idx,
		flag: r.writer, val: ret, vt: r.vt, tc: r.tc})
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
	ctx := w.ctx
	a.putWaiter(w)
	ctx.Complete(cluster.Resp{VT: vt, Val: 1})
}

// Unlock releases element i's lock (reader or writer — the home knows
// which mode is held). The release is asynchronous, like a one-sided
// RDMA write of the lock word.
func (a *Array) Unlock(ctx *cluster.Ctx, i int64) {
	ci, _ := a.locate(i)
	ctx.Stats.LockOps++
	ctx.Stats.Ops++
	home := a.homeOfChunk(ci)
	rt := a.rtOf(ci)
	vt := ctx.Clock.Now()
	if m := a.model; m != nil {
		ctx.Clock.Advance(m.SendCost())
	}
	rt.Submit(func(rt *cluster.Runtime) {
		if home == a.self() {
			a.unlockRequest(rt, i, vt)
			return
		}
		s := a.rstate(rt)
		if le := s.leases[i]; le != nil && le.readers > 0 {
			le.readers--
			le.freeVT = maxi64(le.freeVT, vt)
			if le.recalled && le.readers == 0 {
				a.releaseLease(s, home, i, le)
			}
			return
		}
		a.send(&fMsg{to: home, kind: msgUnlock, chunk: ci, idx: i, vt: vt})
	})
}

// handleLockMsg processes lock traffic on the home (or requester, for
// grants and recalls) runtime goroutine.
func (a *Array) handleLockMsg(rt *cluster.Runtime, m *fabric.Message) {
	start, svt := a.charge2(rt, m.VT)
	tc := a.msgSpans(m, start, svt)
	switch m.Kind {
	case msgLockReq:
		a.lockRequest(rt, m.Idx, lockReq{from: m.From, writer: m.Flag, vt: svt, tc: tc}, m.Val)
	case msgUnlock:
		a.unlockRequest(rt, m.Idx, svt)
	case msgLockGrant:
		s := a.rstate(rt)
		q := s.lockWaiters[m.Idx]
		if len(q) == 0 {
			panic("core: lock grant with no local waiter")
		}
		w := q[0]
		if len(q) == 1 {
			delete(s.lockWaiters, m.Idx)
		} else {
			s.lockWaiters[m.Idx] = popFront(q)
		}
		if m.Val != 0 {
			// The grant carries a lease, and the thread it admits is the
			// lease's first reader.
			if s.leases[m.Idx] != nil {
				panic("core: lease granted to a node that holds it")
			}
			s.leases[m.Idx] = &lease{readers: 1, sinceVT: svt}
		}
		a.grantWaiter(w, svt)
	case msgLeaseRecall:
		s := a.rstate(rt)
		le := s.leases[m.Idx]
		if le == nil {
			// Already returned on a local writer's lock-req, which the home
			// reads before anything this node sends from now on.
			return
		}
		le.recalled, le.recallVT, le.tc = true, svt, tc
		if le.readers == 0 {
			a.releaseLease(s, m.From, m.Idx, le)
		}
	case msgLeaseRelease:
		s := a.rstate(rt)
		if ls := s.locks[m.Idx]; a.returnLease(m.Idx, ls, m.From, int64(m.Val), svt) {
			a.tryGrant(rt, m.Idx, ls)
		}
	}
}

// releaseLease answers a recall once the lease's readers have left. The
// release is stamped no earlier than the last of them, so the writer it
// unblocks starts after every read section the lease admitted.
func (a *Array) releaseLease(s *rtState, home int, idx int64, le *lease) {
	vt := maxi64(le.recallVT, le.freeVT)
	tc := a.child(le.tc, a.self(), trace.StageQueue, "lease-drain", idx, le.recallVT, vt)
	delete(s.leases, idx)
	a.send(&fMsg{to: home, kind: msgLeaseRelease, chunk: idx / a.sh.chunkWords, idx: idx,
		val: uint64(le.hits), vt: vt, tc: tc})
}

// returnLease takes node from's lease on element idx back at virtual
// time vt and scores the hits it served for the chunk's policy. It
// reports false, changing nothing, when the node holds no lease — which
// only a failed cluster's stray messages may cause.
func (a *Array) returnLease(idx int64, ls *lockState, from int, hits, vt int64) bool {
	bit := uint64(1) << uint(from)
	if ls == nil || ls.lessees&bit == 0 {
		if a.node.Cluster().Failed() {
			return false
		}
		panic("core: lease returned by a node that holds none")
	}
	ls.lessees &^= bit
	ls.recalled &^= bit
	ls.freeVT = maxi64(ls.freeVT, vt)
	a.dents[idx/a.sh.chunkWords].obs.lock.returned(hits)
	return true
}

// lockRequest queues one request at the home. ret is a remote lock-req's
// Val: a writer on a lessee node may return its lease with the request.
func (a *Array) lockRequest(rt *cluster.Runtime, idx int64, r lockReq, ret uint64) {
	s := a.rstate(rt)
	ls := s.locks[idx]
	if ret&leaseReturned != 0 {
		a.returnLease(idx, ls, r.from, int64(ret>>1), r.vt)
	}
	if ls == nil {
		ls = &lockState{}
		s.locks[idx] = ls
	}
	if r.writer && ls.lessees != 0 {
		// Recall as soon as the writer is known, not when it reaches the
		// head: leases drain while it waits its turn. No lease is granted
		// while anything is queued, so this set is final for this writer.
		r.recall = true
		ci := idx / a.sh.chunkWords
		for v, mask := 0, ls.lessees&^ls.recalled; mask != 0; v, mask = v+1, mask>>1 {
			if mask&1 != 0 {
				a.Metrics.LeaseRecalls.Add(1)
				a.send(&fMsg{to: v, kind: msgLeaseRecall, chunk: ci, idx: idx, vt: r.vt, tc: r.tc})
			}
		}
		ls.recalled = ls.lessees
	}
	ls.queue = append(ls.queue, r)
	a.tryGrant(rt, idx, ls)
}

func (a *Array) unlockRequest(rt *cluster.Runtime, idx int64, vt int64) {
	s := a.rstate(rt)
	ls := s.locks[idx]
	if ls == nil || (!ls.writerHeld && ls.readers == 0) {
		if a.node.Cluster().Failed() {
			// Degraded mode: a thread whose lock acquisition died with a
			// fabric error may still pair it with an Unlock on the way
			// out. Tolerate the mismatch instead of crashing the report.
			return
		}
		panic("core: unlock of a lock not held")
	}
	if ls.writerHeld {
		ls.writerHeld = false
	} else {
		ls.readers--
	}
	ls.freeVT = maxi64(ls.freeVT, vt)
	a.tryGrant(rt, idx, ls)
}

// tryGrant grants from the head of the queue while the lock's state
// allows, and drops the entry once nothing holds, waits for or leases
// the lock (the table stays sparse; history lives in the chunk's obs).
func (a *Array) tryGrant(rt *cluster.Runtime, idx int64, ls *lockState) {
	ci := idx / a.sh.chunkWords
	obs := &a.dents[ci].obs.lock
	for len(ls.queue) > 0 {
		h := ls.queue[0]
		if ls.writerHeld || (h.writer && (ls.readers > 0 || ls.lessees != 0)) {
			return
		}
		ls.queue = popFront(ls.queue)
		var leased uint64
		if h.writer {
			ls.writerHeld = true
			obs.writerGrant()
		} else {
			obs.readerGrant()
			bit := uint64(1) << uint(h.from)
			// Lease only when nothing waits on the lock: a queued writer
			// would recall it at once.
			if h.w == nil && len(ls.queue) == 0 && ls.lessees&bit == 0 && obs.leasable() {
				ls.lessees |= bit
				leased = 1
				a.Metrics.LeaseGrants.Add(1)
			} else {
				ls.readers++
			}
		}
		base := maxi64(h.vt, ls.freeVT)
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
		if h.w != nil {
			a.grantWaiter(h.w, gvt)
		} else {
			a.send(&fMsg{to: h.from, kind: msgLockGrant, chunk: ci, idx: idx, val: leased, vt: gvt, tc: tc})
		}
		if h.writer {
			return
		}
	}
	if ls.idle() {
		delete(a.rstate(rt).locks, idx)
	}
}
